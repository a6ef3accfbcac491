"""Print the sha256 of the full-profile report body at N = M for each N:SEED.

The body is what ``halfcyl verify --profile full --seed SEED`` prints at
N = M = N with the timestamp header stripped, rendered as
``scripts/golden_corpus.py`` renders a corpus entry.  Two commits print the
same digest exactly when their bodies are byte-identical, which checks a
refactor at sizes the corpus does not hold:

    PYTHONPATH=src python scripts/body_digest.py 4096:0 10000:1 100000:0

Each line reads ``N:SEED <sha256> exit <code>``.
"""

from __future__ import annotations

import hashlib
import sys

from golden_corpus import run


def digest(n: int, seed: int):
    """(sha256 hex digest of the body, exit code) of the full profile at N = M = n."""
    code, text = run(["verify", "--profile", "full", "--seed", str(seed)], {"N": n, "M": n})
    return hashlib.sha256(text.encode()).hexdigest(), code


def main(args) -> int:
    try:
        pairs = [tuple(int(x) for x in arg.split(":")) for arg in args]
    except ValueError:
        pairs = []
    if not pairs or any(len(p) != 2 for p in pairs):
        print("usage: body_digest.py N:SEED [N:SEED ...]", file=sys.stderr)
        return 2
    for n, seed in pairs:
        hexdigest, code = digest(n, seed)
        print(f"{n}:{seed} {hexdigest} exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
