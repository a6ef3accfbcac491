"""Regenerate the golden corpus under tests/golden.

The corpus holds, for a fixed set of command lines, what ``halfcyl``
prints on stdout with the timestamp header stripped, one file per entry
(``<name>.json``), and every entry's exit code (``exits.json``).  A report
body (``verify``, ``equiv``) is serialized as ``verify`` prints it (sorted
keys, indent 2); stdout with no header, or that is not JSON (``spectrum``,
``closure``, ``orbit``), is kept verbatim; an entry that prints nothing (a
usage error) has an empty file.
``tests/test_golden.py`` regenerates each entry and compares it byte for
byte, so a change that moves a residual, a record or a verdict shows up
there, and in the diff of the corpus once it is regenerated:

    PYTHONPATH=src python scripts/golden_corpus.py [NAME ...]

With names, only those entries are rewritten.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

CORPUS_DIR = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden"

_SIZES = {"default": {}, "N=M=256": {"N": 256, "M": 256}, "N=M=1024": {"N": 1024, "M": 1024}}
# the README's closure examples and the CI's unclosed pair
_CLOSURES = {
    "sl2": "L-1,L0,L1",
    "sum": "L0 + 2*L2, 1/2*L1",
    "exact3": "2/3*L0 + 2*L4, -4*L-4 - L0 + 3*L4, 2*L-4 - L0 - L4",
    "borel": "L1 + 3*L0 + 2*L-1, -L1 - L0",
    "unclosed": "L1,L2",
}

# name -> (argv, verify config or None); a config is passed as --config
ENTRIES = {
    **{f"verify-{profile}-{size.replace('=', '')}-seed{seed}":
       (["verify", "--profile", profile, "--seed", str(seed)], config or None)
       for profile in ("physical", "full")
       for size, config in _SIZES.items()
       for seed in (0, 3)},
    "equiv-theta0.5": (["equiv", "--theta", "0.5"], None),
    "equiv-theta0.5-mmin3": (["equiv", "--theta", "0.5", "--mmin", "3"], None),
    "equiv-theta0.25-mmin2-n16": (["equiv", "--theta", "0.25", "--mmin", "2", "--n", "16"], None),
    "equiv-theta1-mmin1-n8": (["equiv", "--theta", "1", "--mmin", "1", "--n", "8"], None),
    "spectrum-k1-n5": (["spectrum", "--k", "1", "--n", "5"], None),
    **{f"closure-{name}": (["closure", "--generators", gens], None)
       for name, gens in _CLOSURES.items()},
    "orbit-l2": (["orbit", "--l", "2", "--from", "0.25,1.0", "--to", "3.0,0.5"], None),
    # usage errors: exit 2 and no stdout
    "equiv-theta0.5-mmin1e16": (["equiv", "--theta", "0.5", "--mmin", str(10 ** 16)], None),
    "equiv-theta0.5-m20": (["equiv", "--theta", "0.5", "--m", "20"], None),
    "verify-M7": (["verify"], {"M": 7}),
}


def render(name: str):
    """(exit code, stdout with the header stripped) of entry ``name``."""
    from halfcyl import cli

    argv, config = ENTRIES[name]
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            argv = [*argv, "--config", path]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    text = out.getvalue()
    try:
        doc = json.loads(text)
    except ValueError:  # nothing printed, or a table
        doc = None
    if not (isinstance(doc, dict) and "header" in doc):
        return code, text
    del doc["header"]
    return code, json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def main(names) -> int:
    unknown = sorted(set(names) - set(ENTRIES))
    if unknown:
        print(f"unknown entries: {unknown}", file=sys.stderr)
        return 2
    CORPUS_DIR.mkdir(parents=True, exist_ok=True)
    exits_path = CORPUS_DIR / "exits.json"
    exits = json.loads(exits_path.read_text()) if exits_path.exists() else {}
    exits = {name: code for name, code in exits.items() if name in ENTRIES}
    for name in names or ENTRIES:
        exits[name], text = render(name)
        (CORPUS_DIR / f"{name}.json").write_text(text)
        print(f"{name}: exit {exits[name]}, {len(text)} bytes")
    exits_path.write_text(json.dumps(exits, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
