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

With names, only those entries are rewritten.  For each entry whose text
changes, the script prints the records it added, removed or moved (grouped
by the fields that moved), so a change can name them from this output.
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
    doc = _body(text)
    if doc is None or "header" not in doc:
        return code, text
    del doc["header"]
    return code, json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _body(text: str):
    """The parsed report body of an entry's text, or None for other stdout."""
    try:
        doc = json.loads(text)
    except ValueError:  # nothing printed, or a table
        return None
    return doc if isinstance(doc, dict) else None


def _changed_records(want: dict, got: dict):
    """(name, old record, new record, differing fields) for each record that
    differs between two bodies, in the old order and then the new; an added
    record has no old one, a removed record no new one."""
    old = {r["name"]: r for r in want.get("checks", [])}
    new = {r["name"]: r for r in got.get("checks", [])}
    for name in [*old, *(n for n in new if n not in old)]:
        a, b = old.get(name), new.get(name)
        if a is None or b is None:
            yield name, a, b, []
        elif fields := [f for f in sorted(set(a) | set(b)) if a.get(f) != b.get(f)]:
            yield name, a, b, fields


def _top_level(want: dict, got: dict) -> list:
    return [f"{key}: {want.get(key)!r} != {got.get(key)!r}"
            for key in sorted((set(want) | set(got)) - {"checks"})
            if want.get(key) != got.get(key)]


def differences(want_text: str, got_text: str) -> list:
    """Lines naming each top-level field and each record field that differs."""
    want, got = _body(want_text), _body(got_text)
    if want is None or got is None:
        return [f"stdout: {want_text[:60]!r} != {got_text[:60]!r}"]
    out = _top_level(want, got)
    for name, a, b, fields in _changed_records(want, got):
        if a is None or b is None:
            out.append(f"{name}: {'added' if a is None else 'removed'}")
        else:
            out += [f"{name}.{f}: {a.get(f)!r} != {b.get(f)!r}" for f in fields]
    if not out and want.get("checks") != got.get("checks"):
        out.append("checks: same records in another order")
    return out or ["same fields, different serialization"]


def record_changes(want_text: str, got_text: str) -> list:
    """Lines naming the records added, removed or moved between two texts of
    an entry, one line per kind of change ("removed: a[k=1] b[k=1]",
    "moved anchor: c[k=1]"), after the top-level fields that differ."""
    want, got = _body(want_text), _body(got_text)
    if want is None or got is None:
        return [] if want_text == got_text else ["stdout changed"]
    groups = {}
    for name, a, b, fields in _changed_records(want, got):
        kind = "added" if a is None else "removed" if b is None else "moved " + ", ".join(fields)
        groups.setdefault(kind, []).append(name)
    return _top_level(want, got) + [f"{kind}: {' '.join(names)}"
                                    for kind, names in groups.items()]


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
        path = CORPUS_DIR / f"{name}.json"
        before = path.read_text() if path.exists() else None
        exits[name], text = render(name)
        path.write_text(text)
        print(f"{name}: exit {exits[name]}, {len(text)} bytes")
        if before is None:
            print("  new entry")
        elif before != text:
            print("\n".join(f"  {line}" for line in record_changes(before, text)))
    exits_path.write_text(json.dumps(exits, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
