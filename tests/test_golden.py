"""Golden corpus: each committed ``verify`` and ``equiv`` body, and the
stdout of the README's ``spectrum``, ``closure`` and ``orbit`` examples,
under tests/golden, regenerated from this checkout and compared byte for
byte together with the exit code.

A change that means to move a body regenerates the corpus with
``scripts/golden_corpus.py`` and names the records that moved."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden_corpus",
                                               ROOT / "scripts" / "golden_corpus.py")
golden_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_corpus)

EXITS = json.loads((golden_corpus.CORPUS_DIR / "exits.json").read_text())


def _differences(want_text: str, got_text: str) -> list:
    """Lines naming each top-level field and each record field that differs."""
    try:
        want, got = json.loads(want_text), json.loads(got_text)
    except ValueError:  # an empty stdout, or text kept verbatim
        want = got = None
    if not (isinstance(want, dict) and isinstance(got, dict)):
        return [f"stdout: {want_text[:60]!r} != {got_text[:60]!r}"]
    out = [f"{key}: {want.get(key)!r} != {got.get(key)!r}"
           for key in sorted((set(want) | set(got)) - {"checks"})
           if want.get(key) != got.get(key)]
    old = {r["name"]: r for r in want.get("checks", [])}
    new = {r["name"]: r for r in got.get("checks", [])}
    for name in [*old, *(n for n in new if n not in old)]:
        a, b = old.get(name), new.get(name)
        if a is None or b is None:
            out.append(f"{name}: {'added' if a is None else 'removed'}")
            continue
        out += [f"{name}.{field}: {a.get(field)!r} != {b.get(field)!r}"
                for field in sorted(set(a) | set(b)) if a.get(field) != b.get(field)]
    if not out and list(old) != list(new):
        out.append("checks: same records in another order")
    return out or ["same fields, different serialization"]


def test_corpus_lists_every_entry():
    assert sorted(EXITS) == sorted(golden_corpus.ENTRIES)


@pytest.mark.parametrize("name", list(golden_corpus.ENTRIES))
def test_entry_matches_corpus(name):
    code, text = golden_corpus.render(name)
    want = (golden_corpus.CORPUS_DIR / f"{name}.json").read_text()
    assert text == want, "\n".join(_differences(want, text))
    assert code == EXITS[name]
