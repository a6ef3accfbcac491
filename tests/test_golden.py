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

from halfcyl.suite import PROFILES, SuiteConfig, run_suite

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden_corpus",
                                               ROOT / "scripts" / "golden_corpus.py")
golden_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_corpus)

EXITS = json.loads((golden_corpus.CORPUS_DIR / "exits.json").read_text())


def test_corpus_lists_every_entry():
    assert sorted(EXITS) == sorted(golden_corpus.ENTRIES)


@pytest.mark.parametrize("name", list(golden_corpus.ENTRIES))
def test_entry_matches_corpus(name):
    code, text = golden_corpus.render(name)
    want = (golden_corpus.CORPUS_DIR / f"{name}.json").read_text()
    assert text == want, "\n".join(golden_corpus.differences(want, text))
    assert code == EXITS[name]


@pytest.mark.parametrize("size", list(golden_corpus._SIZES))
@pytest.mark.parametrize("profile", PROFILES)
def test_run_suite_names_every_record_once(profile, size):
    # the corpus and its comparison key records by name
    names = [r.name for r in run_suite(SuiteConfig(profile=profile,
                                                   **golden_corpus._SIZES[size])).checks]
    assert len(set(names)) == len(names)


def test_record_changes_names_each_record_that_moved():
    def body(verdict, *records):
        return json.dumps({"verdict": verdict, "checks": [
            {"name": name, "anchor": anchor, "residual": residual}
            for name, anchor, residual in records]})

    want = body("pass", ("a[k=1]", "x", 0.0), ("b[k=1]", "y", 0.0), ("c", "z", 1e-3))
    got = body("fail", ("a[k=1]", "x2", 0.0), ("c", "z", 2e-3), ("d", "w", 0.0))
    assert golden_corpus.record_changes(want, got) == [
        "verdict: 'pass' != 'fail'", "moved anchor: a[k=1]", "removed: b[k=1]",
        "moved residual: c", "added: d"]
    assert golden_corpus.record_changes(want, want) == []
    assert golden_corpus.record_changes("", "table\n") == ["stdout changed"]
