import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import halfcyl
from halfcyl import classical, suite
from halfcyl.cli import emit_spectrum, main, parse_generators, parse_witt_expression
from halfcyl.equivalence import identification_report, sincos_operators
from halfcyl.lie import L, WittElement
from halfcyl.projection import halfline_demo
from halfcyl.report import CheckRecord, CheckReport, judge
from halfcyl.rep import RepConfig, build_generators
from halfcyl.suite import ConfigError, SuiteConfig, run_suite


# ---------------------------------------------------------------------------
# report machinery
# ---------------------------------------------------------------------------

def test_verdict_logic():
    rep = CheckReport([CheckRecord("a", "x = y", 1e-12, 1e-9)])
    assert rep.verdict
    rep.checks.append(CheckRecord("b", "x = z", 1.0, 1e-9))
    assert not rep.verdict
    assert [r.name for r in rep.failures()] == ["b"]


def test_report_schema():
    rep = CheckReport([CheckRecord("a", "x = y", 0.0, 1e-9)])
    doc = rep.to_dict(config_echo={"N": 8}, header={"generated_at": "t"})
    assert doc["version"] == "1"
    assert doc["config_echo"] == {"N": 8}
    assert doc["verdict"] == "pass"
    assert doc["checks"][0] == {"name": "a", "anchor": "x = y",
                                "residual": 0.0, "tol": 1e-9, "pass": True}


# ---------------------------------------------------------------------------
# suite config
# ---------------------------------------------------------------------------

def test_config_defaults_valid():
    cfg = SuiteConfig()
    assert cfg.profile == "physical"


@pytest.mark.parametrize("kwargs", [
    {"k_values": (math.inf,)}, {"k_values": (math.nan,)},
    {"theta_values": (math.nan,)}, {"hbar": math.inf}, {"hbar": math.nan},
    {"theta_values": (math.inf,)}, {"hbar": -math.inf},
    {"hbar": 10 ** 400},
])
def test_config_rejects_non_finite(kwargs):
    with pytest.raises(ConfigError, match="finite"):
        SuiteConfig(**kwargs)


@pytest.mark.parametrize("raw", [{"N": 5.5}, {"M": "48"}, {"k_values": 3},
                                 {"theta_values": "1"}, {"N": True},
                                 {"hbar": "1"}, {"k_values": ["0.5"]},
                                 {"theta_values": [True]}, {"seed": True},
                                 {"seed": -5}])
def test_config_rejects_wrong_types(raw):
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict(raw)


def test_config_stores_the_validated_numbers():
    cfg = SuiteConfig.from_dict({"hbar": 2, "k_values": [1]})
    assert type(cfg.hbar) is float and type(cfg.k_values[0]) is float


def test_config_rejects_tolerances_as_unknown_key():
    # every record is judged at its pinned tolerance; no config can loosen one
    with pytest.raises(ConfigError, match="tolerances"):
        SuiteConfig.from_dict({"tolerances": {"ladder": 1.0}})


@pytest.mark.parametrize("raw", [{"k_values": []}, {"k_values": [5.0]},
                                 {"theta_values": []},
                                 {"theta_values": [], "profile": "full"}])
def test_config_rejects_empty_grid(raw):
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict(raw)


def test_config_takes_one_window_rule_for_both_profiles():
    # the identification builds its own window, so M bounds no cutoff
    for profile in ("physical", "full"):
        SuiteConfig(N=16, M=8, profile=profile)
        with pytest.raises(ConfigError, match="M must be an integer >= 8, got 7"):
            SuiteConfig(N=16, M=7, profile=profile)


def test_identification_records_do_not_depend_on_the_window():
    def identification(M):
        return [r for r in run_suite(SuiteConfig(M=M, profile="full")).to_dict()["checks"]
                if r["name"].startswith(("spectra_match[", "diagram_commutes["))]

    small = identification(8)
    assert len(small) == 2 * 3 * 3  # two records, three theta, three m_min
    assert small == identification(48)


@pytest.mark.parametrize("k,smallest", [(1000.0, "167"), (9e307, "9.46538e+306"),
                                        (1.7e308, "inf")])
def test_config_rejects_a_grid_that_certifies_no_boost_column(k, smallest):
    # boost_adjoint_action would compare nothing at this k, so no run could pass
    want = f"N = 64 certifies no boost column at k = .* is {re.escape(smallest)}$"
    with pytest.raises(ConfigError, match=want):
        SuiteConfig(k_values=(k,), profile="full")


@pytest.mark.parametrize("profile,N", [("physical", 11), ("full", 13)])
def test_smallest_grid_that_certifies_every_boost_passes(profile, N):
    with pytest.raises(ConfigError, match=f"N = {N - 1} certifies no boost column"):
        SuiteConfig(N=N - 1, profile=profile)
    assert run_suite(SuiteConfig(N=N, profile=profile)).verdict


def test_judge_rejects_a_row_without_a_tolerance():
    with pytest.raises(TypeError):
        judge([("x", "a", None, lambda: 0.0)])
    # pass is derived from the residual and tol, never stored beside them
    assert "passed" not in {f.name for f in fields(CheckRecord)}
    assert CheckRecord("a", "x = y", 0.0, 1e-9).to_dict()["tol"] == 1e-9


@pytest.mark.parametrize("profile", ["physical", "full"])
def test_every_record_has_a_pinned_finite_tolerance(profile):
    for rec in run_suite(SuiteConfig(profile=profile)).to_dict()["checks"]:
        assert type(rec["tol"]) is float and math.isfinite(rec["tol"]), rec
        assert "reported_only" not in rec, rec


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="k must be positive"):
        SuiteConfig(k_values=(-1.0,))
    with pytest.raises(ConfigError):
        SuiteConfig(theta_values=(1.5,))
    with pytest.raises(ConfigError):
        SuiteConfig(profile="strict")
    with pytest.raises(ConfigError):
        SuiteConfig(N=2)
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict({"unexpected": 1})
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict([1, 2])


@pytest.mark.parametrize("raw, message", [
    ({"k_values": [0.5, 0.5]}, "k values 0.5 and 0.5 share the cell label k=0.5"),
    ({"k_values": [0.1234567, 0.12345678]},
     "k values 0.1234567 and 0.12345678 share the cell label k=0.123457"),
    ({"theta_values": [0.25, 0.2500001]},
     "theta values 0.25 and 0.2500001 share the cell label theta=0.25")])
def test_config_rejects_values_that_share_a_cell_label(raw, message, tmp_path, capsys):
    # the label names the cell's records, so two such cells would write
    # records of the same name
    with pytest.raises(ConfigError) as exc:
        SuiteConfig.from_dict(raw)
    assert str(exc.value) == message
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["verify", "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_physical_profile_filters_k():
    cfg = SuiteConfig(k_values=(0.25, 1.0, 2.5), profile="physical")
    assert cfg.active_k_values == (0.25, 1.0)
    cfg = SuiteConfig(k_values=(0.25, 1.0, 2.5), profile="full")
    assert cfg.active_k_values == (0.25, 1.0, 2.5)


def test_suite_passes_small_grid():
    cfg = SuiteConfig(k_values=(0.5, 1.0), theta_values=(0.25,), N=32, M=24)
    rep = run_suite(cfg)
    assert rep.verdict, [(r.name, r.residual, r.tol) for r in rep.failures()]


def test_suite_deterministic_given_seed():
    cfg = SuiteConfig(k_values=(0.5,), theta_values=(1.0,), N=16, M=16, seed=5)
    doc1 = run_suite(cfg).to_dict(config_echo=cfg.echo())
    doc2 = run_suite(cfg).to_dict(config_echo=cfg.echo())
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)


def _fail_first_ladder_residual(monkeypatch):
    """Make the first interior residual of a run, one of ladder_algebra's
    three, 1e-6: above the record's pinned 1e-7."""
    real = suite.interior_residual
    calls = []

    def noisy(*args, **kwargs):
        calls.append(1)
        return 1e-6 if len(calls) == 1 else real(*args, **kwargs)

    monkeypatch.setattr(suite, "interior_residual", noisy)


def test_tightened_tolerance_fails_with_named_checks(monkeypatch):
    _fail_first_ladder_residual(monkeypatch)
    cfg = SuiteConfig(k_values=(0.25,), theta_values=(1.0,), N=16, M=16)
    rep = run_suite(cfg)
    assert not rep.verdict
    assert any(r.name.startswith("ladder_algebra") for r in rep.failures())


def test_emit_spectrum_formats():
    table = emit_spectrum(1.0, 5)
    assert [float(line.split()[1]) for line in table.splitlines()] == [1, 2, 3, 4, 5, 6]
    doc = json.loads(emit_spectrum(0.25, 3, fmt="json"))
    assert doc["spectrum"] == [0.25, 1.25, 2.25, 3.25]
    with pytest.raises(ConfigError):
        emit_spectrum(-1.0, 3)
    with pytest.raises(ConfigError):
        emit_spectrum(1.0, 3, fmt="yaml")


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_emit_spectrum_rejects_overflowing_levels(fmt):
    with pytest.raises(ConfigError, match="overflow"):
        emit_spectrum(1e308, 5, 10.0, fmt)
    assert main(["spectrum", "--k", "1e308", "--n", "5", "--hbar", "10",
                 "--format", fmt]) == 2


# ---------------------------------------------------------------------------
# judged rows and module sub-reports
# ---------------------------------------------------------------------------

def test_judge_only_renames_module_records():
    # a module checker's label renames its records and changes nothing else
    gs = build_generators("fock", RepConfig(k=1.0, N=16))
    for plain, labeled in ((sincos_operators(gs), sincos_operators(gs, "k=1")),
                           (halfline_demo(), halfline_demo(label="k=1"))):
        assert [r.name for r in labeled] == [r.name + "[k=1]" for r in plain]
        assert [replace(r, name=p.name) for r, p in zip(labeled, plain)] == plain


def test_judge_names_aggregates_and_judges_rows():
    a, b, c, d = judge([("a", "x = y", 1e-9, lambda: 1e-12),
                        ("b", "x = z", 1e-9, lambda: (1e-12, 1e-6), "note"),
                        ("c", "empty = 0", 0.0, lambda: iter(())),
                        ("d", "nan wins", 1.0, lambda: [0.5, math.nan, 0.25])], "k=2")
    assert a == CheckRecord("a[k=2]", "x = y", 1e-12, 1e-9) and a.passed
    assert b == CheckRecord("b[k=2]", "x = z", 1e-6, 1e-9, note="note") and not b.passed
    assert math.isnan(c.residual) and not c.passed  # it compared nothing
    assert math.isnan(d.residual) and not d.passed


def test_judge_turns_a_raising_residual_into_its_failed_record():
    def boom():
        raise ZeroDivisionError("injected")

    def out_of_memory():
        raise MemoryError("too big")

    a, b = judge([("a", "x = y", 1e-9, boom, "old note"),
                  ("b", "x = z", 1e-9, lambda: 0.0)])
    assert a.name == "a" and a.tol == 1e-9 and not a.passed and math.isnan(a.residual)
    assert a.note == "ZeroDivisionError: injected"
    assert b.passed
    with pytest.raises(MemoryError):
        judge([("a", "x = y", 1e-9, out_of_memory)])


def _sin_hermitean(report):
    return next(r for r in report.checks if r.name == "sin_hermitean[k=0.5]")


def test_spliced_record_keeps_its_pinned_tolerance(monkeypatch):
    assert _sin_hermitean(run_suite(SuiteConfig())).tol == 1e-14

    real = suite.sincos_operators

    def noisy_sin(gs, label=None):
        return [CheckRecord(r.name, r.anchor, 1e-12, r.tol) if r.name.startswith("sin_hermitean[")
                else r for r in real(gs, label)]

    monkeypatch.setattr(suite, "sincos_operators", noisy_sin)
    report = run_suite(SuiteConfig())
    assert not report.verdict
    assert {r.name for r in report.failures()} == {
        f"sin_hermitean[k={k:g}]" for k in SuiteConfig().active_k_values}


# ---------------------------------------------------------------------------
# CLI expression parsing
# ---------------------------------------------------------------------------

def test_parse_witt_terms():
    assert parse_witt_expression("L-1") == L(-1)
    assert parse_witt_expression("L0 + 2*L2") == WittElement({0: 1, 2: 2})
    assert parse_witt_expression("1/2*L1 - L(3)") == WittElement({1: 0.5, 3: -1})
    assert parse_generators("L-1, L0, L1") == [L(-1), L(0), L(1)]
    with pytest.raises(ConfigError):
        parse_witt_expression("Q7")
    with pytest.raises(ConfigError):
        parse_generators("  ,  ")


# ---------------------------------------------------------------------------
# CLI subcommands through main()
# ---------------------------------------------------------------------------

def test_cli_spectrum(capsys):
    assert main(["spectrum", "--k", "1", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert [float(line.split()[1]) for line in out.strip().splitlines()] == [1, 2, 3, 4, 5, 6]


def test_cli_spectrum_json_roundtrip(capsys):
    assert main(["spectrum", "--k", "0.25", "--n", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spectrum"][0] == 0.25


def test_cli_closure(capsys):
    assert main(["closure", "--generators", "L-2,L0,L2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["closed"] and doc["dimension"] == 3

    assert main(["closure", "--generators", "L1,L2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert not doc["closed"] and doc["witness_mode"] == 3


def test_cli_closure_exact_recombination(capsys):
    gens = "2/3*L0 + 2*L4, -4*L-4 - L0 + 3*L4, 2*L-4 - L0 - L4"
    assert main(["closure", "--generators", gens]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["closed"] is True and doc["dimension"] == 3
    for text in doc["basis"]:
        terms = re.findall(r"\(([^()]*)\)\*L\((-?\d+)\)", text)
        assert terms and {int(m) for _, m in terms} <= {-4, 0, 4}
        for coef, _ in terms:
            Fraction(coef)  # exact rationals print as p/q, never as floats


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run_python(*args):
    """Run a child interpreter that imports halfcyl from this checkout's src."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def _run_cli(*args, config=None, tmp_path=None):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(config)
        args = args + ("--config", str(path))
    return _run_python("-m", "halfcyl.cli", *args)


def _assert_usage_error(proc):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert proc.stdout == ""


def test_cli_equiv_rejects_small_cutoff():
    _assert_usage_error(_run_cli("equiv", "--theta", "0.5", "--mmin", "4", "--n", "3"))


def test_cli_rejects_abbreviated_options():
    # --m is no option of equiv (and no prefix of --mmin), --prof none of verify
    for args in (("equiv", "--theta", "0.5", "--m", "20"), ("verify", "--prof", "full")):
        proc = _run_cli(*args)
        _assert_usage_error(proc)
        assert "unrecognized arguments" in proc.stderr


# the float spacing near m_min + N + 4 is above theta / 1024, so the spectra
# could not tell theta from 0; float(10**400) overflows
@pytest.mark.parametrize("mmin", [str(2 ** 52), str(10 ** 16), "1" + "0" * 400])
def test_cli_equiv_rejects_an_m_min_that_rounds_theta_away(mmin):
    proc = _run_cli("equiv", "--theta", "0.5", "--mmin", mmin)
    _assert_usage_error(proc)
    assert "cannot resolve theta" in proc.stderr


@pytest.mark.parametrize("args,config", [(("--seed", "-1"), None),
                                         ((), '{"seed": -5}')])
def test_cli_verify_rejects_negative_seed(args, config, tmp_path):
    _assert_usage_error(_run_cli("verify", *args, config=config, tmp_path=tmp_path))


def test_cli_verify_rejects_tolerances_key(tmp_path):
    config = '{"tolerances": {"ladder": 1e300, "casimir": 1e300, "group_law": 1e300}}'
    proc = _run_cli("verify", config=config, tmp_path=tmp_path)
    _assert_usage_error(proc)
    assert "tolerances" in proc.stderr


@pytest.mark.parametrize("args", [("closure", "--generators=--"),
                                  ("spectrum", "--k=--", "--n", "3"),
                                  ("orbit", "--from=--", "--to", "0,1")])
def test_cli_option_value_of_double_dash_is_a_usage_error(args):
    _assert_usage_error(_run_cli(*args))


def test_cli_orbit_rejects_nan_point():
    _assert_usage_error(_run_cli("orbit", "--from", "nan,1", "--to", "0,1"))


def test_cli_verify_rejects_window_too_small_for_full(tmp_path):
    _assert_usage_error(_run_cli("verify", "--profile", "full",
                                 config='{"N": 5, "M": 8}', tmp_path=tmp_path))


def test_cli_verify_rejects_string_number(tmp_path):
    _assert_usage_error(_run_cli("verify", config='{"hbar": "1"}', tmp_path=tmp_path))


# one input per subcommand that the library itself rejects with a ValueError
@pytest.mark.parametrize("args,config", [
    (("closure", "--generators", "L-1,L0,L1", "--mode-bound", "-1"), None),
    (("orbit", "--from", "0,1", "--to", "0,1e-300"), None),
    (("equiv", "--theta", "1.5"), None),
    (("spectrum", "--k", "-1", "--n", "3"), None),
    (("verify",), '{"N": 8}')])
def test_cli_library_value_error_is_a_usage_error(args, config, tmp_path):
    proc = _run_cli(*args, config=config, tmp_path=tmp_path)
    _assert_usage_error(proc)
    assert proc.stderr.startswith("error: ")


def test_cli_verify_rejects_infinite_k(tmp_path):
    _assert_usage_error(_run_cli("verify", config='{"k_values": [Infinity], "profile": "full"}',
                                 tmp_path=tmp_path))


@pytest.mark.parametrize("case", ["config_is_directory", "config_not_utf8",
                                  "out_is_directory"])
def test_cli_verify_file_errors_are_usage_errors(case, tmp_path):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"profile": "physical", "note": "caf\xe9"}')
    args = {"config_is_directory": ("--config", str(tmp_path)),
            "config_not_utf8": ("--config", str(latin1)),
            "out_is_directory": ("--out", str(tmp_path))}[case]
    _assert_usage_error(_run_cli("verify", *args))


def test_cli_verify_stdout_is_strict_json(tmp_path, capsys):
    def reject(token):
        raise ValueError(f"non-finite token {token} in report")

    cfg = {"k_values": [0.5, 1.5], "theta_values": [1.0], "N": 16, "M": 16,
           "profile": "full"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert all(type(c["tol"]) is float and "reported_only" not in c for c in doc["checks"])


def test_cli_orbit(capsys):
    assert main(["orbit", "--l", "2", "--from", "0.25,1.0", "--to", "3.0,0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["roundtrip_residual_phi"] < 1e-9
    assert doc["symplectic_residual"] < 1e-6


@pytest.mark.parametrize("l", [1000, 10 ** 4, 10 ** 5, 10 ** 6])
def test_cli_orbit_audits_a_correct_transport_at_large_l(l, capsys):
    # the default step (u l)^(1/3) / l balances the truncation error of the
    # e^{il phi} oscillation against rounding; a fixed 1e-5 gave 6.3e-6 at
    # l = 1000 and 6e-4 at l = 10^4, and 1e-5 / l gave 1.03e-6 at l = 10^5
    assert main(["orbit", "--l", str(l), "--from", "0,1", "--to", "1,2"]) == 0
    assert json.loads(capsys.readouterr().out)["symplectic_residual"] < 1e-7


def test_cli_orbit_audits_a_transport_near_the_moebius_pole(capsys):
    # |gamma| = 0.9998: the displacement varies on the scale
    # |1 + conj(gamma) e^{il phi}| / l, which the default step follows
    assert main(["orbit", "--l", "1", "--from", "0,1", "--to", "0,0.0001"]) == 0
    assert json.loads(capsys.readouterr().out)["symplectic_residual"] < 1e-9


def test_cli_orbit_rejects_bad_point(capsys):
    assert main(["orbit", "--from", "0.0,-1.0", "--to", "1.0,1.0"]) == 2


def test_cli_equiv(capsys):
    assert main(["equiv", "--theta", "0.25", "--mmin", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "pass"
    assert main(["equiv", "--theta", "1.25", "--mmin", "0"]) == 2


def test_cli_equiv_takes_any_mode_of_the_window(capsys):
    # the identification's window is m_min - 4 .. m_min + N + 4 at any m_min
    assert main(["equiv", "--theta", "0.5", "--mmin", "40"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "pass" and doc["meta"]["N"] == 32
    for mmin in ("-1", str(10 ** 20)):  # no mode, or a mode that rounds theta away
        assert main(["equiv", "--theta", "0.5", "--mmin", mmin]) == 2


def test_cli_verify_default_config(tmp_path, capsys):
    cfg = {"k_values": [0.5], "theta_values": [1.0], "N": 16, "M": 16}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out_path = tmp_path / "report.json"
    assert main(["verify", "--config", str(path), "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["verdict"] == "pass"
    assert doc["config_echo"]["N"] == 16
    assert {"name", "anchor", "residual", "tol", "pass"} <= set(doc["checks"][0])


def test_cli_verify_rejects_negative_k(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"k_values": [-1]}))
    assert main(["verify", "--config", str(path)]) == 2
    assert "k must be positive" in capsys.readouterr().err


def test_cli_verify_invalid_json(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert main(["verify", "--config", str(path)]) == 2


def test_cli_verify_missing_file(capsys):
    assert main(["verify", "--config", "/nonexistent/cfg.json"]) == 2


def test_cli_verify_tightened_tolerance_exits_one(tmp_path, capsys, monkeypatch):
    _fail_first_ladder_residual(monkeypatch)
    cfg = {"k_values": [0.25], "theta_values": [1.0], "N": 16, "M": 16}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "ladder_algebra" in err


def test_cli_verify_byte_identical_reports(tmp_path):
    cfg = {"k_values": [0.5], "theta_values": [1.0], "N": 16, "M": 16, "seed": 3}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["header"].pop("generated_at")  # timestamps live in the header only
        outs.append(json.dumps(doc, sort_keys=True))
    assert outs[0] == outs[1]


# how a consumer that compares report bodies as text (the benchmark's
# determinism oracle) strips the header: only a flat object matches
_HEADER_BLOCK = re.compile(r'\n  "header": \{[^{}]*\},?')


def test_report_header_is_a_flat_environment_and_bodies_stay_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"N": 16, "M": 16, "seed": 3}')
    texts = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        texts.append(out.read_text())
    header = json.loads(texts[0])["header"]
    assert header == {"generated_at": header["generated_at"],
                      "halfcyl": halfcyl.__version__, "numpy": np.__version__,
                      "python": "%d.%d.%d" % sys.version_info[:3],
                      "platform": sys.platform}
    assert all(isinstance(v, str) and not set(v) & set("{}") for v in header.values())
    bodies = [_HEADER_BLOCK.sub("", t) for t in texts]
    assert "generated_at" not in bodies[0] and '"header"' not in bodies[0]
    assert bodies[0] == bodies[1]


def test_cli_profile_override(tmp_path):
    cfg = {"k_values": [0.5, 2.5], "theta_values": [1.0], "N": 16, "M": 16}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "r.json"
    assert main(["verify", "--config", str(path), "--profile", "physical",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    names = " ".join(c["name"] for c in doc["checks"])
    assert "k=0.5" in names and "k=2.5" not in names


def test_cli_usage_error_exit_code():
    assert main(["no-such-command"]) == 2


def test_console_script_runs():
    proc = _run_python("-m", "halfcyl.cli", "spectrum", "--k", "1", "--n", "1")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].split()[1] == "1"


def test_cli_orbit_rejects_unrepresentable_momentum_ratio():
    proc = _run_cli("orbit", "--from", "0,1", "--to", "0,1e17")
    _assert_usage_error(proc)
    assert "momentum ratio" in proc.stderr


@pytest.mark.parametrize("l", [10 ** 7, 10 ** 12])
def test_cli_orbit_rejects_covering_index_beyond_the_audit(l):
    # the audit's rounding, about (u l)^(2/3), passes the 1e-6 gate on a
    # correct transport above l = 10^6 (1.9e-6 at l = 10^7), so such an l is
    # refused rather than reported as a failed check
    proc = _run_cli("orbit", "--l", str(l), "--from", "0,1", "--to", "1,2")
    _assert_usage_error(proc)
    assert "above 1000000" in proc.stderr


def test_cli_orbit_rejects_covering_index_before_the_audit_step():
    # at l = 10^20 the default step (u l)^(1/3) / l is about 2e-19, below the
    # float spacing at phi = 1; the bound on l is tested before the audit
    # runs, so the message is the bound's (the audit's own refusal of such a
    # step is tested in test_classical)
    proc = _run_cli("orbit", "--l", str(10 ** 20), "--from", "1,1", "--to", "1,2")
    _assert_usage_error(proc)
    assert "above 1000000" in proc.stderr


# spectrum's level list of 10**17 entries (about an exbibyte) exceeds any
# 64-bit address space, so the allocation fails at once and nothing is ever
# touched.  equiv and verify take no cutoff that large (floats there cannot
# resolve theta); their 10**12 entries (8 TB) exceed any host's memory,
# which the kernel's default overcommit heuristic refuses at once as well.
@pytest.mark.parametrize("args,config", [
    (("equiv", "--theta", "0.5", "--n", str(10 ** 12)), None),
    (("verify",), json.dumps({"N": 10 ** 12, "M": 10 ** 12})),
    (("spectrum", "--k", "1", "--n", str(10 ** 17)), None)])
def test_cli_unallocatable_size_is_a_usage_error(args, config, tmp_path):
    proc = _run_cli(*args, config=config, tmp_path=tmp_path)
    _assert_usage_error(proc)
    assert proc.stderr.startswith("error: out of memory: ")


def test_verify_refuses_an_unresolvable_theta_before_any_cell(monkeypatch, tmp_path,
                                                             capsys):
    # SuiteConfig applies identification_report's rule at N + 4 (the physical
    # profile's m_min is 0): the same one line and exit 2, and no cell runs
    def no_cell(*args):
        raise AssertionError("a grid cell ran")

    monkeypatch.setattr(suite, "_lie_cell", no_cell)
    with pytest.raises(ValueError) as exc:
        identification_report(1e-12, 0, 64)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"theta_values": [1e-12]}))
    assert main(["verify", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {exc.value}\n"


def test_suite_config_applies_the_theta_rule_at_the_largest_m_min():
    # floats in [2**42, 2**43) are 2**-10 = 1/1024 apart, which resolves
    # theta = 1 at the physical top mode N + 4 = 2**43 - 1; the full
    # profile's m_min = 3 moves the top to 2**43 + 2, where they are 2**-9 apart
    n = 2 ** 43 - 5
    SuiteConfig(k_values=(0.5,), theta_values=(1.0,), N=n)
    with pytest.raises(ConfigError, match="cannot resolve theta = 1.0"):
        SuiteConfig(k_values=(0.5,), theta_values=(1.0,), N=n, profile="full")


# at such a k the boost reach is far beyond N = 64 (or overflows to inf), so
# the config is refused with one line, and no overflow warning reaches stderr
@pytest.mark.parametrize("k", [9e307, 1.7e308])
def test_verify_at_overflowing_weight_reports_instead_of_raising(k, tmp_path):
    proc = _run_cli("verify", config=json.dumps({"k_values": [k], "profile": "full"}),
                    tmp_path=tmp_path)
    _assert_usage_error(proc)
    assert "certifies no boost column" in proc.stderr


def test_cli_equiv_builds_only_the_compared_block(tmp_path):
    # nothing of size m_min is built: the records at m_min = 10**12 equal
    # those at m_min = 1, and the echo names the identification alone
    def body(mmin):
        doc = json.loads(_run_cli("equiv", "--theta", "0.5", "--mmin", mmin,
                                  tmp_path=tmp_path).stdout)
        assert doc["meta"] == doc["config_echo"]
        assert sorted(doc["meta"]) == ["N", "k", "m_min", "theta"]
        return doc["verdict"], [(r["name"], r["residual"]) for r in doc["checks"]]

    big = body(str(10 ** 12))
    assert big == body("1") and big[0] == "pass"


# run in a fresh interpreter: cli.main(argv) with stdout discarded, then the
# assertion on sys.modules
_FOOTPRINT = """
import contextlib, io, sys
from halfcyl import cli
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    {check}
"""


def _footprint(commands, check):
    proc = _run_python("-c", _FOOTPRINT.format(commands=commands, check=check))
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_numpy_out():
    code = "import sys, halfcyl; assert 'numpy' not in sys.modules, 'numpy imported'"
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_scalar_subcommands_leave_numpy_out():
    _footprint([["spectrum", "--k", "0.7", "--n", "64", "--format", "json"],
                ["closure", "--generators", "L-3,L0,L3"],
                ["orbit", "--l", "2", "--from", "1.0,0.5", "--to", "2.0,3.0"]],
               "assert 'numpy' not in sys.modules, f'numpy imported by {argv}'")


def test_exact_so12_layer_and_scalar_audits_leave_numpy_out():
    code = """
import sys
from halfcyl import classical as cl, lie
a, b = lie.So12Element(1, 0.5, -2), lie.So12Element(0, 3, 0.25)
for target in ("sl2r", "su11"):
    lie.algebra_isomorphism(target, lie.so12_bracket(a, b))
lie.killing_form(a, b)
lie.vector_field_to_so12(2, lie.witt_T() + lie.witt_S(2))
cl.lightcone_equivariance_residual(cl.CoveringElement(0.3j, 0.4, 2), cl.PhasePoint(1.0, 2.0))
cl.auxiliary_symplectic_residual("affine_halfline", (0.4, 2.5), (1.7, -0.3))
cl.auxiliary_symplectic_residual("plane_punctured", (0.2 - 0.1j, 1.5 + 0.5j), (1 + 1j, 0.3 - 0.2j))
assert 'numpy' not in sys.modules, 'numpy imported'
"""
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_scipy_out(tmp_path):
    # a bare import loads no submodule, so a small verify loads them all
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"N": 16, "M": 16}')
    _footprint([["verify", "--config", str(cfg)]],
               "assert 'numpy' in sys.modules, 'verify ran without numpy'; "
               "assert 'scipy' not in sys.modules, 'scipy imported'")


def test_equiv_loads_only_the_matrix_modules():
    # the report header is made in cli, so equiv needs neither the suite nor
    # the classical layer that the suite imports
    _footprint([["equiv", "--theta", "0.5"]],
               "assert not {'halfcyl.suite', 'halfcyl.classical'} & set(sys.modules), "
               "'suite or classical imported'")


def test_verify_and_equiv_leave_numpy_random_out(tmp_path):
    # the suite draws from random.Random; numpy.random would bring secrets and
    # hashlib with it.  numpy 1.x loads numpy.random on import, so only what a
    # bare import numpy leaves out is asserted
    heavy = {"numpy.random", "secrets", "hashlib", "_hashlib"}
    proc = _run_python("-c", "import json, sys, numpy; print(json.dumps(list(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    absent = heavy - set(json.loads(proc.stdout))
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"profile": "full"}')
    _footprint([["verify"], ["verify", "--config", str(cfg)], ["equiv", "--theta", "0.5"]],
               f"assert not {absent!r} & set(sys.modules), f'{{argv}} loaded numpy.random'")


def test_non_finite_residual_serialises_as_failed_null():
    doc = CheckRecord("a", "x = y", math.nan, 1e-9).to_dict()
    assert doc["residual"] is None and doc["pass"] is False
    doc = CheckRecord("c", "x = y", math.inf, math.inf).to_dict()
    assert doc["residual"] is None and doc["pass"] is False
    assert not CheckRecord("b", "x = y", -math.inf, 1e-9).passed


def test_nan_residual_in_aggregate_fails_and_report_stays_strict(monkeypatch, tmp_path,
                                                                capsys):
    # a NaN from the second of the three ladder residuals: plain max() kept
    # the first value and dropped it
    real = suite.interior_residual
    calls = []

    def nan_on_second_call(*args, **kwargs):
        calls.append(1)
        return math.nan if len(calls) == 2 else real(*args, **kwargs)

    monkeypatch.setattr(suite, "interior_residual", nan_on_second_call)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"k_values": [0.5], "theta_values": [1.0],
                                "N": 16, "M": 16}))
    assert main(["verify", "--config", str(path)]) == 1

    def reject(token):
        raise ValueError(f"non-finite token {token} in report")

    doc = json.loads(capsys.readouterr().out, parse_constant=reject)
    rec = next(c for c in doc["checks"] if c["name"] == "ladder_algebra[k=0.5]")
    assert rec["residual"] is None and rec["pass"] is False
    assert doc["verdict"] == "fail"
    assert [c["name"] for c in doc["checks"] if not c["pass"]] == ["ladder_algebra[k=0.5]"]


@pytest.mark.parametrize("profile", ["physical", "full"])
def test_record_names_are_unique(profile):
    names = [r.name for r in run_suite(SuiteConfig(profile=profile)).checks]
    assert len(names) == len(set(names)) == {"physical": 136, "full": 200}[profile]


def test_suite_draws_pin_the_random_stream(monkeypatch):
    # the first Jacobi triple and the first classical-cell point at seed 0: a
    # Python whose random.Random stream differs fails here instead of
    # silently moving the residuals of the sampled records
    class Recording(random.Random):
        def randint(self, a, b):
            self.ints.append(value := super().randint(a, b))
            return value

    rng = Recording(0)
    rng.ints = []
    suite._lie_cell(rng)
    assert rng.ints[:12] == [1, 1, -4, 0, 3, 2, 2, 0, 2, 0, -1, 4]
    assert len(rng.ints) == 2400
    points, act_lifted = [], classical.act_lifted
    monkeypatch.setattr(classical, "act_lifted",
                        lambda g, x: points.append(x) or act_lifted(g, x))
    suite._classical_cell(rng)
    assert (points[0].phi, points[0].p) == pytest.approx(
        (2.4534993699965066, 0.14788652569247776), rel=1e-12)


@pytest.mark.parametrize("seed", [0, 3])
def test_jacobi_elements_have_two_terms_from_the_same_draws(seed):
    # the Jacobi record's 600 elements at the seed, each from the draws
    # mode j, mode k, coefficient a, coefficient b: a repeated mode moves up
    # by one (5 wraps to -5) and a zero coefficient reads 5
    class Recording(random.Random):
        def randint(self, a, b):
            self.calls.append((a, b, value := super().randint(a, b)))
            return value

    rng = Recording(seed)
    rng.calls = []
    elements = [suite._witt_sample(rng) for _ in range(600)]
    assert [c[:2] for c in rng.calls] == [(-5, 5), (-5, 5), (-4, 4), (-4, 4)] * 600
    draws = [[c[2] for c in rng.calls[i:i + 4]] for i in range(0, 2400, 4)]
    for x, (j, k, a, b) in zip(elements, draws):
        k = k if k != j else (j + 1 if j < 5 else -5)
        assert x.coeffs == {j: a or 5, k: b or 5}
    # the cell makes these calls and no other randint call
    cell = Recording(seed)
    cell.calls = []
    suite._lie_cell(cell)
    assert cell.calls == rng.calls


def test_full_suite_passes_at_large_cutoff():
    report = run_suite(SuiteConfig(N=512, M=512, profile="full"))
    failed = [r.name for r in report.checks if not r.passed]
    assert not failed and report.verdict


def test_full_suite_at_very_large_cutoff_holds_no_square_array():
    # one dense (N+1)^2 complex array alone would take 268 MB here
    tracemalloc.start()
    try:
        report = run_suite(SuiteConfig(N=4096, M=4096, profile="full"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    # the Casimir records cancel terms of size N^2 against an absolute pin:
    # double-precision rounding floors, which stay visible as failures
    assert {r.name.split("[")[0] for r in report.failures()} == {
        "casimir_value", "casimir_flat"}
    boosts = [r for r in report.checks if r.name.startswith("boost_")]
    assert len(boosts) == 10 and all(r.passed for r in boosts)


# ---------------------------------------------------------------------------
# fuzzed configs and command lines
# ---------------------------------------------------------------------------

_json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-200, 200),
                          st.floats(), st.text(max_size=6))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)
# a valid value or any JSON value for each known key, so that one wrong
# value often meets an otherwise valid config
_unit = st.floats(0.05, 1.0)
_config = st.fixed_dictionaries({}, optional={
    key: valid | _json_values for key, valid in {
        "k_values": st.lists(_unit, min_size=1, max_size=3),
        "theta_values": st.lists(_unit, min_size=1, max_size=3),
        "N": st.integers(4, 200), "M": st.integers(9, 200),
        "hbar": st.floats(0.1, 10.0),
        "seed": st.integers(0, 200), "profile": st.sampled_from(("physical", "full")),
    }.items()})


@settings(max_examples=300, deadline=None)
@given(_config)
def test_fuzzed_config_is_a_config_or_a_config_error(raw):
    try:
        cfg = SuiteConfig.from_dict(raw)
    except ConfigError:
        return
    numbers = (cfg.hbar, *cfg.k_values, *cfg.theta_values)
    assert all(type(x) is float for x in numbers)
    assert type(cfg.seed) is int and cfg.active_k_values and cfg.theta_values


_number = st.one_of(st.floats().map(repr), st.text(max_size=4))
_size = st.one_of(st.integers(-200, 200).map(str), st.text(max_size=3))
_point = st.one_of(st.builds("{},{}".format, _number, _number), st.text(max_size=6))
_term = st.builds("{}{}*L{}".format, st.sampled_from(("", "-", "+")),
                  st.from_regex(r"\A\d{1,2}(/\d{1,2})?\Z"), st.integers(-20, 20))
_generators = (st.lists(_term, min_size=1, max_size=3).map(", ".join)
               | st.text(alphabet="L0123456789-+*/(), ", max_size=16))
_argv = st.one_of(
    st.builds(lambda k, n, hbar, fmt: ["spectrum", f"--k={k}", f"--n={n}",
                                       f"--hbar={hbar}", f"--format={fmt}"],
              _number, _size, _number, st.sampled_from(("table", "json"))),
    st.builds(lambda gens, mb, db: ["closure", f"--generators={gens}",
                                    f"--mode-bound={mb}", f"--dim-bound={db}"],
              _generators, st.integers(-5, 20), st.integers(-5, 20)),
    st.builds(lambda l, a, b: ["orbit", f"--l={l}", f"--from={a}", f"--to={b}"],
              _size, _point, _point),
    st.builds(lambda theta, mmin, n: ["equiv", f"--theta={theta}", f"--mmin={mmin}",
                                      f"--n={n}"],
              _number, _size, _size))


@settings(max_examples=300, deadline=None)
@given(_argv)
def test_fuzzed_cli_exits_with_a_code_and_finite_output(argv):
    def reject(token):
        raise ValueError(f"non-finite token {token} in output")

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    text = out.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert text == ""
    elif argv[-1] == "--format=table":
        assert all(math.isfinite(float(line.split()[1])) for line in text.splitlines())
    else:
        json.loads(text, parse_constant=reject)
