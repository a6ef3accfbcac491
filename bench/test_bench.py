"""Self-tests of the benchmark: tiny end-to-end runs and oracle rejections.

    python -m pytest -q bench/test_bench.py

Each workload runs at a tiny size through the real entry point, and each
oracle is shown to reject a deliberately corrupted output.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, workloads.SRC)


def _run_bench(workload, trace=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=workloads.ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_is_correct(workload):
    res = _run_bench(workload)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert set(res["metrics"]) == {"setup_s", "op_s", "items_per_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    if workload == "algebra-batch":
        # the pinned reproduction of the _ExactSpan fault fails in every round
        assert 0 < res["failed"] < res["attempted"]
    else:
        assert res["failed"] == 0


def test_traced_run_reports_every_layer_metric():
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    res = _run_bench("algebra-batch", trace=1)
    assert set(res["metrics"]) == names
    assert res["metrics"]["lie.witt_closure.calls"]["value"] > 0


def test_no_package_no_result(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-cold",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- oracle rejections ------------------------------------------------------

def _report(records, verdict="pass"):
    return {"checks": records, "verdict": verdict, "header": {}}


GOOD = {"name": "r", "anchor": "a", "residual": 1e-13, "tol": 1e-12, "pass": True}


def test_judge_accepts_consistent_report():
    info = {"name": "m", "anchor": "a", "residual": 0.1, "tol": float("inf"),
            "pass": True, "reported_only": True}
    assert oracles.judge_report(_report([GOOD, info])) == []


def test_judge_rejects_pass_contradicting_residual():
    bad = dict(GOOD, residual=1e-6)
    assert oracles.judge_report(_report([bad]))


def test_judge_rejects_verdict_that_is_not_the_conjunction():
    failing = dict(GOOD, residual=1e-6, **{"pass": False})
    assert oracles.judge_report(_report([failing], verdict="pass"), expect_pass=False)


def test_strict_json_rejects_nan_and_leading_output():
    text = json.dumps(_report([dict(GOOD, residual=float("nan"))]))
    doc, probs = oracles.parse_strict(text)
    assert not probs and oracles.nonfinite_problems(doc)
    _, probs = oracles.parse_strict(" ** On entry to DLASCL parameter number  4\n"
                                    + json.dumps(_report([GOOD])))
    assert probs


def test_strict_json_rejects_infinity_outside_reported_tolerance():
    doc, _ = oracles.parse_strict(json.dumps(_report([dict(GOOD, tol=float("inf"))])))
    assert oracles.nonfinite_problems(doc)
    assert oracles.strict_dumps_problems({"checks": [dict(GOOD, residual=float("inf"))]})


def test_report_body_comparison_ignores_only_the_header():
    a = json.dumps(dict(_report([GOOD]), header={"generated_at": "t1"}), indent=2,
                   sort_keys=True)
    b = a.replace("t1", "t2")
    assert oracles.same_body_problems(b, a) == []
    assert oracles.same_body_problems(b.replace("1e-13", "2e-13"), a)


def test_spectrum_oracle_rejects_shifted_spectrum():
    k, n = 0.75, 8
    good = {"spectrum": [k + j for j in range(n + 1)]}
    assert oracles.spectrum_problems(good, k, n) == []
    shifted = {"spectrum": [k + j + 1e-9 for j in range(n + 1)]}
    assert oracles.spectrum_problems(shifted, k, n)


def test_closure_oracle_rejects_wrong_dimension():
    gens = [{-2: 1}, {0: 1}, {2: 1}]
    assert oracles.closure_problems((True, 3, gens, None), gens, True, 3) == []
    extra = gens + [{4: 1}]
    assert oracles.closure_problems((True, 4, extra, None), gens, True, 3)
    # a basis of the right size that is not closed under the own bracket
    wrong = [{-2: 1}, {0: 1}, {2: 1, 4: Fraction(1, 2)}]
    assert oracles.closure_problems((True, 3, wrong, None), wrong, True, 3)


def test_closure_oracle_parses_printed_basis():
    text = "WittElement[(-4)*L(-4) + (2/3)*L(0) + ((1+0j))*L(4)]"
    assert oracles.parse_basis_element(text) == {-4: -4, 0: Fraction(2, 3), 4: 1}


def test_orbit_oracle_rejects_wrong_element():
    src, dst, l = (0.25, 1.0), (3.0, 0.5), 2
    import halfcyl.classical as cl

    g = cl.transport(cl.PhasePoint(*src), cl.PhasePoint(*dst), l)
    doc = {"l": l, "gamma": [g.gamma.real, g.gamma.imag], "omega": g.omega}
    assert oracles.orbit_problems(doc, l, src, dst) == []
    doc["omega"] += 1e-6
    assert oracles.orbit_problems(doc, l, src, dst)


def test_poisson_oracle_rejects_wrong_bracket():
    # {p cos phi, p sin phi} = p (f' g - f g') = -p
    f_ab, g_ab = {1: (1, 0)}, {1: (0, 1)}
    pts = [(0.3, 1.5), (2.0, 0.7)]
    assert oracles.poisson_problems({0: -1}, f_ab, g_ab, pts) == []
    assert oracles.poisson_problems({0: 1}, f_ab, g_ab, pts)


def test_fock_oracle_rejects_perturbed_ladder():
    from halfcyl.rep import RepConfig, build_generators

    gs = build_generators("fock", RepConfig(k=0.5, N=12))
    args = (gs.H.matrix, gs.Tplus.matrix, gs.Tminus.matrix, 0.5, 12)
    assert oracles.fock_problems(*args) == []
    up = gs.Tplus.matrix.copy()
    up[3, 2] *= 1 + 1e-9
    assert oracles.fock_problems(gs.H.matrix, up, gs.Tminus.matrix, 0.5, 12)


def test_algebra_checks_reject_corrupted_outputs(tmp_path):
    wl = workloads.AlgebraBatch(3, "tiny", str(tmp_path))
    outputs = wl.op()
    base = wl.check(outputs)[1]
    corrupted = set()
    for i, (fam, payload, want) in enumerate(wl.items):
        got = outputs[i]
        if fam == "exact_tower":
            outputs[i] = type(got)(True, got.basis + got.basis[:1], None)
        elif fam == "transport":
            g, y = got
            outputs[i] = (g, type(y)(y.phi + 1e-6, y.p))
        elif fam == "symplectic":
            outputs[i] = 0.0   # an audit that always reports a perfect map
        elif fam.startswith("panel_") and not wl._check_item(fam, payload, want, got):
            # a wrong answer of another shape than the named fault's
            outputs[i] = type(got)(True, got.basis[:-1], None)
        elif fam.startswith("panel_"):
            # the fault's shape, but the extra element leaves the true span
            outputs[i] = type(got)(True, got.basis + (wl.lie.L(97),), None)
        else:
            continue
        corrupted.add(fam)
        assert wl._check_item(fam, payload, want, outputs[i]), fam
    units, failed, probs, unexpected = wl.check(outputs)
    assert corrupted == {"exact_tower", "transport", "symplectic", "panel_tower",
                         "panel_pair"}
    # every corrupted call fails, none of them as the named fault, and the
    # calls the fault had failed before are among them
    n_corrupted = sum(fam in corrupted for fam, _, _ in wl.items)
    assert base > 0
    assert failed == unexpected == n_corrupted
