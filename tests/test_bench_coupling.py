"""The package names that the benchmark under bench/ traces or calls.

bench/spans.py patches functions and methods by name, and
bench/workloads.py calls into the package directly.  Renaming or deleting
one of those names breaks a traced benchmark run, which no other test
exercises.
"""

import importlib
import importlib.util
import pathlib
import sys
from fractions import Fraction

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_on_every_target_and_uninstalls():
    from halfcyl import rep

    spans = _load_spans()
    tracer = spans.Tracer()
    original = rep.build_generators
    try:
        tracer.install()
        rep.build_generators("fock", rep.RepConfig(k=0.5, N=8))
        assert tracer.stats["rep.build_generators"]["calls"] == 1
        assert rep.build_generators is not original
    finally:
        tracer.uninstall()
    assert rep.build_generators is original
    assert not hasattr(rep.TruncatedOperator.__matmul__, "__wrapped__")


def test_workload_entry_points_exist():
    from halfcyl import classical, exact, rep, suite

    half = exact.QC(Fraction(1, 2), Fraction(-1, 2))
    poly = classical.TrigPoly({0: 1, 1: half, -1: half.conjugate()})
    assert poly.modes == {0: 1, 1: half, -1: half.conjugate()}
    bracket = classical.poisson_bracket(classical.lift_hamiltonian(poly),
                                        classical.lift_hamiltonian(classical.TrigPoly.sin(1)))
    assert isinstance(bracket.base.modes, dict)

    config = suite.SuiteConfig(N=16, M=16, profile="full", seed=1)
    assert config.active_k_values and callable(suite.run_suite)
    assert isinstance(config.echo(), dict)

    gs = rep.build_generators("fock", rep.RepConfig(k=0.5, N=12))
    for op in (gs.H, gs.Tplus, gs.Tminus):
        assert op.matrix.shape == (13, 13)


def _resolve(modname, path):
    owner = importlib.import_module(modname)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_traced_verify_sees_every_layer_through_deferred_imports(tmp_path, capsys):
    """The CLI imports the suite only when ``verify`` runs; the spans that
    bench/spans.py patches into the modules must still see it."""
    from halfcyl import cli

    spans = _load_spans()
    originals = {name: _resolve(*target) for name, target in spans.TARGETS.items()}
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"N": 16, "M": 16}')
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert cli.main(["verify", "--config", str(cfg)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    # the identities reach the kernel and the products through traced names
    for layer in ("cli.main", "suite.run_suite", "suite.rep_cell",
                  "rep.interior_residual", "rep.matmul"):
        assert tracer.stats[layer]["calls"] >= 1, layer
    assert {name: _resolve(*target) for name, target in spans.TARGETS.items()} == originals
    left = [f"{key}.{attr}" for key, mod in list(sys.modules.items())
            if key == "halfcyl" or key.startswith("halfcyl.")
            for attr, value in vars(mod).items()
            if getattr(value, "__module__", None) == spans.__name__]
    assert not left, left


def test_traced_algebra_round_sees_every_library_call(tmp_path, monkeypatch):
    """A fast path inside the package must still go through the names that
    bench/spans.py traces: one tiny ``algebra-batch`` round makes exactly
    these calls (the counts of the workload's tiny makeup at seed 0)."""
    monkeypatch.syspath_prepend(str(BENCH))
    added = [name for name in ("workloads", "oracles", "spans") if name not in sys.modules]
    tracer = _load_spans().Tracer()
    try:
        workload = importlib.import_module("workloads").AlgebraBatch(0, "tiny", str(tmp_path))
        tracer.install()
        outputs = workload.op(traced=True)
    finally:
        tracer.uninstall()
        for name in added:  # the bench's top-level modules leave with the test
            sys.modules.pop(name, None)
    calls = {name: tracer.stats[name]["calls"] for name in (
        "lie.witt_closure", "lie.witt_bracket", "classical.transport",
        "classical.act_lifted", "classical.check_symplectic", "classical.poisson_bracket")}
    assert calls == {"lie.witt_closure": 14, "lie.witt_bracket": 22, "classical.transport": 2,
                     "classical.act_lifted": 8, "classical.check_symplectic": 2,
                     "classical.poisson_bracket": 2}
    assert workload.check(outputs)[1] == 0
