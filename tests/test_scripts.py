"""Smoke test of the scripts under scripts/: each runs to completion in a
child interpreter that imports halfcyl from this checkout's src."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_halfline_convergence_prints_a_passing_verdict():
    proc = _run_script("halfline_convergence.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "verdict: pass"
    # the refinement table falls at second order, and its first residual is
    # the demo's own (commutator_order's note), both in units hbar = 1
    table = [line.split() for line in lines[2:7]]
    assert [int(row[0]) for row in table] == [64, 128, 256, 512, 1024]
    assert all(abs(float(row[2]) - 2.0) < 0.2 for row in table[1:])
    assert any(f"residuals {float(table[0][1]):.3e} -> " in line for line in lines)
    # the plain-momentum defect rides on the scaling_hermitean line
    assert any("scaling_hermitean" in line and "|p* - p|" in line for line in lines)


def test_orbit_demo_runs():
    proc = _run_script("orbit_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 1 + 3 * 6  # header, 3 l x 6 pairs


def test_percall_prints_every_row():
    proc = _run_script("percall.py", "--repeats", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [r[0] for r in rows[:5]] == ["act_lifted", "compose", "transport",
                                        "check_symplectic", "poisson_bracket"]
    assert {r[0] for r in rows[5:]} == {f"witt_closure[{fam}]" for fam in (
        "exact_tower", "exact_pair", "exact_divergent", "panel_tower", "panel_pair",
        "float_tower", "float_pair", "float_divergent")}
    assert all(int(r[1]) > 0 and float(r[2]) > 0 for r in rows)
    # a round acts three times per group law and once per transport
    assert int(rows[0][1]) == 3 * int(rows[1][1]) + int(rows[2][1])
    # ms per round is calls x ns per call, and the shares add up to the
    # whole, to the rounding of the printed columns
    assert proc.stdout.splitlines()[0].split()[3:] == ["ms/round", "share"]
    assert all(abs(float(r[3]) - int(r[1]) * float(r[2]) / 1e6) <= int(r[1]) * 5e-7 + 5e-4
               for r in rows)
    assert abs(sum(float(r[4].rstrip("%")) for r in rows) - 100) <= 0.05 * len(rows)
