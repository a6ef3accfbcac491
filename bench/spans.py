"""Layer spans recorded from outside the package.

``Tracer.install`` replaces each public function or method named in
``TARGETS`` by a wrapper that records calls, total time and self time
(total minus the time covered by nested traced spans).  Every module
attribute of ``halfcyl`` that refers to the original object is replaced,
so re-exports such as ``suite.run_suite`` or ``cli.identification_report``
are traced too.  ``uninstall`` puts the originals back.  No file of the
package is touched.
"""

from __future__ import annotations

import importlib
import sys
import time

# layer name -> (module, attribute path).  Names follow the package's
# modules; the suite's private grid cells are traced under their public
# role (``suite.lie_cell`` is ``suite._lie_cell``).
TARGETS = {
    "cli.main": ("halfcyl.cli", "main"),
    "report.to_dict": ("halfcyl.report", "CheckReport.to_dict"),
    "suite.run_suite": ("halfcyl.suite", "run_suite"),
    "suite.lie_cell": ("halfcyl.suite", "_lie_cell"),
    "suite.classical_cell": ("halfcyl.suite", "_classical_cell"),
    "suite.rep_cell": ("halfcyl.suite", "_rep_cell"),
    "suite.theta_cell": ("halfcyl.suite", "_theta_cell"),
    "projection.halfline_demo": ("halfcyl.projection", "halfline_demo"),
    "lie.witt_closure": ("halfcyl.lie", "witt_closure"),
    "lie.witt_bracket": ("halfcyl.lie", "witt_bracket"),
    "classical.transport": ("halfcyl.classical", "transport"),
    "classical.act_lifted": ("halfcyl.classical", "act_lifted"),
    "classical.check_symplectic": ("halfcyl.classical", "check_symplectic"),
    "classical.poisson_bracket": ("halfcyl.classical", "poisson_bracket"),
    "rep.build_generators": ("halfcyl.rep", "build_generators"),
    "rep.exp_generator": ("halfcyl.rep", "exp_generator"),
    "rep.interior_residual": ("halfcyl.rep", "interior_residual"),
    "rep.matmul": ("halfcyl.rep", "TruncatedOperator.__matmul__"),
    "projection.project": ("halfcyl.projection", "ProjectedSpace.project"),
    "equivalence.phase_operator": ("halfcyl.equivalence", "phase_operator"),
    "equivalence.sincos_operators": ("halfcyl.equivalence", "sincos_operators"),
    "equivalence.conjugate_realizations": ("halfcyl.equivalence",
                                           "conjugate_realizations"),
    "equivalence.identification_report": ("halfcyl.equivalence",
                                          "identification_report"),
    "projection.isometry_report": ("halfcyl.projection", "isometry_report"),
}

# Per-layer metrics reported by a traced run: (layer, field, unit).
LAYER_FIELDS = [
    ("cli.main", "self_s", "s"),
    ("report.to_dict", "total_s", "s"),
    ("suite.run_suite", "total_s", "s"),
    *[(cell, f, "s") for cell in ("suite.lie_cell", "suite.classical_cell",
                                  "suite.rep_cell", "suite.theta_cell",
                                  "projection.halfline_demo")
      for f in ("total_s", "self_s")],
    *[(name, f, u) for name in ("lie.witt_closure", "lie.witt_bracket",
                                "classical.transport", "classical.act_lifted",
                                "classical.check_symplectic",
                                "classical.poisson_bracket",
                                "rep.build_generators", "rep.exp_generator",
                                "rep.interior_residual")
      for f, u in (("calls", "count"), ("total_s", "s"))],
    ("rep.matmul", "calls", "count"),
    ("rep.matmul", "total_s", "s"),
    ("rep.matmul", "computed_flops", "flop"),
    ("rep.matmul", "computed_bytes", "byte"),
    ("projection.project", "calls", "count"),
    ("projection.project", "total_s", "s"),
    ("projection.project", "computed_flops", "flop"),
    ("equivalence.phase_operator", "calls", "count"),
    ("equivalence.phase_operator", "total_s", "s"),
    *[(name, "total_s", "s") for name in ("equivalence.sincos_operators",
                                          "equivalence.conjugate_realizations",
                                          "equivalence.identification_report",
                                          "projection.isometry_report")],
]

IMPORT_FIELDS = [("import.halfcyl_s", "halfcyl"), ("import.numpy_s", "numpy"),
                 ("import.scipy_s", "scipy")]

def _matmul_work(args):
    """Computed flops and bytes of a dense complex product a @ b."""
    a, b = args[0].matrix, args[1].matrix
    n, k = a.shape
    m = b.shape[1]
    return 8.0 * n * k * m, 16.0 * (n * k + k * m + n * m)


def _project_work(args):
    """Computed flops of pi @ O @ iota (complex multiply-adds)."""
    ps, op = args
    d, big = ps.dim, op.matrix.shape[0]
    return 8.0 * (d * big * big + d * big * d), 0.0


WORK = {"rep.matmul": _matmul_work, "projection.project": _project_work}


def empty_stats():
    return {"calls": 0, "total_s": 0.0, "self_s": 0.0,
            "computed_flops": 0.0, "computed_bytes": 0.0}


class Tracer:
    """Span recorder; ``stats`` maps a layer name to its accumulated fields."""

    def __init__(self):
        self.stats = {name: empty_stats() for name in TARGETS}
        self._stack = []      # [start, child_time] of the open spans
        self._depth = {name: 0 for name in TARGETS}
        self._patched = []    # (owner, attribute, original)

    def _wrap(self, name, fn):
        st, stack, depth, work = self.stats[name], self._stack, self._depth, WORK.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            st["calls"] += 1
            if work is not None:
                flops, nbytes = work(args)
                st["computed_flops"] += flops
                st["computed_bytes"] += nbytes
            depth[name] += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                depth[name] -= 1
                st["self_s"] += elapsed - frame[1]
                if depth[name] == 0:
                    st["total_s"] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for modname, _ in TARGETS.values():
            importlib.import_module(modname)
        modules = [m for key, m in sys.modules.items()
                   if key == "halfcyl" or key.startswith("halfcyl.")]
        for name, (modname, path) in TARGETS.items():
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def merge_stats(into, other):
    """Add the fields of ``other`` (a stats mapping) into ``into``."""
    for name, fields in other.items():
        acc = into.setdefault(name, empty_stats())
        for key, value in fields.items():
            acc[key] += value
    return into


def layer_metrics(stats, n_ops):
    """Per-operation means of the LAYER_FIELDS, as metric entries."""
    out = {}
    for name, fieldname, unit in LAYER_FIELDS:
        value = stats.get(name, empty_stats())[fieldname]
        out[f"{name}.{fieldname}"] = {"value": value / max(n_ops, 1), "unit": unit}
    return out


def parse_importtime(text):
    """Cumulative seconds of the outermost import of each package.

    ``text`` is the stderr of ``python -X importtime``.  An entry's parent
    is the first later entry of smaller indentation; the packages'
    outermost entries (no ancestor of the same package) are summed.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue
        level = len(name) - len(name.lstrip(" "))
        entries.append((level, int(cum) * 1e-6, name.strip()))
    parent = []
    for i, (level, _, _) in enumerate(entries):
        parent.append(next((j for j in range(i + 1, len(entries))
                            if entries[j][0] < level), None))
    out = {}
    for metric, package in IMPORT_FIELDS:
        def ours(n):
            return n == package or n.startswith(package + ".")
        total = 0.0
        for i, (_, cum, name) in enumerate(entries):
            if not ours(name):
                continue
            j = parent[i]
            while j is not None and not ours(entries[j][2]):
                j = parent[j]
            if j is None:
                total += cum
        out[metric] = total
    return out
