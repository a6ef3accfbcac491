#!/usr/bin/env python3
"""Grid-refinement study of the half-line demo.

Prints the interior residual of [q, qp] - i q on the periodic log grid, in
units hbar = 1, for a sequence of refinements, together with the measured
convergence order, then the judged records of the demo.  The hermiticity
defect of the plain momentum operator, which the scaling generator qp
replaces, is printed in the note of the ``scaling_hermitean`` line.
"""

import math

from halfcyl.projection import (HALFLINE_BOX, HALFLINE_POINTS,
                                halfline_commutator_residual, halfline_demo)
from halfcyl.report import CheckReport


def main():
    box = HALFLINE_BOX
    grids = [HALFLINE_POINTS * 2 ** i for i in range(5)]
    residuals = [halfline_commutator_residual(n) for n in grids]
    print(f"periodic log grid, box width {box}")
    print(f"{'n':>6} {'residual':>12} {'order':>7}")
    for i, (n, r) in enumerate(zip(grids, residuals)):
        order = "" if i == 0 else f"{math.log2(residuals[i - 1] / r):7.3f}"
        print(f"{n:6d} {r:12.4e} {order:>7}")

    rep = CheckReport(halfline_demo())
    print()
    for line in rep.summary_lines():
        print(line)
    print("verdict:", "pass" if rep.verdict else "fail")


if __name__ == "__main__":
    main()
