"""Command-line front end for the verification suites.

Subcommands: verify (full check grid), spectrum, closure, orbit, equiv.
Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
config error (any ``ValueError`` the library raises on an input).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import classical as cl
from . import lie
from .equivalence import identification_report
from .projection import ProjectedSpace, ThetaSpace
from .report import CheckReport
from .suite import ConfigError, SuiteConfig, emit_spectrum, report_header, run_suite

EXIT_PASS, EXIT_FAIL, EXIT_USAGE = 0, 1, 2
# above this l the symplectic audit's rounding, about (u l)^(2/3) times
# (1 + |gamma|) / (1 - |gamma|), nears 1e-6 even at gamma = 0
ORBIT_MAX_L = 10 ** 6


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="halfcyl",
        description="verification suites for the half-cylinder quantizations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the full check grid")
    p.add_argument("--config", help="JSON config file (defaults used if absent)")
    p.add_argument("--profile", choices=("physical", "full"),
                   help="override the config profile")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("spectrum", help="print the momentum spectrum hbar(k+n)")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--n", type=int, required=True, help="largest level index")
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(run=_cmd_spectrum)

    p = sub.add_parser("closure", help="bracket-closure search for Witt spans")
    p.add_argument("--generators", required=True,
                   help="comma-separated combinations of modes, e.g. 'L-1,L0,L1'"
                        " or 'L0+2*L2, 1/2*L1'")
    p.add_argument("--mode-bound", type=int, default=lie.DEFAULT_MODE_BOUND)
    p.add_argument("--dim-bound", type=int, default=lie.DEFAULT_DIM_BOUND)
    p.set_defaults(run=_cmd_closure)

    p = sub.add_parser("orbit", help="transport witness between phase points")
    p.add_argument("--l", type=int, default=1, help="covering index")
    p.add_argument("--from", dest="src", required=True, metavar="PHI,P")
    p.add_argument("--to", dest="dst", required=True, metavar="PHI,P")
    p.set_defaults(run=_cmd_orbit)

    p = sub.add_parser("equiv", help="projected picture vs phase-operator picture")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--mmin", type=int, default=0)
    p.add_argument("--m", type=int, default=48, help="cylinder window half-width")
    p.add_argument("--n", type=int, default=32, help="weight-basis cutoff")
    p.set_defaults(run=_cmd_equiv)
    return parser


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?P<coef>\d+(?:/\d+)?)?\s*\*?\s*L\(?\s*(?P<mode>-?\d+)\s*\)?\s*")


def parse_witt_expression(text: str) -> lie.WittElement:
    """Parse one comma-free combination like 'L0 + 2*L2 - 1/2*L-1'."""
    pos = 0
    coeffs = {}
    seen = False
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m:
            raise ConfigError(f"cannot parse Witt term at: {text[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        try:
            coef = Fraction(m.group("coef") or 1)
        except ZeroDivisionError:
            raise ConfigError(f"zero denominator in Witt term {m.group(0).strip()!r}") from None
        mode = int(m.group("mode"))
        coeffs[mode] = coeffs.get(mode, Fraction(0)) + sign * coef
        pos = m.end()
        seen = True
    if not seen:
        raise ConfigError(f"empty Witt expression: {text!r}")
    return lie.WittElement(coeffs)


def parse_generators(text: str):
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ConfigError("no generators given")
    return [parse_witt_expression(p) for p in parts]


def _parse_point(text: str) -> cl.PhasePoint:
    try:
        phi_s, p_s = text.split(",")
        return cl.PhasePoint(float(phi_s), float(p_s))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"expected 'phi,p' with p > 0, got {text!r}: {exc}")


def _emit_report(report: CheckReport, config_echo, out_path=None) -> int:
    doc = report.to_dict(config_echo=config_echo, header=report_header())
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if not report.verdict:
        for rec in report.failures():
            note = f" -- {rec.note}" if rec.note else ""
            print(f"FAIL {rec.name}: residual {rec.residual:.3e} > tol {rec.tol:.1e}{note}",
                  file=sys.stderr)
        return EXIT_FAIL
    return EXIT_PASS


def _cmd_verify(args) -> int:
    raw = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ConfigError(f"config is not valid JSON: {exc}")
    if args.profile:
        raw["profile"] = args.profile
    if args.seed is not None:
        raw["seed"] = args.seed
    config = SuiteConfig.from_dict(raw)
    report = run_suite(config)
    return _emit_report(report, config.echo(), args.out)


def _cmd_spectrum(args) -> int:
    print(emit_spectrum(args.k, args.n, args.hbar, args.format))
    return EXIT_PASS


def _cmd_closure(args) -> int:
    gens = parse_generators(args.generators)
    res = lie.witt_closure(gens, mode_bound=args.mode_bound, dim_bound=args.dim_bound)
    doc = {"closed": res.closed, "dimension": res.dimension,
           "witness_mode": res.witness_mode,
           "basis": [repr(b) for b in res.basis] if res.basis else None}
    print(json.dumps(doc, indent=2))
    return EXIT_PASS


def _cmd_orbit(args) -> int:
    if args.l < 1:
        raise ConfigError("l must be a positive integer")
    a, b = _parse_point(args.src), _parse_point(args.dst)
    g = cl.transport(a, b, args.l)
    symp = cl.check_symplectic(g, a)
    if args.l > ORBIT_MAX_L:
        raise ConfigError(f"l = {args.l} is above {ORBIT_MAX_L}, the largest covering index at "
                          f"which the symplectic audit's rounding stays below its 1e-6 gate")
    y = cl.act_lifted(g, a)
    res_phi = cl.angle_gap(y.phi, b.phi)
    res_p = abs(y.p - b.p)
    doc = {
        "l": args.l,
        "gamma": [g.gamma.real, g.gamma.imag],
        "omega": g.omega,
        "roundtrip_residual_phi": res_phi,
        "roundtrip_residual_p": res_p,
        "symplectic_residual": symp,
    }
    print(json.dumps(doc, indent=2))
    ok = res_phi < 1e-9 and res_p < 1e-9 * max(1.0, b.p) and symp < 1e-6
    return EXIT_PASS if ok else EXIT_FAIL


def _cmd_equiv(args) -> int:
    ps = ProjectedSpace(ThetaSpace(args.theta, args.m), args.mmin)
    checks = identification_report(ps, N=args.n)
    echo = {"theta": args.theta, "m_min": args.mmin, "k": ps.k,
            "M": args.m, "N": args.n}
    # the meta names the cutoff as identification_report clamps it
    report = CheckReport(checks, meta={**echo, "N": min(args.n, ps.dim - 3)})
    return _emit_report(report, echo)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    # argparse reads an option value of exactly "--" (--k=--) as an empty list
    empty = [name for name, value in vars(args).items() if value == []]
    if empty:
        print(f"error: option {empty[0]!r} has no value", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.run(args)
    # ConfigError and every library ValueError name an invalid input; an
    # OSError is an unreadable config or an unwritable --out
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a size too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
