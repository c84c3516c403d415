"""Command-line interface.

Exit codes: 0 on success, 1 when a box fails validation or the
non-signaling check or ``optimize`` finds no feasible point, 2 on usage
errors including unreadable or malformed box files. A subcommand reports a
usage error by raising ``ValueError``; ``run`` prints its message as the
one stderr line. Tolerance errors take the same path: ``--tol`` is parsed
as a float and ``run`` checks it with ``check_tol`` before dispatch.

Each process runs one subcommand, so each ``_cmd_*`` imports the module it
calls and this module imports ``boxes`` only: ``chsh`` and ``validate``
load neither the search nor the optimizer.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .boxes import (
    DEFAULT_TOL,
    MAX_OPTIMIZE_N,
    MAX_XOR_COPIES,
    Correlators,
    InfeasibleRegionError,
    InvalidBoxError,
    SignalingBoxError,
    _chsh_csv,
    _correlators,
    chsh_values,
    is_non_signaling,
    load_box,
    nl_correlators,
    p_eps_delta,
    require_non_signaling,
    validate,
    CHSH_LABELS,
    check_tol,
)


def _parse_range(text: str) -> range:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError
            return range(lo, hi + 1)
        n = int(text)
        return range(n, n + 1)
    except ValueError:
        raise ValueError(f"bad range {text!r}; expected N or LO..HI")


def _cmd_validate(args) -> int:
    box = load_box(args.box)
    report = validate(box, args.tol)
    if not report.ok:
        print("invalid box:")
        print(report.describe())
        return 1
    check = is_non_signaling(box, args.tol)
    print(f"rows: valid probability distributions (tol {args.tol:g})")
    print(f"non-signaling: {'yes' if check.ok else 'NO'} (worst marginal discrepancy {check.residual:.3g})")
    return 0 if check.ok else 1


def _cmd_chsh(args) -> int:
    box = load_box(args.box)
    require_non_signaling(box, args.tol)
    c = _correlators(box)
    if args.format == "csv":
        sys.stdout.write(_chsh_csv(c))
        return 0
    vals = chsh_values(c)
    if args.format == "json":
        print(json.dumps({
            "correlators": list(c.as_tuple()),
            "chsh": dict(zip(CHSH_LABELS, vals)),
            "nl": nl_correlators(c),
        }))
        return 0
    print(f"correlators: x00={c.x00:.9g} x01={c.x01:.9g} x10={c.x10:.9g} x11={c.x11:.9g}")
    for label, val in zip(CHSH_LABELS, vals):
        print(f"{label:>12}: {val:.9g}")
    print(f"          NL: {nl_correlators(c):.9g}")
    return 0


def _cmd_quantum(args) -> int:
    from . import quantum

    if args.correlators is not None:
        if args.box is not None:
            raise ValueError("quantum takes a box file or --correlators, not both")
        parts = args.correlators.split(",")
        if len(parts) != 4:
            raise ValueError("--correlators needs four comma-separated values")
        try:
            c = Correlators(*(float(p) for p in parts))
            ok, slack = quantum.is_quantum_correlators(c, args.tol)
        except ValueError as exc:
            raise ValueError(f"bad correlator values {args.correlators!r}: {exc}")
        tsi = quantum.tsirelson_check(c, args.tol)
        flagged = False
    else:
        if args.box is None:
            raise ValueError("quantum needs a box file or --correlators")
        box = load_box(args.box)
        verdict = quantum.is_quantum_box(box, args.tol)
        ok, slack, flagged = verdict.quantum, verdict.slack, verdict.correlator_level_only
        tsi = quantum.tsirelson_check(_correlators(box), args.tol)
    if args.format == "json":
        print(json.dumps({
            "quantum": ok,
            "slack": slack,
            "tsirelson_ok": tsi,
            "correlator_level_only": flagged,
        }))
        return 0
    print(f"quantum realizable: {'yes' if ok else 'no'} (arcsin slack {slack:.6g})")
    print(f"within Tsirelson bound: {'yes' if tsi else 'no'}")
    if flagged:
        print("note: marginals are not uniform; verdict covers the correlators only")
    return 0


def _cmd_distill(args) -> int:
    from . import distill

    report = distill.distillation_report(args.eps, args.delta, _parse_range(args.n), args.tol)
    if args.format == "csv":
        sys.stdout.write(report.to_csv())
    elif args.format == "json":
        print(json.dumps(report.to_json_dict()))
    else:
        print(f"resource eps={args.eps:g} delta={args.delta:g} quantum={report.resource_quantum}")
        print(f"{'n':>3} {'nl_closed':>12} {'nl_brute':>12} distilled")
        for row in report.rows:
            print(f"{row.n:>3} {row.nl_closed:>12.9f} {row.nl_brute:>12.9f} {row.distilled}")
    return 0


def _cmd_optimize(args) -> int:
    from . import distill

    opt = distill.optimize_quantum_distillation(n_max=args.n_max, tol=args.tol)
    if args.format == "json":
        print(json.dumps(asdict(opt)))
        return 0
    print(f"NL_out {opt.nl_out:.6f}, n={opt.n}, eps={opt.eps:.5f}, delta={opt.delta:.5f}, NL_in {opt.nl_in:.6f}")
    return 0


def _cmd_search(args) -> int:
    from . import search

    result = search.search_2copy(load_box(args.box), tol=args.tol)
    if args.format == "table":
        print(f"NL_in  {result.nl_in:.9g}")
        print(f"NL_out {result.nl_out:.9g} ({'distilled' if result.distilled else 'no gain'})")
        print(f"strategies: {result.strategies_raw} raw, {result.strategies_deduped} after dedup")
        print(f"wall time: {result.wall_time_s * 1e3:.3g} ms")
        print(f"  kernel {result.kernel_s * 1e3:.3g} ms, scan {result.scan_s * 1e3:.3g} ms,"
              f" verify {result.verify_s * 1e3:.3g} ms")
        print(f"  scanned {result.alice_rows_scanned} Alice rows x {result.strategies_deduped} Bob classes"
              f" = {result.pairs_scanned} pairs")
    else:
        print(json.dumps(result.to_json_dict()))
    return 0


def _cmd_depolarize(args) -> int:
    from . import symmetry

    print(symmetry.depolarize(load_box(args.box), args.tol).to_json())
    return 0


def _cmd_game(args) -> int:
    from . import games

    if args.box is not None:
        if args.eps is not None or args.delta is not None:
            raise ValueError("game takes a box file or --eps/--delta, not both")
        resource = load_box(args.box)
    elif args.eps is not None:
        resource = p_eps_delta(args.eps, 0.0 if args.delta is None else args.delta)
    else:
        raise ValueError("game needs a box file or --eps")
    if not 1 <= args.m <= MAX_XOR_COPIES:
        raise ValueError(f"--m must be in 1..{MAX_XOR_COPIES}, got {args.m}")
    result = games.play_and_game(resource, args.m, args.tol)
    if args.format == "json":
        print(json.dumps(result.to_json_dict()))
        return 0
    print(f"resource NL: {result.resource_nl:.9g}, distillation depth m={result.m}")
    print(f"S of played box: {result.s_value:.9g}")
    print(f"win probability: {result.success:.9g}")
    print(f"classical optimum: {result.classical_baseline:.9g}")
    print(f"margin: {result.margin:+.9g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlboxes",
        description="Exact analysis of binary non-signaling boxes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, fmt=("table", "csv", "json")) -> None:
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="global numeric tolerance")
        p.add_argument("--format", choices=fmt, default=fmt[0])

    p = sub.add_parser("validate", help="check a box file for validity and non-signaling")
    p.add_argument("box")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("chsh", help="correlators, the eight CHSH values, and NL")
    p.add_argument("box")
    common(p)
    p.set_defaults(func=_cmd_chsh)

    p = sub.add_parser("quantum", help="quantum realizability of a box or correlator tuple")
    p.add_argument("box", nargs="?")
    p.add_argument("--correlators", help="four comma-separated correlators")
    common(p, fmt=("table", "json"))
    p.set_defaults(func=_cmd_quantum)

    p = sub.add_parser("distill", help="XOR-protocol distillation report over a range of n")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--n", required=True, help=f"copy count, N or LO..HI, within 1..{MAX_XOR_COPIES}")
    common(p)
    p.set_defaults(func=_cmd_distill)

    p = sub.add_parser("optimize", help="best quantum-realizable resource for the XOR protocol")
    p.add_argument("--n-max", type=int, default=20, help=f"largest n scanned, 2..{MAX_OPTIMIZE_N}")
    common(p, fmt=("table", "json"))
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("search", help="exhaustive two-copy wiring search")
    p.add_argument("box")
    common(p, fmt=("json", "table"))
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("depolarize", help="project a box onto the isotropic line, preserving S")
    p.add_argument("box")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_depolarize)

    p = sub.add_parser("game", help="distributed AND game win rate of a resource")
    p.add_argument("box", nargs="?")
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--m", type=int, default=1, help="XOR pre-distillation depth")
    common(p, fmt=("table", "json"))
    p.set_defaults(func=_cmd_game)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        args.tol = check_tol(args.tol)
        return args.func(args)
    except (InvalidBoxError, SignalingBoxError, InfeasibleRegionError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # usage errors: unreadable or malformed box files, bad argument values
        print(str(exc), file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
