"""Command-line front end: run named checks, dump image groups, and apply
the lattice calculus to matrices given in the text format (rows separated
by ';', entries by ',', entry syntax n or n/l^k)."""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from galdual.exactmat import format_matrix, parse_ladic
from galdual.lattice import (
    change_basis_from_kernel,
    change_basis_from_transformation,
    conjugate_by,
    dual_isogeny_matrix,
    parse_kernel,
    polarization_type,
    pullback_polarization,
    pushforward_polarization,
    standard_polarization_matrix,
)
from galdual.paramgroups import TWISTS, image_rho_A, image_rho_Adual_contragredient
from galdual.verifier import (
    all_passed,
    check_ids,
    format_report,
    format_reports,
    run_all,
    run_check,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galdual",
        description="Exact verification of mod-l Galois image duality "
        "for glued abelian surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify",
        help="run one named check and print its report",
        epilog="checks: " + " ".join(check_ids()),
    )
    verify.add_argument("check_id", metavar="check-id")
    verify.add_argument("--ell", type=int, default=None)
    verify.add_argument("--twist", choices=TWISTS, default=None)
    verify.add_argument("--out", default=None, help="write the report here")

    verify_all = sub.add_parser(
        "verify-all", help="run the whole registry and print every report"
    )
    verify_all.add_argument(
        "--profile", choices=("quick", "full"), default="quick"
    )

    dump = sub.add_parser(
        "dump-group",
        help="write an image group, one matrix per line, sorted",
    )
    dump.add_argument("--ell", type=int, required=True)
    dump.add_argument("--side", choices=("A", "Adual"), required=True)
    dump.add_argument("--twist", choices=TWISTS, default="generic")

    lattice = sub.add_parser(
        "lattice", help="lattice calculus on matrices in the text format"
    )
    lat_sub = lattice.add_subparsers(dest="lattice_command", required=True)

    p = lat_sub.add_parser(
        "change-basis-transformation",
        help="basis matrix of an isogeny from its transformation matrix",
    )
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--matrix", required=True)

    p = lat_sub.add_parser(
        "change-basis-kernel", help="basis matrix of an isogeny from its kernel"
    )
    p.add_argument(
        "--kernel", required=True, help='e.g. "ell=3 n=1 dim=2 gens=(1,0)"'
    )

    p = lat_sub.add_parser("dual", help="transformation matrix of the dual isogeny")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--matrix", required=True)

    p = lat_sub.add_parser("pullback", help="pull a pairing back along an isogeny")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--pol", required=True)
    p.add_argument("--iso", required=True)

    p = lat_sub.add_parser(
        "pushforward",
        help="push d times a pairing forward along an isogeny with a kernel",
    )
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--pol", required=True)
    p.add_argument("--iso", required=True)
    p.add_argument("--kernel", required=True)

    p = lat_sub.add_parser("type", help="type (d_1,...,d_g) of a pairing matrix")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--matrix", required=True)

    p = lat_sub.add_parser(
        "standard-pol", help="block pairing matrix ((0,D),(-D,0)) for a type"
    )
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--type", dest="divisors", required=True, help='e.g. "1,3"')

    p = lat_sub.add_parser(
        "conjugate", help="rewrite a matrix in the coordinates of a basis"
    )
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--basis", required=True)
    p.add_argument("--matrix", required=True)

    return parser


def _cmd_verify(args) -> int:
    report = run_check(args.check_id, ell=args.ell, twist=args.twist)
    text = format_report(report)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.status != "fail" else 1


def _cmd_verify_all(args) -> int:
    started = time.monotonic()
    reports = run_all(args.profile)
    elapsed = time.monotonic() - started
    sys.stdout.write(format_reports(reports))
    tally = {"pass": 0, "fail": 0, "skipped": 0}
    for report in reports:
        tally[report.status] += 1
    print(
        f"{args.profile}: {tally['pass']} pass, {tally['fail']} fail, "
        f"{tally['skipped']} skipped in {elapsed:.1f}s",
        file=sys.stderr,
    )
    return 0 if all_passed(reports) else 1


def _cmd_dump_group(args) -> int:
    build = image_rho_A if args.side == "A" else image_rho_Adual_contragredient
    group = build(args.ell, args.twist)
    lines = sorted(format_matrix(m) for m in group.elements)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_lattice(args) -> int:
    cmd = args.lattice_command
    if cmd == "change-basis-transformation":
        out = change_basis_from_transformation(parse_ladic(args.matrix, args.ell))
    elif cmd == "change-basis-kernel":
        out = change_basis_from_kernel(parse_kernel(args.kernel))
    elif cmd == "dual":
        out = dual_isogeny_matrix(parse_ladic(args.matrix, args.ell))
    elif cmd == "pullback":
        out = pullback_polarization(
            parse_ladic(args.pol, args.ell), parse_ladic(args.iso, args.ell)
        )
    elif cmd == "pushforward":
        pushed, degree = pushforward_polarization(
            parse_ladic(args.pol, args.ell),
            parse_ladic(args.iso, args.ell),
            parse_kernel(args.kernel),
        )
        sys.stdout.write(format_matrix(pushed) + "\n" + f"degree={degree}\n")
        return 0
    elif cmd == "type":
        mat = parse_ladic(args.matrix, args.ell)
        if mat.n % 2:
            raise ValueError("pairing matrix must have even size")
        ptype = polarization_type(mat, mat.n // 2)
        sys.stdout.write(",".join(str(d) for d in ptype) + "\n")
        return 0
    elif cmd == "standard-pol":
        divisors = [int(d) for d in args.divisors.split(",")]
        out = standard_polarization_matrix(divisors, args.ell)
    else:  # conjugate
        out = conjugate_by(
            parse_ladic(args.basis, args.ell), parse_ladic(args.matrix, args.ell)
        )
    sys.stdout.write(format_matrix(out) + "\n")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "verify-all":
            return _cmd_verify_all(args)
        if args.command == "dump-group":
            return _cmd_dump_group(args)
        return _cmd_lattice(args)
    except ValueError as exc:
        print(f"galdual {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
