"""Command-line front end: run named checks, dump image groups, and apply
the lattice calculus to matrices given in the text format (rows separated
by ';', entries by ',', entry syntax n or n/l^k)."""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from galdual.exactmat import format_matrix, format_packed, parse_ladic
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


def _pairing_type(mat) -> tuple:
    if mat.n % 2:
        raise ValueError("pairing matrix must have even size")
    return polarization_type(mat, mat.n // 2)


# Each lattice subcommand: its help, the function it runs, and the options
# passed to that function in order, each with any further add_argument
# keywords.  Every subcommand but change-basis-kernel also takes --ell.
_LATTICE_COMMANDS = {
    "change-basis-transformation": ("basis matrix of an isogeny from its transformation matrix",
                                    change_basis_from_transformation, {"--matrix": {}}),
    "change-basis-kernel": ("basis matrix of an isogeny from its kernel", change_basis_from_kernel,
                            {"--kernel": {"help": 'e.g. "ell=3 n=1 dim=2 gens=(1,0)"'}}),
    "dual": ("transformation matrix of the dual isogeny", dual_isogeny_matrix, {"--matrix": {}}),
    "pullback": ("pull a pairing back along an isogeny", pullback_polarization,
                 {"--pol": {}, "--iso": {}}),
    "pushforward": ("push d times a pairing forward along an isogeny with a kernel",
                    pushforward_polarization, {"--pol": {}, "--iso": {}, "--kernel": {}}),
    "type": ("type (d_1,...,d_g) of a pairing matrix", _pairing_type, {"--matrix": {}}),
    "standard-pol": ("block pairing matrix ((0,D),(-D,0)) for a type", standard_polarization_matrix,
                     {"--type": {"dest": "divisors", "help": 'e.g. "1,3"'}}),
    "conjugate": ("rewrite a matrix in the coordinates of a basis", conjugate_by,
                  {"--basis": {}, "--matrix": {}}),
}


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
    for name, (help_text, _, options) in _LATTICE_COMMANDS.items():
        p = lat_sub.add_parser(name, help=help_text)
        if list(options) != ["--kernel"]:
            p.add_argument("--ell", type=int, required=True)
        for flag, keywords in options.items():
            p.add_argument(flag, required=True, **keywords)

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
    lines = sorted(format_packed(p, group.ell) for p in group.packed_elements)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_lattice(args) -> int:
    _, run, options = _LATTICE_COMMANDS[args.lattice_command]
    values = []
    for flag, keywords in options.items():
        text = getattr(args, keywords.get("dest", flag[2:]))
        if flag == "--kernel":
            values.append(parse_kernel(text))
        elif flag == "--type":  # the divisors, then the prime of Z[1/l]
            values += ([int(d) for d in text.split(",")], args.ell)
        else:
            values.append(parse_ladic(text, args.ell))
    out = run(*values)
    if args.lattice_command == "pushforward":
        pushed, degree = out
        text = f"{format_matrix(pushed)}\ndegree={degree}"
    elif args.lattice_command == "type":
        text = ",".join(str(d) for d in out)
    else:
        text = format_matrix(out)
    sys.stdout.write(text + "\n")
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
