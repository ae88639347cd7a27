"""Recompute the mod-2 pairing stabilizer census and write the full listing.

stdout carries the canonical census lines (one conjugacy class per block:
order, duality verdicts, generators); the structural summary of the
stabilizer itself, and how many classes each kind of evidence settled, go
to stderr.
"""

import argparse
import sys
import time

from galdual.formstab import (
    format_census,
    glued_form_stabilizer,
    glued_pairing_mod2,
    stabilizer_census,
    structure_invariants,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="write the census here")
    args = parser.parse_args()

    started = time.monotonic()
    invariants = structure_invariants(
        glued_form_stabilizer(), form=glued_pairing_mod2()
    )
    census = stabilizer_census()
    elapsed = time.monotonic() - started

    text = format_census(census)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    split = invariants.split_extension
    print(
        f"stabilizer: order {invariants.order}, exponent {invariants.exponent}, "
        f"solvable {invariants.solvable}, derived series {invariants.derived_series}",
        file=sys.stderr,
    )
    print(
        f"split extension: kernel {len(split.kernel)}, "
        f"complement {len(split.complement)}",
        file=sys.stderr,
    )
    print(
        f"classes: {len(census.records)}; "
        f"not equivalent to the dual: {census.not_rep_equivalent}; "
        f"not conjugate to the dual image: {census.not_subgroup_conjugate} "
        f"({elapsed:.1f}s)",
        file=sys.stderr,
    )
    tally = ", ".join(f"{kind} {n}" for kind, n in census.evidence_tally.items())
    print(f"conjugacy evidence: {tally}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
