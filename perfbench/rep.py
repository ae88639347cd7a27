"""One repetition of one workload, in a fresh interpreter.

Run by run.py, never by hand.  A fresh interpreter means every
functools.cache in galdual starts empty; the repetition asserts that
before it starts.  Prints one JSON object on stdout.

Set-up ends when ``import galdual`` returns: the reported ``imported_at``
is a CLOCK_MONOTONIC reading, comparable with the parent's reading taken
just before it started this process.
"""

import time

import galdual  # noqa: F401  (the import is what set-up measures)

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from galdual.formstab import stabilizer_census  # noqa: E402
from galdual.groupengine import gl4_elements  # noqa: E402
from galdual.paramgroups import slab_records  # noqa: E402

from recorder import Recorder, accounting_error, layer_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CACHED = (slab_records, stabilizer_census, gl4_elements)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace-file", help="trace this repetition, write spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    out = {"imported_at": IMPORTED_AT, "galdual_file": galdual.__file__}
    if not args.setup_only:
        out.update(_repetition(args.workload, args.seed, args.trace_file))
    print(json.dumps(out))
    return 0


def _repetition(name: str, seed: int, trace_file) -> dict:
    prepare, body = WORKLOADS[name]
    inputs = prepare(seed)
    rec = Recorder(traced=trace_file is not None)

    # cache-cold self-test: one operation, counted like any other
    rec.attempted += 1
    sizes = {f.__name__: f.cache_info().currsize for f in CACHED}
    warm = {name: size for name, size in sizes.items() if size}
    if warm:
        rec.fail("bench.cache_cold", f"caches already hold entries: {warm}")

    wall = rec.run(lambda r: body(r, inputs))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "wall_s": wall,
        "peak_rss_mib": peak_rss_mib,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failed_by_layer": rec.failed_by_layer,
        "errors": rec.errors,
        "counts": rec.counts,
    }
    if rec.traced:
        result["accounting_error"] = accounting_error(rec.spans)
        result["layers"] = layer_seconds(rec.spans)
        result["spans"] = len(rec.spans)
        path = Path(trace_file)
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in rec.spans]))
    return result


if __name__ == "__main__":
    sys.exit(main())
