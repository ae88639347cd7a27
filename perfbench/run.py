"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each repetition is a fresh interpreter
(``rep.py``), so every cache in galdual starts cold; repetitions run one
after another (a closed loop with one client) until ``--seconds`` is
used up, at least one of each kind.  A run's ``wall_s`` is the mean over
its repetitions, which all do the same work on the same inputs: on a
shared host the speed drifts between repetitions, and the mean averages
that out better than the median of a few.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` alternates untraced
and traced repetitions and reports the per-layer metrics, the tracing
overhead among them.  The last line of stdout is the result as JSON; a
fuller record goes to ``.bench_build/perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REP = Path(__file__).resolve().parent / "rep.py"
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("census_mod2", "family_enumeration", "lattice_calculus")
SETUP_PROBES = 20  # extra interpreters that only import galdual
RUN_LIMIT_S = 170.0  # no repetition starts that would end a run after this
REP_TIMEOUT_S = 175.0


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "loadavg_at_start": os.getloadavg(),
        "platform": platform.platform(),
    }


def _spawn(rep_args: list, timeout: float) -> dict:
    """Run one fresh interpreter; returns its result or an ``error``."""
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=str(OUT / "pycache"),
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(REP), *rep_args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return {"error": f"repetition exceeded {timeout:.0f} s"}
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"exit {proc.returncode}: {' | '.join(tail)}"}
    try:
        out = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"unreadable result line: {lines[-1][:200]!r}"}
    out["setup_s"] = out["imported_at"] - started
    out["elapsed_s"] = elapsed
    if Path(out["galdual_file"]).resolve().parent != ROOT / "src" / "galdual":
        out["error"] = f"imported galdual from {out['galdual_file']}"
    return out


def _repetitions(args, started: float) -> list:
    """Closed loop: the next repetition starts when the previous returns."""
    kinds = [False, True] if args.trace else [False]  # traced?
    reps: list = []
    while True:
        traced = kinds[len(reps) % len(kinds)]
        rep_args = ["--workload", args.workload, "--seed", str(args.seed)]
        if traced:
            trace = OUT / "traces" / f"{args.workload}-seed{args.seed}-rep{len(reps)}.json"
            rep_args += ["--trace-file", str(trace)]
        timeout = max(10.0, min(REP_TIMEOUT_S, started + REP_TIMEOUT_S - time.monotonic()))
        rep = _spawn(rep_args, timeout)
        rep["traced"] = traced
        reps.append(rep)
        elapsed = time.monotonic() - started
        typical = statistics.mean(r.get("elapsed_s", 0.0) for r in reps)
        each_kind_ran = len(reps) >= len(kinds)
        limit = min(args.seconds, RUN_LIMIT_S) if each_kind_ran else RUN_LIMIT_S
        if (each_kind_ran and "error" in rep) or elapsed + typical > limit:
            return reps


def _metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"0": spec["end_to_end"], "1": spec["per_layer"]}


def _median(reps: list, key: str):
    return statistics.median(r[key] for r in reps)


def _mean(reps: list, key: str):
    return statistics.mean(r[key] for r in reps)


def _value(name: str, reps: list, setups: list):
    """One metric from the repetitions of a run: wall_s is a mean, the rest medians."""
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if name == "wall_s":
        return _mean(plain, "wall_s")
    if name == "setup_s":
        return statistics.median(setups)
    if name == "peak_rss_mib":
        return _median(plain, "peak_rss_mib")
    if name == "success_ratio":
        attempted = sum(r["attempted"] for r in reps)
        return (attempted - sum(r["failed"] for r in reps)) / attempted
    if name == "trace.overhead_s":
        return _mean(traced, "wall_s") - _mean(plain, "wall_s")
    if name == "trace.spans":
        return traced[0]["spans"]
    if name.endswith("_s"):
        return statistics.median(r["layers"].get(name[:-2], 0.0) for r in traced)
    return traced[0]["counts"].get(name, 0)  # main() checks that counts repeat


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args()
    args.trace = int(args.trace)

    if not (ROOT / "src" / "galdual" / "__init__.py").is_file():
        print(f"no galdual sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = _environment(args)
    started = time.monotonic()

    warm = _spawn(["--setup-only"], 60.0)  # compiles bytecode; not measured
    if "error" in warm:
        print(f"cannot import galdual: {warm['error']}", file=sys.stderr)
        return 1
    # half the probes before the repetitions and half after, so that set-up
    # is sampled at both ends of the run rather than in one moment of it
    probes = [_spawn(["--setup-only"], 60.0) for _ in range(SETUP_PROBES // 2)]
    reps = _repetitions(args, started)
    probes += [_spawn(["--setup-only"], 60.0) for _ in range(SETUP_PROBES - len(probes))]

    broken = [r for r in probes + reps if "error" in r]
    ok_reps = [r for r in reps if "error" not in r]
    setups = [r["setup_s"] for r in probes + reps if "error" not in r]
    errors = [r["error"] for r in broken]
    errors += [e for r in ok_reps for e in r["errors"]]
    errors += [f"accounting: {r['accounting_error']}" for r in ok_reps if r.get("accounting_error")]
    attempted = sum(r["attempted"] for r in ok_reps) + len(broken)
    failed = sum(r["failed"] for r in ok_reps) + len(broken)
    counts = {json.dumps(r["counts"], sort_keys=True) for r in ok_reps}
    if len(counts) > 1:
        errors.append("counts differ between repetitions of the same inputs")
    kinds_present = {r["traced"] for r in ok_reps}
    if kinds_present != ({False, True} if args.trace else {False}):
        print("no complete repetition; errors: " + "; ".join(errors[:5]), file=sys.stderr)
        return 1

    metrics = {
        m["name"]: {"value": _value(m["name"], ok_reps, setups), "unit": m["unit"]}
        for m in _metric_specs()[str(args.trace)]
    }
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "environment": env,
        "fail_ratio": failed / attempted,
        "errors": errors,
        "repetitions": reps,
        "setup_probes": probes,
        "result": result,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1))

    print("environment " + json.dumps(env))
    print(f"repetitions {len(reps)} (traced {sum(r['traced'] for r in reps)}), "
          f"setup probes {len(probes)}, fail_ratio {failed}/{attempted}")
    walls = sorted(r["wall_s"] for r in ok_reps if not r["traced"])
    print(f"untraced wall_s over {len(walls)} repetitions: min {walls[0]:.4f}, "
          f"median {statistics.median(walls):.4f}, max {walls[-1]:.4f} s")
    for line in errors[:10]:
        print("error " + line)
    for key, m in metrics.items():
        print(f"metric {key} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
