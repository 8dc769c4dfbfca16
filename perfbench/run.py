"""Run one benchmark workload, or all four, and print its metrics.

    python3 perfbench/run.py --workload routes-query --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from a checkout: the package is imported from ``src/`` next to this
directory, never from an installed copy.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` repeats the untraced passes, then makes
one traced pass and prints the per-layer metrics.  Every metric is printed
as ``name value unit``; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when an answer was wrong and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_S, kernel_time
from tracer import Stat, Tracer, percentile, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench-runs"
WORKLOAD_NAMES = ("campaign-serial", "campaign-jobs2", "routes-query", "grammar-chain")
SETUP_SAMPLES = 9

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
)

CHECK_IDS = ("JKP-ZJ", "ORBIT", "P2.1", "P2.2", "P5.1", "P6.3", "ROUNDTRIP", "SYM-XY",
             "SYM-XYZ", "T3.1", "T4.1", "T4.3", "T4.4", "T5.2", "T6.1", "T6.2")
# Per-layer metrics read straight off one traced function:
# "<module>.<function>.<stat>", stat -> (Stat field, unit).
STAT_FIELDS = {
    "calls": ("calls", "count"),
    "busy_s": ("busy_s", "s"),
    "self_s": ("self_s", "s"),
    "words": ("items", "count"),
    "max_words": ("max_items", "count"),
    "terms_out": ("items", "count"),
}
TRACED_STATS = (
    "stirling.statistics.calls", "stirling.statistics.busy_s",
    "stirling.enumerate_stirling.calls", "stirling.enumerate_stirling.words",
    "stirling.enumerate_stirling.busy_s", "stirling.enumerate_stirling.max_words",
    "counts.c_polynomial_enum.calls", "counts.c_polynomial_enum.self_s",
    "trees.gessel_forward.calls", "trees.gessel_forward.busy_s",
    "trees.leaf_census.calls", "trees.leaf_census.busy_s",
    "trees.serialize.calls", "trees.serialize.busy_s",
    "trees.gessel_inverse.calls", "trees.gessel_inverse.self_s",
    "trees.parse_tree.calls", "trees.parse_tree.self_s",
    "trees.validate_tree.calls", "trees.validate_tree.busy_s",
    "action.balance_report.calls", "action.balance_report.self_s",
    "action.canonical_representative.calls", "action.canonical_representative.self_s",
    "action.is_canonical.calls", "action.is_canonical.self_s",
    "action.orbit.calls", "action.orbit.self_s",
    "action.prune.calls", "action.prune.self_s",
    "counts.gamma_count_trees.self_s", "counts.gamma_count_perms.self_s",
    "counts.gamma_count_mma.self_s", "counts.gamma_count_ternary.self_s",
    "grammar.derive.calls", "grammar.derive.busy_s", "grammar.derive.terms_out",
    "grammar.change_of_variables_check.busy_s",
    "poly.gamma_extract.calls", "poly.gamma_extract.busy_s",
    "poly.is_symmetric.busy_s",
    "cli.main.self_s",
) + tuple(f"harness.check.{cid}.busy_s" for cid in CHECK_IDS)
# Per-layer metrics derived from several counters: name -> unit.
DERIVED = {
    "harness.enum_redundancy": "ratio",
    "action.enumerate_canonical.yield_ratio": "ratio",
    "harness.cell_ms_p50": "ms",
    "harness.cell_ms_p99": "ms",
    "harness.pool.busy_frac": "ratio",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {name: STAT_FIELDS[name.rsplit(".", 1)[1]][1] for name in TRACED_STATS}
    units.update(DERIVED)
    return units


def peak_rss_mib() -> float:
    """The higher peak RSS of this process and of its waited-for children."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def import_package():
    """Import gesselgamma and the workloads from this checkout's sources."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import gesselgamma

    if not Path(gesselgamma.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"gesselgamma was imported from {gesselgamma.__file__}, not {SRC}")
    import workloads

    return workloads


def measure_setup(args) -> float:
    """Median set-up time over fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def timed_passes(wl, seconds: float, scratch: Path) -> list:
    """Whole passes, untraced: at least one, and another only while it is
    expected to end within the time given."""
    passes = []
    durations = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(wl.run_pass(None, scratch))
        durations.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(durations) > seconds:
            return passes


def layer_metrics(tracer, wl, traced, untraced_run_s: float, workloads) -> dict[str, float]:
    out = {}
    for name in TRACED_STATS:
        function, stat = name.rsplit(".", 1)
        out[name] = getattr(tracer.stats.get(function, Stat()), STAT_FIELDS[stat][0])
    campaign = isinstance(wl, workloads.Campaign)
    words = out["stirling.enumerate_stirling.words"]
    out["harness.enum_redundancy"] = words / wl.family_words if campaign else 0.0
    canonical = tracer.stats.get("action.enumerate_canonical", Stat()).items
    scanned = tracer.parent_items.get("action.enumerate_canonical>stirling.enumerate_stirling", 0)
    out["action.enumerate_canonical.yield_ratio"] = canonical / scanned if scanned else 0.0
    cells = list(tracer.cell_ms.values())
    out["harness.cell_ms_p50"] = percentile(cells, 50) if campaign else 0.0
    out["harness.cell_ms_p99"] = tail_percentile(cells, 99) if campaign else 0.0
    out["harness.pool.busy_frac"] = traced.pool_busy_frac
    out["trace.run_s"] = traced.wall_s
    out["trace.overhead_s"] = traced.wall_s - untraced_run_s
    return out


def run_one(args) -> int:
    workloads = import_package()
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed)
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        # A traced run needs one untraced pass only, to measure the overhead.
        passes = timed_passes(wl, 0 if args.trace else args.seconds, scratch)
        rss = peak_rss_mib()
        traced = None
        if args.trace:
            tracer = Tracer(dump_dir=scratch)
            tracer.install()
            try:
                traced = wl.run_pass(tracer, scratch)
            finally:
                tracer.restore()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # Each op's latency is its median over the passes.
    op_ms = [statistics.median(p.op_ms[key] for p in passes) for key in passes[0].op_ms]
    run_s = statistics.median(p.wall_s for p in passes)
    runs = passes + ([traced] if traced else [])
    attempted = sum(p.attempted for p in runs)
    failed = sum(p.failed for p in runs)
    if args.trace:
        values = layer_metrics(tracer, wl, traced, run_s, workloads)
        units = per_layer_units()
    else:
        values = {
            "setup_s": measure_setup(args),
            "run_s": run_s,
            "op_ms_p50": percentile(op_ms, 50),
            "op_ms_p90": tail_percentile(op_ms, 90),
            "peak_rss_mb": rss,
        }
        units = dict(END_TO_END)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "ops_timed": len(op_ms),
        "slowdown": statistics.median(p.slowdown for p in passes),
        **wl.context(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
    }
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    for p in runs:
        for error in p.errors[:5]:
            print(f"wrong: {error}", file=sys.stderr)
    print(f"{args.workload}: {len(passes)} untraced passes, {len(op_ms)} timed ops"
          + (", 1 traced pass" if traced else ""))
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':<44} {failed / attempted:>14.6g} ({failed} of {attempted} ops)")
    print("context " + json.dumps(context))
    RUNS.mkdir(exist_ok=True)
    record = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"context": context, "attempted": attempted,
                                  "failed": failed, "metrics": metrics}, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_setup_only(args) -> int:
    kernel_time()  # the first call in a fresh process runs cold
    calibration = [kernel_time() for _ in range(3)]
    t0 = perf_counter()
    workloads = import_package()
    workloads.WORKLOADS[args.workload]().setup(args.seed)
    setup_s = perf_counter() - t0
    calibration += [kernel_time() for _ in range(3)]
    print(json.dumps({"setup_s": setup_s * REFERENCE_S / statistics.median(calibration)}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    merged = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} did not finish (exit {proc.returncode})",
                  file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure about this long, in whole passes (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "gesselgamma" / "__init__.py").is_file():
        print(f"error: no gesselgamma sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        return run_setup_only(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
