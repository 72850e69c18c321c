"""liejets benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Workloads (see ``workloads.py``):

* ``catalog``           -- ``run_suite("all", trials=100, seed)``, one report per pass
* ``plain-products``    -- seeded jets over Q, jet_mul vs bch_mul, 601 items per pass
* ``symbolic-products`` -- generic jets over free-nilpotent(2,3)/(3,3), 229 items per pass
* ``cli-cold``          -- ``python -m liejets mul`` subprocesses, 12 calls per pass

With ``--trace 0`` the run repeats passes for ``--seconds`` (and until it
has at least 200 items, or 100 calls for cli-cold) and reports the
end-to-end metrics.  Every sample is scaled to a reference host speed
(``workloads.PROBE_EVERY_S``), and each item or call is taken at its
median over the passes.  With ``--trace 1`` it does the fixed traced run of
``tracing.py`` and reports the per-layer metrics, as measured; the spans,
per-function call counts and per-check times go to ``perfbench/_work/``.

Every item is an exact comparison.  Any disagreement, exception or non-zero
exit counts as failed; a failed run prints ``"correct": false`` and exits 1.
A run that attempted nothing is refused (exit 2, no result).  The last line
of standard output is the JSON result; the lines above it are the same
metrics in a table, with sample counts and ``failed_ratio``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src" / "liejets" / "__init__.py"
BASELINE = BENCH_DIR / "baseline.json"
WORKLOADS = ("catalog", "plain-products", "symbolic-products", "cli-cold")

#: Unit of every end-to-end metric (``--trace 0``), in report order.
END_TO_END_UNITS = {
    "verdict_s": "s",
    "items_per_s": "1/s",
    "item_p50_us": "us",
    "item_p95_us": "us",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_calls") or name == "scalars.term_pairs":
        return "count"
    if name.endswith(("_ratio", "_spread")):
        return "ratio"
    for suffix in ("_us", "_ms", "_s"):
        if name.endswith(suffix):
            return suffix[1:]
    raise ValueError(f"no unit for {name}")


def use_checkout_source() -> None:
    """Import the package from this checkout, through a bytecode cache kept in
    the benchmark's scratch space; refuse to run without the sources."""
    if not SOURCE.is_file():
        sys.exit(f"error: {SOURCE.relative_to(ROOT)} not found; run inside a liejets checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.pycache_prefix = str(BENCH_DIR / "_work" / "pycache")
    sys.dont_write_bytecode = False


def pin_to_one_cpu() -> None:
    """Keep this process, and the children it starts, on one CPU, so the
    host-speed probes time the CPU the samples ran on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def percentile(values: list, q: float) -> float:
    """Percentile ``q`` (0..100) of a non-empty list: the mean of the values
    whose ranks lie within 2% of the list's length of the nearest rank.

    A batch's items fall into clusters, one per (algebra, order, engine),
    and a nearest rank can sit on the edge between two clusters far apart:
    then one more item below the edge, such as the seed's extra pair, moves
    the percentile from one cluster to the next.  Averaging over the
    neighbouring ranks turns that jump into a step of a few percent.  Lists
    shorter than 50 get the nearest rank itself."""
    ordered = sorted(values)
    rank = int(max(1, -(-len(ordered) * q // 100))) - 1
    half = len(ordered) // 50
    window = ordered[max(0, rank - half):rank + half + 1]
    return sum(window) / len(window)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def end_to_end(samples, setup_s: list, rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics and the sample count behind each.

    Every time is scaled to the reference host speed (see
    ``workloads.PROBE_EVERY_S``).  Each item (or call) of the batch is taken
    at its median over the run's passes: ``verdict_s`` is one pass of those,
    and the percentiles run over the batch's items.  ``rss_mb`` is read when the timed passes end, before
    the statistics here allocate."""
    items, calls = samples.items(), samples.calls()
    verdict = samples.verdict_s()
    values = {
        "verdict_s": verdict,
        "items_per_s": len(items) / verdict,
        "item_p50_us": percentile(items, 50) * 1e6,
        "item_p95_us": percentile(items, 95) * 1e6,
        "call_p50_ms": percentile(calls, 50) * 1e3,
        "call_p90_ms": percentile(calls, 90) * 1e3,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": rss_mb,
    }
    n_items = sum(len(one) for one in samples.item_s)
    n_calls = sum(len(one) for one in samples.call_s)
    counts = {
        "verdict_s": len(samples.item_s), "items_per_s": n_items,
        "item_p50_us": n_items, "item_p95_us": n_items,
        "call_p50_ms": n_calls, "call_p90_ms": n_calls,
        "setup_s": len(setup_s), "peak_rss_mb": 1,
    }
    return values, counts


def result_line(metrics: dict, units: dict, attempted: int, failed: int) -> dict:
    """The final JSON line; a run that attempted nothing is refused."""
    if attempted < 1:
        raise ValueError("refused: the run attempted no items")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def print_table(title: str, metrics: dict, units: dict, counts: dict) -> None:
    print(title)
    for name, value in metrics.items():
        n = f"  (n={counts[name]})" if name in counts else ""
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:<36} {shown} {units[name]}{n}")


def print_reanchor(entries: list, workload: str, current: dict) -> None:
    """Each ROADMAP re-anchor figure that this run measured, next to the
    value now and the first recorded one, so drift shows."""
    for entry in entries:
        if entry["workload"] in (workload, "any") and entry["metric"] in current:
            print(f"  re-anchor {entry['metric']:<32} now {current[entry['metric']]:.4g}, "
                  f"first {entry['first']:.4g}, ROADMAP {entry['roadmap']}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_source()
    pin_to_one_cpu()
    baseline = json.loads(BASELINE.read_text())
    expected_ids = baseline["catalog"]["check_ids"]
    expected_digest = baseline["catalog"]["digest_seed0"] if args.seed == 0 else None
    profile = None
    if args.trace:
        # Enabled before the package is imported, so import time is profiled.
        profile = cProfile.Profile()
        profile.enable()
    import workloads as wl

    scratch = wl.WORK_DIR / f"{args.workload}-seed{args.seed}"
    if args.trace:
        import tracing

        run = tracing.traced_run(profile, args.workload, args.seed, expected_ids,
                                 expected_digest, scratch)
        metrics = run["metrics"]
        attempted, failed, notes = run["attempted"], run["failed"], run["notes"]
        units = {k: per_layer_unit(k) for k in metrics}
        trace_path = wl.WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(run["trace"], indent=1))
        print_table(f"{args.workload} seed {args.seed}: per-layer (traced run)",
                    metrics, units, {})
        shares = run["trace"]["module_share"]
        print("  self-time share: " + ", ".join(
            f"{m} {shares.get(m, 0.0):.1%}" for m in tracing.LAYERS))
        print_reanchor(baseline["reanchor"], args.workload,
                       dict(metrics, **{f"share.{m}": v for m, v in shares.items()}))
        print(f"  trace file: {trace_path.relative_to(ROOT)}")
    else:
        prep = wl.prepare(args.workload, args.seed, scratch, probed=True)
        try:
            outcome, samples = wl.run_untraced(prep, args.seconds, expected_ids,
                                               expected_digest, scratch)
        except wl.RefusedRun as exc:
            print(f"error: refused: {exc}", file=sys.stderr)
            return 2
        metrics, counts = end_to_end(samples, prep.setup_s, peak_rss_mb())
        attempted, failed, notes = outcome.attempted, outcome.failed, outcome.notes
        units = END_TO_END_UNITS
        print_table(f"{args.workload} seed {args.seed}: end to end", metrics, units, counts)
        unscaled = statistics.median(samples.unscaled_s)
        slowdown = samples.slowdown
        print(f"  as measured: median pass {unscaled:.6g} s; host slowdown against the "
              f"reference speed {statistics.median(slowdown):.3g}x "
              f"(passes {min(slowdown):.3g}x to {max(slowdown):.3g}x)")
        for digest in sorted(outcome.digests):
            print(f"  report digest (--no-timing) {digest}")
        print_reanchor(baseline["reanchor"], args.workload,
                       dict(metrics, **{"verdict_s.as_measured": unscaled}))
    print(f"  failed_ratio {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} of {attempted})")
    for note in notes[:10]:
        print(f"  FAILED: {note}")
    try:
        result = result_line(metrics, units, attempted, failed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
