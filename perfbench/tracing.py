"""The traced run: per-module profile, call counts, spans and per-layer probes.

A traced run does a fixed amount of work for its seed, so its counts repeat
exactly at one seed:

1. set-up (import of the package, construction, inputs) and one pass over
   the batch run under ``cProfile``, with a counting wrapper around
   ``WeilScalar.__mul__``; cli-cold children run under ``python -m cProfile``
   and their profiles are added in;
2. one more pass runs without the profiler, recording spans; the traced wall
   time over this pass's wall time is ``trace.overhead_ratio``;
3. an engine panel (h3, orders 1-3) times jet_mul, bch_mul and matrix_mul
   call by call, and the per-layer probes take min-of-k timings; neither runs
   under the profiler;
4. ``checks.<id>_s`` is each catalog check's seconds as its report times it:
   on the catalog from the clean pass, elsewhere from a small clean catalog
   run (``CHECK_PANEL_TRIALS`` trials per check), so every workload reports
   every check with a measured time.

cProfile charges a cost to every Python call, so module self times sum to
several times the untraced wall time; read them as shares.  Self time of a
built-in function is charged to the module that called it.
"""

from __future__ import annotations

import cProfile
import pstats
import statistics
import time
from pathlib import Path
from random import Random

import liejets
from liejets import (
    WeilMatrix,
    bracket,
    builtin_rep,
    free_nilpotent,
    heisenberg3,
    ring_make,
    sl2,
    weil_exp,
    weil_log,
)
from liejets.sampling import PLAIN_RING, random_element, random_jet, random_rational
from liejets.scalars import WeilScalar

import workloads as wl

#: Modules whose self time is reported, in layer order.
LAYERS = ("fractions", "scalars", "algebras", "jets", "bch", "matrices",
          "hall", "sampling", "checks")

#: (metric, module, function) for call counts read off the profile.
COUNTED_CALLS = (
    ("fractions.new_calls", "fractions", "__new__"),
    ("scalars.mul_calls", "scalars", "__mul__"),
    ("scalars.add_calls", "scalars", "__add__"),
    ("algebras.bracket_calls", "algebras", "bracket"),
    ("matrices.weil_exp_calls", "matrices", "weil_exp"),
    ("matrices.weil_log_calls", "matrices", "weil_log"),
    ("matrices.wmat_mul_calls", "matrices", "__mul__"),
    ("hall.free_nilpotent_calls", "hall", "free_nilpotent"),
)

PANEL_PAIRS = 40
PROBE_REPEATS = 7
PROBE_LOOP_S = 0.005
CLI_PROBE_REPEATS = 5
#: Trials per check of the small catalog run that times the checks on the
#: workloads other than the catalog.
CHECK_PANEL_TRIALS = 10


def module_of(filename: str) -> str:
    path = Path(filename)
    if path.name == "fractions.py" and path.parent.name.startswith("python"):
        return "fractions"
    if path.parent.name == "liejets":
        return {"__init__": "liejets", "__main__": "cli"}.get(path.stem, path.stem)
    if path.parent == wl.BENCH_DIR:
        return "perfbench"
    return "python"


def aggregate(stats: pstats.Stats) -> tuple[dict, dict]:
    """Self seconds per module and call counts per (module, function).

    Built-ins have no file; their self time goes to their callers' modules
    in proportion to the time each caller spent in them.
    """
    self_s: dict = {}
    calls: dict = {}
    for (filename, line, func), (_, ncalls, tottime, _, callers) in stats.stats.items():
        if filename == "~":
            spent = sum(edge[2] for edge in callers.values())
            for caller, edge in callers.items():
                share = tottime * edge[2] / spent if spent else tottime / len(callers)
                mod = module_of(caller[0])
                self_s[mod] = self_s.get(mod, 0.0) + share
            if not callers:
                self_s["python"] = self_s.get("python", 0.0) + tottime
            continue
        mod = module_of(filename)
        self_s[mod] = self_s.get(mod, 0.0) + tottime
        key = (mod, func)
        calls[key] = calls.get(key, 0) + ncalls
    return self_s, calls


def function_table(stats: pstats.Stats) -> dict:
    """Every profiled liejets/fractions function: calls and self seconds."""
    table = {}
    for (filename, line, func), (_, ncalls, tottime, _, _) in stats.stats.items():
        mod = module_of(filename) if filename != "~" else "builtins"
        if mod in ("python", "perfbench"):
            continue
        table[f"{mod}:{func}:{line}"] = {"calls": ncalls, "self_s": tottime}
    return dict(sorted(table.items()))


class TermPairCounter:
    """Wraps ``WeilScalar.__mul__`` to count term pairs attempted and terms
    kept.  Installed for the profiled window only, in this process only: on
    cli-cold it sees the in-process reference products, not the children."""

    def __init__(self):
        self.pairs = 0
        self.kept = 0
        self._original = None

    def install(self):
        original = WeilScalar.__mul__
        counter = self

        def counting_mul(a, b):
            result = original(a, b)
            if result is not NotImplemented:
                n = len(b.terms) if isinstance(b, WeilScalar) else (1 if b else 0)
                counter.pairs += len(a.terms) * n
                counter.kept += len(result.terms)
            return result

        self._original = original
        WeilScalar.__mul__ = counting_mul
        WeilScalar.__rmul__ = counting_mul

    def remove(self):
        WeilScalar.__mul__ = self._original
        WeilScalar.__rmul__ = self._original


# -- engine panel and probes -----------------------------------------------------


def engine_panel(seed: int, spans: list, pairs: int = PANEL_PAIRS) -> tuple[dict, int, int]:
    """Time jet_mul, bch_mul and matrix_mul call by call on seeded h3 jets and
    compare the three products exactly.  Returns p50s in us, attempted, failed."""
    rng = Random(seed)
    algebra = heisenberg3()
    rep = builtin_rep("h3")
    clock = time.perf_counter
    durations: dict = {}
    attempted = failed = 0
    for order in wl.ORDERS:
        for n in range(pairs):
            a = random_jet(algebra, PLAIN_RING, order, rng)
            b = random_jet(algebra, PLAIN_RING, order, rng)
            t0 = clock()
            closed = liejets.jet_mul(a, b)
            t1 = clock()
            series = liejets.bch_mul(a, b)
            t2 = clock()
            matrix = liejets.matrix_mul(a, b, rep)
            t3 = clock()
            attempted += 1
            failed += 0 if closed == series == matrix else 1
            root = len(spans)
            item = f"panel.n{order}.{n}"
            spans.append((f"panel.h3.n{order}", t0, t3, None, item))
            for metric, s, e in (("jets.jet_mul", t0, t1), ("bch.bch_mul", t1, t2),
                                 ("matrices.matrix_mul", t2, t3)):
                spans.append((f"{metric}.n{order}", s, e, root, item))
                durations.setdefault(f"{metric}_n{order}_p50_us", []).append(e - s)
    p50 = {k: statistics.median(v) * 1e6 for k, v in durations.items()}
    return p50, attempted, failed


def min_of_k(op, repeats: int = PROBE_REPEATS) -> tuple[float, float]:
    """Seconds per call of ``op``: the minimum over ``repeats`` timed loops,
    and the spread (median - min) / min.  Each loop runs at least
    ``PROBE_LOOP_S``."""
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            op()
        if time.perf_counter() - start >= PROBE_LOOP_S:
            break
        number *= 2
    per_call = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            op()
        per_call.append((time.perf_counter() - start) / number)
    best = min(per_call)
    return best, (statistics.median(per_call) - best) / best


def probe_inputs(seed: int) -> dict:
    rng = Random(seed)
    q1, q2 = random_rational(rng), random_rational(rng)
    while not q1 or not q2:
        q1, q2 = random_rational(rng), random_rational(rng)
    ring_d = ring_make((("d", 3),))

    def full_scalar():
        return ring_d.scalar({(e,): random_rational(rng) or 1 for e in range(4)})

    def nilpotent_matrix():
        return WeilMatrix(ring_d.signature, tuple(
            tuple(ring_d.scalar({(e,): random_rational(rng) or 1 for e in range(1, 4)})
                  for _ in range(3))
            for _ in range(3)
        ))

    h3, s2 = heisenberg3(), sl2()
    m = nilpotent_matrix()
    return {
        "fraction": (q1, q2),
        "scalar_q": (PLAIN_RING.rational(q1), PLAIN_RING.rational(q2)),
        "scalar_d4": (full_scalar(), full_scalar()),
        "h3": (random_element(h3, PLAIN_RING, rng), random_element(h3, PLAIN_RING, rng)),
        "sl2": (random_element(s2, PLAIN_RING, rng), random_element(s2, PLAIN_RING, rng)),
        "exp_in": m,
        "log_in": weil_exp(m),
    }


def layer_probes(seed: int) -> dict:
    """The per-layer probes, in microseconds per call, with their spreads."""
    x = probe_inputs(seed)
    ops = {
        "fraction_mul": lambda a=x["fraction"]: a[0] * a[1],
        "scalar_mul_q": lambda a=x["scalar_q"]: a[0] * a[1],
        "scalar_mul_d4": lambda a=x["scalar_d4"]: a[0] * a[1],
        "bracket_h3": lambda a=x["h3"]: bracket(a[0], a[1]),
        "bracket_sl2": lambda a=x["sl2"]: bracket(a[0], a[1]),
        "weil_exp_3x3_d4": lambda m=x["exp_in"]: weil_exp(m),
        "weil_log_3x3_d4": lambda m=x["log_in"]: weil_log(m),
        "free_nilpotent_3_3": lambda: free_nilpotent(3, 3),
    }
    out = {}
    for name, op in ops.items():
        best, spread = min_of_k(op)
        out[f"probe.{name}_us"] = best * 1e6
        out[f"probe.{name}_spread"] = spread
    return out


def cli_probes(env: dict) -> dict:
    """Bare interpreter start-up and the cost of importing the CLI module."""
    def wall(argv):
        start = time.perf_counter()
        proc = wl.run_child(argv, env)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv} failed: {proc.stderr.strip()}")
        return time.perf_counter() - start

    interp = statistics.median(wall(["-c", "pass"]) for _ in range(CLI_PROBE_REPEATS))
    full = statistics.median(
        wall(["-c", "import liejets.cli"]) for _ in range(CLI_PROBE_REPEATS)
    )
    return {"cli.interp_ms": interp * 1e3, "cli.import_ms": (full - interp) * 1e3}


# -- the traced run ----------------------------------------------------------------


def traced_run(profile: cProfile.Profile, name: str, seed: int, expected_ids: list,
               expected_digest: str | None, scratch: Path) -> dict:
    """Run ``name`` once under the already-enabled ``profile`` and once clean.

    Returns a dict with ``metrics`` (per-layer), ``attempted``, ``failed``,
    ``notes`` and ``trace`` (everything written to the trace file).
    """
    counter = TermPairCounter()
    counter.install()
    try:
        prep = wl.prepare(name, seed, scratch)
        profile_dir = scratch / "profiles" if name == "cli-cold" else None
        if profile_dir is not None:
            profile_dir.mkdir(parents=True, exist_ok=True)
            for stale in profile_dir.glob("*.prof"):
                stale.unlink()
        start = time.perf_counter()
        traced, _ = wl.run_pass(prep, expected_ids, expected_digest, set(),
                                profile_dir=profile_dir)
        traced_wall = time.perf_counter() - start
    finally:
        counter.remove()
        profile.disable()
    stats = pstats.Stats(profile)
    if profile_dir is not None:
        stats.add(*sorted(str(p) for p in profile_dir.glob("*.prof")))

    clean, report = wl.run_pass(prep, expected_ids, expected_digest, set(),
                                record_spans=True)
    spans = list(clean.spans)
    panel, panel_attempted, panel_failed = engine_panel(seed, spans)
    checks_trials = wl.CATALOG_TRIALS
    if name != "catalog":
        checks_trials = CHECK_PANEL_TRIALS
        report, _, _ = wl.run_catalog(seed, expected_ids, None, clean, set(),
                                      trials=checks_trials)
    checks = {c.check: c.seconds for c in report.checks} if report is not None else {}

    self_s, calls = aggregate(stats)
    metrics = {"trace.overhead_ratio": traced_wall / clean.wall_s}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for metric, module, func in COUNTED_CALLS:
        metrics[metric] = calls.get((module, func), 0)
    metrics["scalars.term_pairs"] = counter.pairs
    metrics["scalars.kept_ratio"] = counter.kept / counter.pairs if counter.pairs else 0.0
    metrics.update(panel)
    metrics.update(layer_probes(seed))
    metrics.update(cli_probes(prep.env))
    for check in expected_ids:
        metrics[f"checks.{check}_s"] = checks.get(check, 0.0)

    total = sum(self_s.values())
    notes = traced.notes + clean.notes
    if panel_failed:
        notes.append(f"engine panel: {panel_failed} of {panel_attempted} products disagree")
    trace = {
        "workload": name,
        "seed": seed,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": clean.wall_s,
        "module_self_s": dict(sorted(self_s.items())),
        "module_share": {k: v / total for k, v in sorted(self_s.items())} if total else {},
        "checks_trials": checks_trials,
        "checks_s": checks,
        "functions": function_table(stats),
        "spans": [
            {"name": n, "start": s, "end": e, "parent": p, "item": i}
            for n, s, e, p, i in spans
        ],
    }
    return {
        "metrics": metrics,
        "attempted": traced.attempted + clean.attempted + panel_attempted,
        "failed": traced.failed + clean.failed + panel_failed,
        "notes": notes,
        "trace": trace,
    }
