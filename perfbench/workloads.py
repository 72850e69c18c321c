"""The four benchmark workloads: seeded inputs, exact items and the timing loop.

Every workload is a closed loop driven by one caller in one process: the
next call starts only after the previous one has returned.  A workload is a
fixed batch of items built from the seed during set-up; one *pass* runs the
whole batch and ends in a verdict.  Every item compares engines exactly, so
a wrong answer is counted as a failure, never as a fast result.

The package is measured from outside only: the code here calls its public
functions and the ``liejets`` command line, and changes none of them.
Engines are looked up on the ``liejets`` package at call time, so a test
can substitute a corrupted one.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from array import array
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from random import Random
from typing import Callable

import liejets
from liejets import free_nilpotent, heisenberg3, sl2
from liejets.catalog import default_verification_algebras
from liejets.checks import build_checks
from liejets.jets import Jet
from liejets.sampling import PLAIN_RING, random_jet, symbolic_jet_family

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"

#: Set-up is repeated this many times per run and its median reported.  The
#: repeats are spread over the run, between passes.
SETUP_REPEATS = 11
#: Host speed.  On the shared 2-vCPU VM the benchmark was defined on, the
#: host runs this process at one of two speeds, about 1.7x apart, and can
#: stay at the slow one for more than a whole run; the guest sees no steal
#: time.  So every timed sample is also scaled to a reference host speed.
#: A fixed piece of reference work, which uses nothing from the package, is
#: timed at least every ``PROBE_EVERY_S`` of a timed pass, and a sample
#: taken between two such probes is multiplied by the reference work's
#: nominal time over the mean of the two.  The time spent probing is not
#: part of any sample.  The reference work is a stdlib-only loop
#: (``reference_work``, nominal ``REFERENCE_S``) for in-process workloads,
#: and a bare interpreter start (``python -c pass``, nominal
#: ``INTERPRETER_REFERENCE_S``) for cli-cold, whose samples are child
#: processes.  Each nominal time is that work's time at the fast speed on
#: that VM (Python 3.11.7), so there the scaled times read as the seconds
#: the run would have taken at full speed.
PROBE_EVERY_S = 0.05
#: Each loop probe is the fastest of this many runs of the loop.
PROBE_REPEATS = 3
REFERENCE_S = 0.00100
INTERPRETER_REFERENCE_S = 0.050
#: Catalog size: random trials per check, as the north-star verdict uses.
CATALOG_TRIALS = 100
#: Plain-products batch: random pairs per (algebra, order), plus the extra
#: pair of one seed-chosen cell; 5 x 3 x 40 + 1 = 601 items.
PLAIN_PAIRS = 40
#: Symbolic-products batch: seeded mixed pairs per (algebra, order), this
#: many times the algebra's weight in ``SYMBOLIC_ALGEBRAS``, plus one
#: associativity triple and one fully symbolic pair, plus the extra pair of
#: one seed-chosen cell; 3 x (2 + 48) + 3 x (2 + 24) + 1 = 229 items.
SYMBOLIC_MIXED_PAIRS = 24
#: Extra pairs in the one (algebra, order) cell the seed picks, so the shape
#: of the work (and the shape-bound call counts) moves with the seed.  It is
#: one cell, not a draw per cell: the share of every cell in the batch, and
#: so which cell its percentiles fall in, stays the same from seed to seed.
EXTRA_PAIRS = 1
#: (generators, step, weight) of each free-nilpotent algebra.  By cost the
#: cells sort as (2,3)/n1 < (2,3)/n2 < (3,3)/n1 < (2,3)/n3 < (3,3)/n2 <
#: (3,3)/n3; with equal cells the median item would sit on the boundary
#: between the third and fourth and flip between them from seed to seed.
#: Weights 2:1 put it, and p95, inside a cell.
SYMBOLIC_ALGEBRAS = ((2, 3, 2), (3, 3, 1))
#: Cold-CLI batch: jet-file pairs per algebra, each multiplied by every engine.
CLI_PAIRS = 2
CLI_ENGINES = ("def61", "bch", "matrix")
#: Fewest samples a run may report percentiles from (ten beyond p95 / p90).
MIN_ITEMS = 200
MIN_CLI_CALLS = 100
#: A run stops starting passes after this many seconds, whatever the minimum.
HARD_STOP_S = 150.0
CLI_TIMEOUT_S = 60.0

ORDERS = (1, 2, 3)


class RefusedRun(RuntimeError):
    """A run that checked nothing; it is refused, not reported as a pass."""


# -- child processes -----------------------------------------------------------


def child_env() -> dict:
    """Environment for ``python`` children: the checkout's sources and a warm
    bytecode cache kept inside the benchmark's scratch space."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK_DIR / "pycache")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True,
        timeout=CLI_TIMEOUT_S, check=False,
    )


def import_seconds(module: str, env: dict) -> float:
    """Seconds a fresh interpreter spends importing ``module``, warm cache."""
    code = (
        "import time; t = time.perf_counter(); "
        f"import {module}; print(time.perf_counter() - t)"
    )
    proc = run_child(["-c", code], env)
    if proc.returncode != 0:
        raise RuntimeError(f"importing {module} failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip())


# -- items ---------------------------------------------------------------------


@dataclass
class Item:
    """One exact comparison: ``pair`` is jet_mul vs bch_mul on (a, b);
    ``assoc`` is (a.b).c vs a.(b.c) through jet_mul."""

    kind: str
    label: str
    order: int
    jets: tuple


# -- host speed ----------------------------------------------------------------


def reference_work() -> Fraction:
    """A fixed piece of pure-Python work of the package's kind (rationals,
    dicts, tuples) that uses nothing from the package."""
    total = Fraction(0)
    table: dict = {}
    for i in range(250):
        total += Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, 7)
        key = (i % 11, i % 13)
        table[key] = table.get(key, 0) + i
    return total


def interpreter_seconds(env: dict) -> float:
    """Seconds a bare ``python -c pass`` takes, child start to exit."""
    start = time.perf_counter()
    proc = run_child(["-c", "pass"], env)
    if proc.returncode != 0:
        raise RuntimeError(f"bare interpreter failed: {proc.stderr.strip()}")
    return time.perf_counter() - start


def reference_seconds() -> float:
    """The fastest of ``PROBE_REPEATS`` timings of ``reference_work``."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = clock()
        reference_work()
        best = min(best, clock() - t0)
    return best


@dataclass
class Outcome:
    """What one pass over a batch measured."""

    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Per-sample seconds, kept as C doubles so that the samples a run holds
    #: add little to its peak RSS however many there are.
    item_s: array = field(default_factory=lambda: array("d"))
    call_s: array = field(default_factory=lambda: array("d"))
    #: (name, start, end, parent index or None, item id), in start order.
    spans: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    #: Digests of the catalog reports of a run.
    digests: set = field(default_factory=set)
    #: Clock times at which the pass started and ended.
    span: tuple = (0.0, 0.0)
    #: Clock time at which each item and call sample started.
    item_at: array = field(default_factory=lambda: array("d"))
    call_at: array = field(default_factory=lambda: array("d"))
    #: Host-speed probes of a timed pass: (start, end, seconds of the
    #: reference work), in clock order.
    probes: list = field(default_factory=list)
    #: The reference work, as a function that times it, and its nominal time.
    reference: Callable[[], float] = reference_seconds
    reference_s: float = REFERENCE_S

    def probe(self) -> None:
        start = time.perf_counter()
        seconds = self.reference()
        self.probes.append((start, time.perf_counter(), seconds))

    def probe_due(self) -> bool:
        return bool(self.probes) and time.perf_counter() - self.probes[-1][1] >= PROBE_EVERY_S

    def finish(self, start: float, end: float) -> None:
        """Close the pass that ran from ``start`` to ``end``: its wall time
        leaves out the probes in between."""
        self.span = (start, end)
        self.wall_s = end - start - sum(e - s for s, e, _ in self.probes if start <= s and e <= end)

    def scaled(self) -> tuple[array, array, float]:
        """The pass's item times, call times and wall time, each scaled to
        the reference host speed.  Between two probes the host's speed is
        taken as the mean of the two; the probes' own time drops out.  An
        unprobed pass is returned as measured."""
        if len(self.probes) < 2:
            return self.item_s, self.call_s, self.wall_s
        gaps = [(a[1], b[0], self.reference_s / ((a[2] + b[2]) / 2))
                for a, b in zip(self.probes, self.probes[1:])]
        ends = [hi for _, hi, _ in gaps]

        def at_reference(start: float, seconds: float) -> float:
            end = start + seconds
            total = 0.0
            for lo, hi, factor in gaps[bisect_right(ends, start):]:
                if lo >= end:
                    break
                total += (min(end, hi) - max(start, lo)) * factor
            return total

        items = array("d", map(at_reference, self.item_at, self.item_s))
        calls = array("d", map(at_reference, self.call_at, self.call_s))
        return items, calls, at_reference(self.span[0], self.span[1] - self.span[0])


def run_item(item: Item, item_id, out: Outcome, record_spans: bool) -> None:
    clock = time.perf_counter
    calls = []
    ok = False
    error = ""
    t0 = clock()
    try:
        if item.kind == "pair":
            a, b = item.jets
            closed = liejets.jet_mul(a, b)
            t1 = clock()
            series = liejets.bch_mul(a, b)
            t2 = clock()
            calls = [("jet_mul", t0, t1), ("bch_mul", t1, t2)]
            ok = closed == series
        else:
            a, b, c = item.jets
            ab = liejets.jet_mul(a, b)
            t1 = clock()
            left = liejets.jet_mul(ab, c)
            t2 = clock()
            bc = liejets.jet_mul(b, c)
            t3 = clock()
            right = liejets.jet_mul(a, bc)
            t4 = clock()
            calls = [("jet_mul", t0, t1), ("jet_mul", t1, t2),
                     ("jet_mul", t2, t3), ("jet_mul", t3, t4)]
            ok = left == right
    except Exception as exc:  # an engine that raises has failed the item
        error = f": {type(exc).__name__}: {exc}"
    end = clock()
    out.attempted += 1
    if not ok:
        out.failed += 1
        out.notes.append(f"{item.label} ({item.kind}) disagrees{error}")
    out.item_s.append(end - t0)
    out.item_at.append(t0)
    out.call_s.extend(e - s for _, s, e in calls)
    out.call_at.extend(s for _, s, _ in calls)
    if record_spans:
        root = len(out.spans)
        out.spans.append((f"item.{item.kind}.{item.label}", t0, end, None, item_id))
        for name, s, e in calls:
            out.spans.append((f"{name}.n{item.order}", s, e, root, item_id))


def run_items(batch: list, record_spans: bool = False, probed: bool = False) -> Outcome:
    out = Outcome()
    if probed:
        out.probe()
    start = time.perf_counter()
    for n, item in enumerate(batch):
        run_item(item, n, out, record_spans)
        if out.probe_due():
            out.probe()
    out.finish(start, time.perf_counter())
    if probed:
        out.probe()
    return out


# -- plain-products ------------------------------------------------------------


def plain_batch(seed: int, pairs: int = PLAIN_PAIRS, extra: int = EXTRA_PAIRS) -> list:
    """Seeded jets over Q on the five default algebras, orders 1-3:
    ``pairs`` per (algebra, order), and ``extra`` more in one cell that the
    seed picks."""
    rng = Random(seed)
    algebras = default_verification_algebras()
    cells = [(algebra, order) for algebra in algebras for order in ORDERS]
    extra_cell = rng.randrange(len(cells))
    batch = []
    for n, (algebra, order) in enumerate(cells):
        for _ in range(pairs + (extra if n == extra_cell else 0)):
            a = random_jet(algebra, PLAIN_RING, order, rng)
            b = random_jet(algebra, PLAIN_RING, order, rng)
            batch.append(Item("pair", f"{algebra.name}/n{order}", order, (a, b)))
    return batch


# -- symbolic-products -----------------------------------------------------------


def symbolic_batch(seed: int, mixed_pairs: int = SYMBOLIC_MIXED_PAIRS,
                   extra: int = EXTRA_PAIRS) -> list:
    """Generic jets over free-nilpotent(2,3) and (3,3), orders 1-3.

    Per (algebra, order): one associativity triple and one jet_mul-vs-bch_mul
    pair of fully generic jets, then ``mixed_pairs`` times the algebra's
    weight pairs of a generic jet with a seeded random jet over the same
    ring, and ``extra`` more such pairs in one cell that the seed picks.  So
    the seed changes both the inputs and the shape of the work.
    """
    rng = Random(seed)
    extra_cell = rng.randrange(len(SYMBOLIC_ALGEBRAS) * len(ORDERS))
    batch = []
    cell = 0
    for m, c, weight in SYMBOLIC_ALGEBRAS:
        algebra = free_nilpotent(m, c)
        for order in ORDERS:
            ring, jets = symbolic_jet_family(algebra, order, ("a", "b", "c"))
            a, b, c3 = jets["a"], jets["b"], jets["c"]
            label = f"{algebra.name}/n{order}"
            batch.append(Item("assoc", label, order, (a, b, c3)))
            batch.append(Item("pair", label, order, (a, b)))
            for k in range(weight * mixed_pairs + (extra if cell == extra_cell else 0)):
                r = random_jet(algebra, ring, order, rng)
                generic = (a, b, c3)[k % 3]
                pair = (generic, r) if k % 2 == 0 else (r, generic)
                batch.append(Item("pair", label, order, pair))
            cell += 1
    return batch


# -- catalog ---------------------------------------------------------------------


def report_digest(report) -> str:
    """sha256 of the ``--no-timing`` report, as the CLI prints it, without the
    interpreter version (so the digest pins verdicts, not the Python build)."""
    doc = report.to_json(include_timing=False)
    doc["versions"] = {k: v for k, v in doc["versions"].items() if k != "python"}
    return hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest()


def judge_report(report, expected_ids: list, expected_digest: str | None,
                 out: Outcome, digests: set) -> None:
    """Count one catalog report into ``out``: every expected check must be
    present and pass, and the report must match the recorded digest (seed 0)
    and every other report of the run (same seed, so byte-identical)."""
    by_id = {c.check: c for c in report.checks}
    bad = [cid for cid in expected_ids if cid not in by_id or not by_id[cid].passed]
    digest = report_digest(report)
    digests.add(digest)
    if bad:
        out.notes.append("failing or missing checks: " + ", ".join(bad))
    failed = len(bad)
    if (expected_digest is not None and digest != expected_digest) or len(digests) > 1:
        out.notes.append(f"report digest {digest[:16]} does not match")
        failed = max(failed, 1)
    out.attempted += len(expected_ids)
    out.failed += failed
    # Each check is both an item and a call into its driver, timed by run_suite.
    seconds = [by_id[cid].seconds for cid in expected_ids if cid in by_id]
    out.item_s.extend(seconds)
    out.call_s.extend(seconds)


def run_catalog(seed: int, expected_ids: list, expected_digest: str | None,
                out: Outcome, digests: set, trials: int = CATALOG_TRIALS):
    start = time.perf_counter()
    try:
        report = liejets.run_suite("all", trials=trials, seed=seed)
    except Exception as exc:
        end = time.perf_counter()
        out.notes.append(f"run_suite raised {type(exc).__name__}: {exc}")
        out.attempted += len(expected_ids)
        out.failed += len(expected_ids)
        out.item_s.append(end - start)
        out.call_s.append(end - start)
        return None, start, end
    end = time.perf_counter()
    judge_report(report, expected_ids, expected_digest, out, digests)
    return report, start, end


def catalog_order(seed: int, trials: int = CATALOG_TRIALS) -> list:
    """Check ids in the order ``run_suite`` runs them: build order."""
    return [check_id for check_id, _ in build_checks("all", trials=trials, seed=seed)]


def place_checks(out: Outcome, report, order: list, expected_ids: list) -> None:
    """Start time of each check sample that ``judge_report`` recorded.
    ``run_suite`` builds its checks and then runs them back to back in
    ``order``, so the starts follow from the report's own check times."""
    start, end = out.span
    if report is None:
        out.item_at.append(start)
        out.call_at.append(start)
        return
    seconds = {c.check: c.seconds for c in report.checks}
    cursor = max(start, end - sum(seconds.values()))
    starts = {}
    for check_id in order:
        starts[check_id] = cursor
        cursor += seconds.get(check_id, 0.0)
    at = [starts.get(check_id, start) for check_id in expected_ids if check_id in seconds]
    out.item_at.extend(at)
    out.call_at.extend(at)


@contextmanager
def probing(out: Outcome):
    """Probe the host speed every ``PROBE_EVERY_S`` from a timer signal,
    for code the benchmark cannot pause between samples (``run_suite``)."""
    previous = signal.signal(signal.SIGALRM, lambda *_: out.probe())
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- cli-cold --------------------------------------------------------------------


@dataclass
class CliCall:
    label: str
    a_path: Path
    b_path: Path
    via: str
    expected: Jet


def cli_batch(seed: int, scratch: Path, pairs: int = CLI_PAIRS) -> list:
    """Seeded order-3 jet files on h3 and sl2, each pair run by every engine;
    the expected product is computed in process with jet_mul."""
    rng = Random(seed)
    scratch.mkdir(parents=True, exist_ok=True)
    batch = []
    for algebra in (heisenberg3(), sl2()):
        for p in range(pairs):
            a = random_jet(algebra, PLAIN_RING, 3, rng)
            b = random_jet(algebra, PLAIN_RING, 3, rng)
            paths = []
            for tag, jet in (("a", a), ("b", b)):
                path = scratch / f"{algebra.name}-{p}{tag}.json"
                path.write_text(json.dumps(jet.to_json()))
                paths.append(path)
            expected = liejets.jet_mul(a, b)
            for via in CLI_ENGINES:
                batch.append(CliCall(f"{algebra.name}/{via}", paths[0], paths[1], via, expected))
    return batch


def cli_argv(call: CliCall) -> list:
    return ["-m", "liejets", "mul", str(call.a_path), str(call.b_path), "--via", call.via]


def judge_cli(call: CliCall, proc, out: Outcome) -> bool:
    """True when the child exited 0 and printed exactly the expected jet."""
    if proc.returncode != 0:
        out.notes.append(f"{call.label}: exit {proc.returncode}: {proc.stderr.strip()[:200]}")
        return False
    try:
        doc = json.loads(proc.stdout)
        got = Jet.from_json(doc, call.expected.algebra)
    except (ValueError, KeyError, TypeError) as exc:
        out.notes.append(f"{call.label}: unreadable output: {exc}")
        return False
    if doc.get("algebra") != call.expected.algebra.name or got != call.expected:
        out.notes.append(f"{call.label}: product differs from jet_mul")
        return False
    return True


def run_cli_calls(batch: list, env: dict, record_spans: bool = False,
                  profile_dir: Path | None = None, probed: bool = False) -> Outcome:
    """One pass of cold CLI calls, one process at a time.

    With ``profile_dir`` each child runs under ``python -m cProfile`` and
    writes its profile there.  ``probed`` times a bare interpreter start
    after each call, as the host-speed reference of the calls."""
    measure, nominal = host_reference("cli-cold", env)
    out = Outcome(reference=measure, reference_s=nominal)
    if probed:
        out.probe()
    clock = time.perf_counter
    start = clock()
    for n, call in enumerate(batch):
        argv = []
        if profile_dir is not None:
            argv = ["-m", "cProfile", "-o", str(profile_dir / f"call-{n}.prof")]
        t0 = clock()
        try:
            proc = run_child(argv + cli_argv(call), env)
            t1 = clock()
            ok = judge_cli(call, proc, out)
        except subprocess.TimeoutExpired:
            t1 = clock()
            out.notes.append(f"{call.label}: timed out")
            ok = False
        end = clock()
        out.attempted += 1
        out.failed += 0 if ok else 1
        out.call_s.append(t1 - t0)
        out.call_at.append(t0)
        out.item_s.append(end - t0)
        out.item_at.append(t0)
        if record_spans:
            root = len(out.spans)
            out.spans.append((f"item.cli.{call.label}", t0, end, None, n))
            out.spans.append((f"cli.mul.{call.via}", t0, t1, root, n))
        if out.probe_due():
            out.probe()
    out.finish(start, clock())
    if probed:
        out.probe()
    return out


def warm_cli(batch: list, env: dict) -> None:
    """Run each engine once untimed so the bytecode cache is warm."""
    seen = set()
    for call in batch:
        if call.via not in seen:
            seen.add(call.via)
            proc = run_child(cli_argv(call), env)
            if proc.returncode != 0:
                raise RuntimeError(f"warm-up call failed: {proc.stderr.strip()}")


# -- set-up ----------------------------------------------------------------------


@dataclass
class Prepared:
    """A workload ready to run: its batch and what set-up cost.  The
    catalog's batch is the order its checks run in, or None if unprobed."""

    name: str
    seed: int
    batch: object
    setup_s: list
    env: dict


def build(name: str, seed: int, scratch: Path):
    """The in-process part of set-up: construct algebras, reps, Hall bases
    and inputs.  Returns the batch."""
    if name == "catalog":
        # run_suite constructs its checks itself, inside the timed pass.
        return None
    if name == "plain-products":
        return plain_batch(seed)
    if name == "symbolic-products":
        return symbolic_batch(seed)
    if name == "cli-cold":
        return cli_batch(seed, scratch)
    raise ValueError(f"unknown workload {name!r}")


def host_reference(name: str, env: dict) -> tuple[Callable[[], float], float]:
    """The reference work that scales ``name``'s samples, and its nominal time."""
    if name == "cli-cold":
        return partial(interpreter_seconds, env), INTERPRETER_REFERENCE_S
    return reference_seconds, REFERENCE_S


def set_up(name: str, seed: int, scratch: Path, env: dict,
           probed: bool = False) -> tuple[float, object]:
    """Set the workload up once.  Returns the seconds it took and the batch.

    A set-up is a cold import of the package in a fresh interpreter (the CLI
    module for cli-cold) plus the in-process construction of the batch;
    cli-cold also writes its jet files and warms the bytecode cache.  The
    catalog has no batch: ``run_suite`` builds its checks inside the timed
    pass, so its set-up is the cold import alone.  ``probed`` scales the
    seconds to the reference host speed, probed before and after.
    """
    measure, nominal = host_reference(name, env)
    before = measure() if probed else nominal
    imported = import_seconds("liejets.cli" if name == "cli-cold" else "liejets", env)
    start = time.perf_counter()
    batch = build(name, seed, scratch)
    if name == "cli-cold":
        warm_cli(batch, env)
    seconds = imported + time.perf_counter() - start
    after = measure() if probed else nominal
    return seconds * nominal / ((before + after) / 2), batch


def prepare(name: str, seed: int, scratch: Path, probed: bool = False) -> Prepared:
    """Set the workload up once; ``run_untraced`` times the other repeats."""
    env = child_env()
    seconds, batch = set_up(name, seed, scratch, env, probed)
    if name == "catalog" and probed:
        # Untimed and unprofiled: only probed passes need the check order.
        batch = catalog_order(seed)
    return Prepared(name, seed, batch, [seconds], env)


def run_pass(prep: Prepared, expected_ids: list, expected_digest: str | None,
             digests: set, record_spans: bool = False,
             profile_dir: Path | None = None, probed: bool = False) -> tuple[Outcome, object]:
    """One pass over the workload's batch.  Returns the outcome and, for the
    catalog, its report.  ``probed`` times the host-speed reference around
    the samples (see ``PROBE_EVERY_S``); a traced pass is never probed, so its
    call counts are the package's alone."""
    if prep.name == "catalog":
        out = Outcome()
        if probed:
            out.probe()
            with probing(out):
                report, t0, t1 = run_catalog(prep.seed, expected_ids, expected_digest,
                                             out, digests)
            out.probe()
        else:
            report, t0, t1 = run_catalog(prep.seed, expected_ids, expected_digest, out, digests)
        out.finish(t0, t1)
        if probed:
            place_checks(out, report, prep.batch, expected_ids)
        if record_spans:
            out.spans.append(("run_suite", t0, t1, None, 0))
        return out, report
    if prep.name == "cli-cold":
        return run_cli_calls(prep.batch, prep.env, record_spans, profile_dir, probed), None
    return run_items(prep.batch, record_spans, probed), None


@dataclass
class Samples:
    """Every sample of a run, scaled to the reference host speed and kept by
    position: a batch is the same in every pass, so sample ``k`` of one
    pass is the same item (or call) as sample ``k`` of the next."""

    item_s: list = field(default_factory=list)
    call_s: list = field(default_factory=list)
    #: Pass time outside its items (loop, suite construction, report).
    overhead_s: array = field(default_factory=lambda: array("d"))
    #: Each pass's wall time as measured, and how much slower than the
    #: reference speed the host ran it (the measured over the scaled time).
    unscaled_s: array = field(default_factory=lambda: array("d"))
    slowdown: array = field(default_factory=lambda: array("d"))

    def add(self, one: Outcome) -> None:
        items, calls, wall = one.scaled()
        self.item_s.append(items)
        self.call_s.append(calls)
        self.overhead_s.append(max(0.0, wall - sum(items)))
        self.unscaled_s.append(one.wall_s)
        self.slowdown.append(one.wall_s / wall if wall else 1.0)

    @staticmethod
    def per_position(passes: list) -> list:
        """Each position's median over the passes that reached it."""
        width = max(len(one) for one in passes)
        return [statistics.median(one[k] for one in passes if k < len(one))
                for k in range(width)]

    def items(self) -> list:
        return self.per_position(self.item_s)

    def calls(self) -> list:
        return self.per_position(self.call_s)

    def verdict_s(self) -> float:
        """Seconds of one pass with every item at its median."""
        return sum(self.items()) + statistics.median(self.overhead_s)


def run_untraced(prep: Prepared, seconds: float, expected_ids: list,
                 expected_digest: str | None,
                 scratch: Path) -> tuple[Outcome, Samples]:
    """Run probed passes until ``seconds`` have elapsed and the minimum
    sample count is met.  Returns the pooled outcome (counts and notes) and
    the samples of every pass.

    Between passes the set-up is repeated, the k-th extra repeat once k/11
    of ``seconds`` has passed, until ``prep.setup_s`` holds ``SETUP_REPEATS``
    times; the time it takes is not part of any pass.
    """
    pooled = Outcome()
    samples = Samples()
    start = time.perf_counter()

    minimum = {"catalog": 1, "cli-cold": MIN_CLI_CALLS}.get(prep.name, MIN_ITEMS)

    def more() -> bool:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S:
            return False
        return elapsed < seconds or pooled.attempted < minimum

    def set_up_again() -> None:
        prep.setup_s.append(set_up(prep.name, prep.seed, scratch, prep.env, probed=True)[0])

    while more():
        one, _ = run_pass(prep, expected_ids, expected_digest, pooled.digests, probed=True)
        if one.attempted == 0:
            raise RefusedRun(f"{prep.name}: a pass attempted no items")
        samples.add(one)
        pooled.attempted += one.attempted
        pooled.failed += one.failed
        pooled.notes += one.notes[: max(0, 10 - len(pooled.notes))]
        due = (time.perf_counter() - start) * SETUP_REPEATS / seconds
        while len(prep.setup_s) < min(due, SETUP_REPEATS):
            set_up_again()
    while len(prep.setup_s) < SETUP_REPEATS:
        set_up_again()
    return pooled, samples
