"""The benchmark's own tests: its correctness gate must be able to fail.

    python3 -m pytest perfbench -q

Each corruption is installed in this test process only (3/2 -> 1 in the
closed-form product), so a run over it must count failures and be flagged.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import liejets.jets  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

BASELINE = json.loads(bench.BASELINE.read_text())["catalog"]
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


@pytest.fixture
def corrupted_jet_mul(monkeypatch):
    """jet_mul with the 3/2 of its order-3 cross term replaced by 1."""
    monkeypatch.setattr(liejets.jets, "_THREE_HALVES", Fraction(1))


def flagged(out) -> dict:
    result = bench.result_line({}, {}, out.attempted, out.failed)
    assert out.failed > 0 and out.failed / out.attempted > 0
    assert result["correct"] is False
    return result


def test_plain_products_pass_clean():
    out = wl.run_items(wl.plain_batch(seed=3, pairs=2, extra=0))
    assert out.attempted == 30 and out.failed == 0


def test_plain_products_flag_corrupted_engine(corrupted_jet_mul):
    flagged(wl.run_items(wl.plain_batch(seed=3, pairs=2, extra=0)))


def test_symbolic_products_flag_corrupted_engine(corrupted_jet_mul):
    batch = [item for item in wl.symbolic_batch(seed=3, mixed_pairs=1, extra=0)
             if item.label.startswith("free-nilpotent(2,3)")]
    flagged(wl.run_items(batch))


def test_cli_cold_flags_corrupted_reference(corrupted_jet_mul, tmp_path):
    # The children run the real engines; the in-process reference is corrupted.
    batch = wl.cli_batch(seed=3, scratch=tmp_path, pairs=1)[:3]
    flagged(wl.run_cli_calls(batch, wl.child_env()))


def test_catalog_flags_corrupted_engine(corrupted_jet_mul):
    out = wl.Outcome()
    wl.run_catalog(0, BASELINE["check_ids"], None, out, set(), trials=2)
    flagged(out)


def test_catalog_flags_digest_mismatch():
    out = wl.Outcome()
    report = liejets.run_suite("all", trials=1, seed=0)
    wl.judge_report(report, BASELINE["check_ids"], "0" * 64, out, set())
    assert report.all_passed
    flagged(out)


def test_catalog_flags_missing_check():
    out = wl.Outcome()
    report = liejets.run_suite("s6", trials=1, seed=0)
    wl.judge_report(report, BASELINE["check_ids"], None, out, set())
    flagged(out)


def test_samples_are_scaled_to_the_reference_speed_without_the_probes():
    out = wl.Outcome(reference_s=0.001)
    # Host at half the reference speed: the reference work took 2 ms.
    out.probes = [(9.0, 9.5, 0.002), (10.5, 11.0, 0.002), (12.5, 13.0, 0.002)]
    out.item_s.extend([0.25, 2.0])
    out.item_at.extend([9.6, 10.0])  # the second sample spans the 10.5-11.0 probe
    out.span = (9.5, 12.5)
    items, calls, wall = out.scaled()
    assert list(items) == pytest.approx([0.125, 0.75])
    assert len(calls) == 0
    assert wall == pytest.approx(1.25)


def test_an_unprobed_pass_is_reported_as_measured():
    out = wl.run_items(wl.plain_batch(seed=3, pairs=1, extra=0))
    items, _, wall = out.scaled()
    assert not out.probes and items is out.item_s and wall == out.wall_s


def test_percentile_steps_rather_than_jumps_at_a_cluster_edge():
    # p90 sits on the edge of a cluster of 1.0s and one of 2.0s: one more
    # item in the upper cluster moves a nearest rank from 1.0 to 2.0.
    on_edge = [1.0] * 90 + [2.0] * 10
    assert bench.percentile(on_edge, 90) == pytest.approx(1.4)
    assert bench.percentile(on_edge + [2.0], 90) == pytest.approx(1.6)
    assert bench.percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_run_with_no_items_is_refused(tmp_path):
    with pytest.raises(ValueError, match="refused"):
        bench.result_line({}, {}, attempted=0, failed=0)
    prep = wl.Prepared("plain-products", 0, [], [0.0], wl.child_env())
    with pytest.raises(wl.RefusedRun):
        wl.run_untraced(prep, 1.0, BASELINE["check_ids"], None, tmp_path)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170, check=False,
    )


def traced_counts(seed: int) -> dict:
    proc = run_bench(ROOT, "--workload", "plain-products", "--seed", str(seed),
                     "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert list(metrics) == PER_LAYER
    return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}


def catalog_counts(seed: int) -> dict:
    """The traced run's call counts over a two-trial catalog, in process."""
    profile = cProfile.Profile()
    profile.enable()
    liejets.run_suite("all", trials=2, seed=seed)
    profile.disable()
    _, calls = tracing.aggregate(pstats.Stats(profile))
    return {metric: calls.get((module, func), 0) for metric, module, func in tracing.COUNTED_CALLS}


def test_traced_counts_repeat_at_one_seed_and_move_with_the_seed():
    first, again, other = traced_counts(1), traced_counts(1), traced_counts(2)
    assert first == again
    for count in ("fractions.new_calls", "scalars.mul_calls", "scalars.term_pairs",
                  "algebras.bracket_calls"):
        assert first[count] != other[count], count


def test_catalog_matrix_counts_repeat_at_one_seed_and_move_with_the_seed():
    first, again, other = catalog_counts(1), catalog_counts(1), catalog_counts(2)
    assert first == again
    assert first["matrices.wmat_mul_calls"] != other["matrices.wmat_mul_calls"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "catalog", "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
