"""Tests of the benchmark itself, on the tiny smoke sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def smoke(workload: str, trace: int, cwd: str = ROOT) -> dict:
    proc = bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke", cwd=cwd
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(11))) == (100 * 1 / 11, 0)
    assert run.tail([float(x) for x in range(100, 0, -1)]) == (90.0, 90.0)


def test_scale_divides_by_the_mean_of_the_loop_times_around_each_piece(monkeypatch):
    loop_times = iter([0.02, 0.02, 0.04])
    monkeypatch.setattr(worker, "reference", lambda: next(loop_times))
    scale = worker.Scale()
    assert scale(1.0) == pytest.approx(1.0 * worker.REFERENCE_S / 0.02)
    assert scale(3.0) == pytest.approx(3.0 * worker.REFERENCE_S / 0.03)


def test_reference_loop_checks_its_result():
    assert worker.reference() > 0


def test_union_length_merges_overlaps():
    assert tracing.union_length([]) == 0
    assert tracing.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.75)]) == 4


def test_layer_metrics_self_time_and_parallel_efficiency():
    t = tracing.Tracer()
    t.spans = [
        tracing.Span(1, None, "x", "oracle.strong_hurwitz", 0.0, 10.0, attrs={"threads": 2, "result": 3}),
        tracing.Span(2, 1, "x", "kernels.scan_involutions_block", 1.0, 5.0, 2.0, {"d": 6, "survivors": 1}),
        tracing.Span(3, 1, "x", "kernels.scan_involutions_block", 2.0, 7.0, 3.0, {"d": 6, "survivors": 2}),
        tracing.Span(4, None, "y", "oracle.weak_hurwitz", 10.0, 11.0, attrs={"threads": 1, "result": 2}),
    ]
    m = tracing.layer_metrics(t, pass_wall=20.0)
    assert m["kernels.calls"] == 2
    assert m["kernels.involutions"] == 2 * 3  # (6 - 3)!! per block
    assert m["kernels.survivors"] == 3
    assert m["kernels.busy_s"] == 5.0
    assert m["oracle.scan_self_s"] == 10.0 - 6.0  # children cover [1, 7]
    assert m["kernels.parallel_eff"] == 5.0 / (6.0 * 2)
    assert m["kernels.oracle_share"] == 5.0 / 11.0
    assert m["oracle.strong_s"] == 10.0 and m["oracle.weak_s"] == 1.0
    assert (m["oracle.strong_classes"], m["oracle.weak_classes"]) == (3, 2)


def test_drift_names_every_changed_count():
    assert run.drift({"a": 1, "b": 2}, {"a": 1, "b": 2}) == []
    assert run.drift({"a": 1, "b": 2}, {"a": 1, "b": 3}) == ["b: 2 then 3"]


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(run.FULL_SIZES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.FULL_SIZES))
def test_smoke_run_reports_every_metric_and_passes_its_checks(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def copy_checkout(dst: str, with_src: bool) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dst)
    ignore = shutil.ignore_patterns("__pycache__", "out", ".pytest_cache")
    shutil.copytree(HERE, os.path.join(dst, "perfbench"), ignore=ignore)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dst, "src"), ignore=ignore)


def test_refuses_to_run_without_the_program(tmp_path):
    copy_checkout(str(tmp_path), with_src=False)
    proc = bench("--workload", "deep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_count_drift_between_runs_is_flagged(tmp_path):
    copy_checkout(str(tmp_path), with_src=True)
    assert smoke("deep", 1, cwd=str(tmp_path))["correct"] is True
    ref_path = tmp_path / "perfbench" / "out" / "exact-counts.json"
    refs = json.loads(ref_path.read_text())
    for counts in refs.values():
        counts["kernels.survivors"] += 1
    ref_path.write_text(json.dumps(refs))
    proc = bench(
        "--workload", "deep", "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke", cwd=str(tmp_path)
    )
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False
    assert "nondeterminism against an earlier run: kernels.survivors" in proc.stdout
