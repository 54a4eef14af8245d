"""hurwitznum benchmark: time to solution of three workloads, answers checked.

    python3 perfbench/run.py --workload sweep|deep|certify --seed N \
        --seconds S --trace 0|1 [--smoke]

Run from the repository root.  Each pass runs in a fresh worker process
(perfbench/worker.py) with ``src`` on its path, so the oracle's in-process
cache starts empty as in every command-line invocation.  Passes repeat, one
at a time, while another one still fits in ``--seconds`` (a closed loop with
one client).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
``--smoke`` runs the same code on tiny sizes.

The report lists every metric with its unit, median, tail (the highest
percentile with at least ten samples beyond it) and sample count; the last
line of standard output is the JSON result.  Result files and traces go
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

FULL_SIZES = {"sweep": 12, "deep": 7, "certify": 6}
SMOKE_SIZES = {"sweep": 8, "deep": 5, "certify": 4}
DEEP_MAX_THREADS = 2
# Set-up probes (fresh workers that only import) run at the start and after
# every pass, so their samples spread over the whole run.
SETUP_PROBES = 1
# A median needs three passes; certify's take about 9 s each.
MIN_PASSES = 3
# Every run must end within 180 s; workers still running at this point are
# killed and their pass counts as failed.
DEADLINE_S = 165.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "warm_wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "kernels.calls": "count",
    "kernels.busy_s": "s",
    "kernels.involutions": "count",
    "kernels.survivors": "count",
    "kernels.survivor_ratio": "ratio",
    "kernels.involutions_per_s": "1/s",
    "kernels.parallel_eff": "ratio",
    "kernels.oracle_share": "ratio",
    "kernels.wall_share": "ratio",
    "oracle.strong_s": "s",
    "oracle.scan_self_s": "s",
    "oracle.weak_s": "s",
    "oracle.unanchored_s": "s",
    "oracle.unanchored_share": "ratio",
    "oracle.strong_classes": "count",
    "oracle.weak_classes": "count",
    "perm.compose_calls": "count",
    "perm.inverse_calls": "count",
    "perm.conjugate_calls": "count",
    "perm.cycle_type_calls": "count",
    "perm.is_transitive_calls": "count",
    "perm.class_stream_items": "count",
    "formulas.calls": "count",
    "formulas.busy_s": "s",
    "witnesses.calls": "count",
    "witnesses.busy_s": "s",
    "cli.computed": "count",
    "cli.cached": "count",
    "cli.cache_bytes": "B",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}
# Counts that must repeat exactly between passes and runs of the same code.
EXACT = [name for name, unit in PER_LAYER.items() if unit in ("count", "B")]


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def drift(reference: dict, counts: dict) -> list[str]:
    """Exact counts that differ from the reference."""
    return [
        f"{name}: {reference[name]} then {counts.get(name)}"
        for name in sorted(reference)
        if counts.get(name) != reference[name]
    ]


def source_digest(top: str = SRC) -> str:
    """sha256 of the sources under ``top``, compiled files left out."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d not in ("__pycache__", "out") and not d.endswith(".egg-info"))
        for name in sorted(filenames):
            if name.endswith((".so", ".pyd", ".pyc")):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, top).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Runner:
    """Starts workers one at a time and collects their results."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.started = time.perf_counter()
        self.errors: list[str] = []
        self.crashed = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        nproc = len(os.sched_getaffinity(0))
        self.config = {
            "workload": args.workload,
            "size": (SMOKE_SIZES if args.smoke else FULL_SIZES)[args.workload],
            "seed": args.seed,
            "threads": min(DEEP_MAX_THREADS, nproc),
            "out": OUT,
        }
        self.nproc = nproc

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def worker(self, mode: str, traced: bool = False, spans: str = "") -> dict | None:
        remaining = DEADLINE_S - self.elapsed()
        if remaining <= 0:
            return None
        cfg = dict(self.config, mode=mode, traced=traced, spans=spans)
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, json.dumps(cfg)],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            self.crashed += 1
            self.errors.append(f"{mode} worker killed at the {DEADLINE_S:.0f} s deadline")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            detail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
            self.crashed += 1
            self.errors.append(f"{mode} worker failed: {detail[0]}")
            return None
        return json.loads(lines[-1])

    def repeat(self, step, at_least: int) -> list:
        """Run ``step`` (one pass or one pair of passes) at least ``at_least``
        times, then while another one is predicted to end within --seconds."""
        results, durations = [], []
        while len(results) < at_least or self.elapsed() + statistics.median(durations) <= self.args.seconds:
            t0 = time.perf_counter()
            result = step()
            if result is None:
                break
            results.append(result)
            durations.append(time.perf_counter() - t0)
        return results


def pass_total(p: dict) -> float:
    """Time of a pass at the reference speed: the cold phase plus one warm
    repetition."""
    return p["wall_s"] + statistics.median(p["warm_s"])


def measure(runner: Runner) -> tuple[dict, list[dict], dict]:
    """End-to-end run: returns (metrics, passes, samples)."""
    probes = [runner.worker("setup") for _ in range(SETUP_PROBES)]

    def step():
        result = runner.worker("pass")
        if result is not None:
            probes.extend(runner.worker("setup") for _ in range(SETUP_PROBES))
        return result

    passes = runner.repeat(step, MIN_PASSES)
    setups = [p for p in probes + passes if p]
    samples = {
        "setup_s": [p["setup_s"] for p in setups],
        "wall_s": [p["wall_s"] for p in passes],
        "warm_wall_s": [w for p in passes for w in p["warm_s"]],
        "peak_rss_mb": [p["rss_mb"] for p in passes],
        "raw_setup_s": [p["raw_setup_s"] for p in setups],
        "raw_wall_s": [p["raw_wall_s"] for p in passes],
        "raw_warm_wall_s": [w for p in passes for w in p["raw_warm_s"]],
    }
    if not passes:
        return {}, passes, samples
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    latencies = [x for p in passes for x in p["latencies_ms"]]
    if latencies:
        samples["latency_p50_ms"] = samples["latency_tail_ms"] = latencies
    return metrics, passes, samples


def measure_layers(runner: Runner) -> tuple[dict, list[dict], dict]:
    """Traced run: returns (metrics, passes, samples)."""
    tag = f"{runner.args.workload}-seed{runner.args.seed}"
    made = [0]

    def pair():
        plain = runner.worker("pass")
        if plain is None:
            return None
        spans = os.path.join(OUT, f"spans-{tag}-{made[0]}.jsonl")
        traced = runner.worker("pass", traced=True, spans=spans)
        if traced is None:
            return None
        made[0] += 1
        return plain, traced

    pairs = runner.repeat(pair, 1)
    passes = [p for pr in pairs for p in pr]
    if not pairs:
        return {}, passes, {}
    samples = {name: [t["layers"][name] for _, t in pairs] for name in PER_LAYER if name != "trace.overhead_frac"}
    samples["trace.overhead_frac"] = [
        (t["wall_s"] + sum(t["warm_s"])) / pass_total(p) - 1 for p, t in pairs
    ]
    counts = [{name: t["layers"][name] for name in EXACT} for _, t in pairs]
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics.update(counts[0])
    for later in counts[1:]:
        runner.errors += [f"nondeterminism between passes: {d}" for d in drift(counts[0], later)]
    ref_path = os.path.join(OUT, "exact-counts.json")
    refs = {}
    if os.path.exists(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            refs = json.load(fh)
    key = "|".join(
        str(x)
        for x in (
            runner.args.workload,
            runner.config["size"],
            runner.config["threads"],
            pairs[0][1]["backend"],
            source_digest(),
            source_digest(HERE),
        )
    )
    if key in refs:
        runner.errors += [f"nondeterminism against an earlier run: {d}" for d in drift(refs[key], counts[0])]
    else:
        refs[key] = counts[0]
        with open(ref_path, "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
    return metrics, passes, samples


def report_line(name: str, unit: str, value: float, values: list[float], n: int | None = None) -> str:
    """One report row: the reported value, then the median and tail of the samples."""

    def fmt(x: float) -> str:
        return str(x) if isinstance(x, int) else f"{x:.6g}"

    t = tail(values)
    median = fmt(statistics.median(values)) if values else "-"
    tail_text = f"{fmt(t[1])} (p{t[0]:.1f})" if t else "-"
    return f"{name:<28}{unit:<7}{fmt(value):<14}{median:<14}{tail_text:<22}{len(values) if n is None else n}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(FULL_SIZES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hurwitznum", "__init__.py")):
        print(f"no hurwitznum sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    runner = Runner(args)
    metrics, passes, samples = (measure_layers if args.trace else measure)(runner)
    if not passes:
        for e in runner.errors:
            print(e, file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes) + runner.crashed
    failed = sum(p["failed"] for p in passes) + runner.crashed
    errors = runner.errors + [e for p in passes for e in p["errors"]]
    stamp = {
        "workload": args.workload,
        "size": runner.config["size"],
        "seed": args.seed,
        "trace": args.trace,
        "backend": passes[0]["backend"],
        "python": passes[0]["python"],
        "nproc": runner.nproc,
        "threads": runner.config["threads"] if args.workload == "deep" else 1,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "passes": len(passes),
    }
    units = PER_LAYER if args.trace else END_TO_END
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(f"{'metric':<28}{'unit':<7}{'value':<14}{'median':<14}{'tail':<22}n")
    for name, unit in units.items():
        print(report_line(name, unit, metrics[name], samples[name]))
    if not args.trace:
        for name in ("raw_setup_s", "raw_wall_s", "raw_warm_wall_s"):
            print(report_line(name, "s", metrics[name], samples[name]))
        latencies = samples.get("latency_p50_ms")
        if latencies:
            t = tail(latencies)
            print(report_line("latency_p50_ms", "ms", statistics.median(latencies), latencies))
            print(report_line("latency_tail_ms", "ms", t[1] if t else max(latencies), latencies))
        print(report_line("fail_frac", "ratio", failed / attempted if attempted else 0.0, [], attempted))
    for e in errors:
        print(f"FAILED: {e}")

    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"stamp": stamp, "samples": samples, "errors": errors, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
