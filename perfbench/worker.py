"""One fresh worker process: set up hurwitznum, run one pass, print a JSON line.

A pass runs the workload cold, with the oracle's in-process cache empty as
in every command-line invocation, then repeats it warm in the same process
on every cache the cold phase filled.  Every answer is checked; a wrong or
disagreeing count fails its datum without stopping the pass.

Usage (the runner starts it): python3 perfbench/worker.py '<json config>'
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

# Times are reported at a fixed reference speed.  The CPU speed of a
# shared host swings (by up to 1.9x within seconds on the 2-vCPU machine the
# benchmark was defined on), and the swing slows the program and a fixed
# reference loop alike.  So the benchmark times the reference loop right
# before and after each timed piece of work and scales the piece by
# REFERENCE_S / (mean of the two loop times): the result is the time the
# piece would take on a machine where one reference loop takes REFERENCE_S.
# The loop is the benchmark's own code and shares nothing with hurwitznum,
# so a change to the program moves scaled times as much as raw ones.
REFERENCE_S = 0.01
REFERENCE_ROUNDS = 3000
_REF_P = tuple(range(1, 40)) + (0,)
_REF_Q = tuple(reversed(range(40)))


def reference() -> float:
    """Seconds one run of the reference loop takes now: composition of
    40-point permutations as tuples, with set and dict traffic."""
    t0 = time.perf_counter()
    p, q, seen, odd = _REF_P, _REF_Q, {}, 0
    for i in range(REFERENCE_ROUNDS):
        r = tuple(p[j] for j in q)
        p, q = q, r
        seen[r] = i
        odd += len({x for x in r if x & 1})
    if odd != 20 * REFERENCE_ROUNDS or not seen:
        raise RuntimeError("reference loop computed a wrong result")
    return time.perf_counter() - t0


class Scale:
    """Scales consecutive pieces of timed work to the reference speed.  The
    loop timed after one piece is the one timed before the next."""

    def __init__(self) -> None:
        self.last = reference()

    def __call__(self, seconds: float) -> float:
        now = reference()
        scaled = seconds * REFERENCE_S * 2 / (self.last + now)
        self.last = now
        return scaled


SETUP_REF = reference()
SETUP_START = time.perf_counter()
import hurwitznum  # noqa: E402
import hurwitznum.cli  # noqa: E402,F401
import hurwitznum.formulas  # noqa: E402,F401
import hurwitznum.witnesses  # noqa: E402,F401
from hurwitznum import kernels  # noqa: E402

BACKEND = kernels.backend()
SETUP_S = time.perf_counter() - SETUP_START

import contextlib  # noqa: E402
import io  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
from dataclasses import asdict  # noqa: E402
from itertools import combinations_with_replacement, permutations  # noqa: E402

from hurwitznum import cli, oracle  # noqa: E402
from hurwitznum import formulas as F  # noqa: E402
from hurwitznum import witnesses as W  # noqa: E402

import tracing  # noqa: E402

# Known answers, keyed by workload size.  Full sizes: sweep --max-d 12,
# deep k = 7 (d = 14), certify d <= 6; the small sizes are the smoke mode.
# certify's cold phase is scaled in chunks of about CHUNK_S each.
SWEEP_DATA = {12: 98, 8: 28}
DEEP_COUNTS = {7: (105, 60), 5: (7, 6)}
CERTIFY_DATA = {6: 397, 4: 39}
CHUNK_S = 0.5

# The warm phase repeats for WARM_SHARE of the cold phase's time, at least
# WARM_MIN_SECONDS (at least once, at most WARM_MAX_REPS times); the runner
# reports the median repetition of the run.
WARM_SHARE = 0.2
WARM_MIN_SECONDS = 0.1
WARM_MAX_REPS = 100

_SWEEP_COUNTS = re.compile(r"\((\d+) computed, (\d+) cached\)")


class Pass:
    """Timings, answers checked and failures of one worker pass."""

    def __init__(self) -> None:
        self.wall_s = 0.0  # at the reference speed
        self.raw_wall_s = 0.0
        self.warm_s: list[float] = []  # at the reference speed
        self.raw_warm_s: list[float] = []
        self.scale = Scale()
        self.latencies_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.extra: dict[str, int] = {}

    def cold(self, seconds: float) -> None:
        self.raw_wall_s += seconds
        self.wall_s += self.scale(seconds)

    def warm(self, seconds: float) -> None:
        self.raw_warm_s.append(seconds)
        self.warm_s.append(self.scale(seconds))

    def check(self, ok: bool, n: int, message: str) -> None:
        self.attempted += n
        if not ok:
            self.failed += n
            if len(self.errors) < 5:
                self.errors.append(message)


def partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n, weakly decreasing parts, in reverse-lexicographic order."""
    if n == 0:
        return [()]
    top = n if largest is None else min(n, largest)
    return [(first, *rest) for first in range(top, 0, -1) for rest in partitions(n - first, first)]


def certify_data(max_d: int, seed: int) -> list[hurwitznum.BranchDatum]:
    """Every admissible three-partition datum with d <= max_d, in every slot
    order, shuffled by the seed."""
    out = []
    for d in range(2, max_d + 1):
        for combo in combinations_with_replacement(partitions(d), 3):
            chi = sum(len(p) for p in combo) - d
            if chi % 2 or chi > 2:
                continue
            for pis in sorted(set(permutations(combo))):
                out.append(hurwitznum.BranchDatum((2 - chi) // 2, d, pis))
    random.Random(seed).shuffle(out)
    return out


def warm_reps(traced: bool, cold_s: float):
    """Yield once per warm repetition; the caller times each one."""
    if traced:
        yield
        return
    seconds = max(WARM_MIN_SECONDS, WARM_SHARE * cold_s)
    start = time.perf_counter()
    reps = 0
    while reps < 1 or (time.perf_counter() - start < seconds and reps < WARM_MAX_REPS):
        yield
        reps += 1


def run_sweep(cfg: dict, res: Pass, traced: bool) -> None:
    max_d = cfg["size"]
    n = SWEEP_DATA[max_d]
    want = f"total: {n} data, 0 discrepancies"
    path = os.path.join(cfg["out"], f"sweep-cache-{os.getpid()}.jsonl")
    if os.path.exists(path):
        os.remove(path)
    argv = ["sweep", "--max-d", str(max_d), "--cache", path]

    def invoke() -> tuple[float, int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()

    computed = cached = 0

    def tally(err: str) -> None:
        nonlocal computed, cached
        m = _SWEEP_COUNTS.search(err)
        if m:
            computed += int(m.group(1))
            cached += int(m.group(2))

    try:
        wall, rc, cold, err = invoke()
        res.cold(wall)
        tally(err)
        lines = cold.splitlines()
        res.check(rc == 0 and lines[-1:] == [want], n, f"cold sweep exit {rc}: {lines[-1:]}")
        res.extra["cli.cache_bytes"] = os.path.getsize(path) if os.path.exists(path) else 0
        for _ in warm_reps(traced, res.raw_wall_s):
            wall, rc, warm, err = invoke()
            res.warm(wall)
            tally(err)
            res.check(rc == 0 and warm == cold, n, f"warm sweep exit {rc} or stdout differs from cold")
    finally:
        if os.path.exists(path):
            os.remove(path)
    res.extra["cli.computed"] = computed
    res.extra["cli.cached"] = cached


def run_deep(cfg: dict, res: Pass, traced: bool) -> None:
    k = cfg["size"]
    pi = (2 * k,)
    datum = hurwitznum.make_family_datum(2, 3, k, pi)
    threads = cfg["threads"]
    want = DEEP_COUNTS[k]

    def solve() -> tuple[float, tuple[int, int]]:
        t0 = time.perf_counter()
        strong = oracle.strong_hurwitz(datum, threads=threads)
        weak = oracle.weak_hurwitz(datum, oracle.FULL_MOVES, threads=threads)
        return time.perf_counter() - t0, (strong, weak)

    wall, got = solve()
    res.cold(wall)
    weak = got[1]
    formula = F.nu_for_family(2, 3, k, pi).nu
    witnessed = len(W.enumerate_witnesses(2, 3, k, pi))
    res.check(
        got == want and weak == formula == witnessed,
        1,
        f"deep {datum}: strong, weak {got}, formula {formula}, witnesses {witnessed}; want {want}",
    )
    for _ in warm_reps(traced, res.raw_wall_s):
        wall, again = solve()
        res.warm(wall)
        res.check(again == want, 1, f"warm deep {datum}: {again}, want {want}")


def run_certify(cfg: dict, res: Pass, traced: bool) -> None:
    data = certify_data(cfg["size"], cfg["seed"])
    n = CERTIFY_DATA[cfg["size"]]
    if len(data) != n:
        raise RuntimeError(f"certify generated {len(data)} data, want {n}")

    def anchored(datum) -> tuple[int, ...]:
        return (oracle.strong_hurwitz(datum),) + tuple(
            oracle.weak_hurwitz(datum, conv) for conv in oracle.ALL_CONVENTIONS
        )

    # The cold phase certifies each datum: the anchored oracle must agree
    # with the exhaustive unanchored enumeration.  The warm phase asks the
    # anchored oracle again and checks it against those expected counts.
    # The reference loop runs between data, once at least CHUNK_S of cold
    # work has gone by since it last ran.
    expected = {}
    chunk = 0.0
    for datum in data:
        t0 = time.perf_counter()
        try:
            strong, weak = oracle.unanchored_profile(datum)
            expected[datum] = (strong,) + tuple(weak[c.label()] for c in oracle.ALL_CONVENTIONS)
            got = anchored(datum)
            message = f"certify {datum}: anchored {got} != unanchored {expected[datum]}"
        except Exception as exc:  # a crash fails this datum only
            got, message = None, f"certify {datum}: {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        res.latencies_ms.append(latency * 1000)
        res.check(got is not None and got == expected[datum], 1, message)
        chunk += latency
        if chunk >= CHUNK_S:
            res.cold(chunk)
            chunk = 0.0
    if chunk:
        res.cold(chunk)

    checked = [datum for datum in data if datum in expected]
    for _ in warm_reps(traced, res.raw_wall_s):
        t0 = time.perf_counter()
        answers = [anchored(datum) for datum in checked]
        res.warm(time.perf_counter() - t0)
        for datum, got in zip(checked, answers):
            res.check(got == expected[datum], 1, f"warm certify {datum}: {got} != {expected[datum]}")


WORKLOADS = {"sweep": run_sweep, "deep": run_deep, "certify": run_certify}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(hurwitznum.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported hurwitznum from {hurwitznum.__file__}, not from {src}")
    out: dict = {
        "setup_s": SETUP_S * REFERENCE_S * 2 / (SETUP_REF + reference()),
        "raw_setup_s": SETUP_S,
        "backend": BACKEND,
        "python": sys.version.split()[0],
    }
    if cfg["mode"] == "pass":
        res = Pass()
        tracer = tracing.Tracer() if cfg["traced"] else None
        if tracer is not None:
            tracer.request = cfg["workload"]
            tracer.install()
        try:
            WORKLOADS[cfg["workload"]](cfg, res, tracer is not None)
        finally:
            if tracer is not None:
                tracer.remove()
        out.update(
            wall_s=res.wall_s,
            raw_wall_s=res.raw_wall_s,
            warm_s=res.warm_s,
            raw_warm_s=res.raw_warm_s,
            latencies_ms=res.latencies_ms,
            attempted=res.attempted,
            failed=res.failed,
            errors=res.errors,
        )
        if tracer is not None:
            layers = tracing.layer_metrics(tracer, res.raw_wall_s + sum(res.raw_warm_s))
            for name in ("cli.computed", "cli.cached", "cli.cache_bytes"):
                layers[name] = res.extra.get(name, 0)
            out["layers"] = layers
            with open(cfg["spans"], "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(asdict(span)) + "\n")
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
