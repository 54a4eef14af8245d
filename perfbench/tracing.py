"""In-memory span tracing and call counting around the hurwitznum layers.

Spans are recorded by rebinding module attributes, which works because
every caller inside the package looks these functions up through the
module at call time (``O.weak_hurwitz``, ``kernels.scan_involutions_block``,
``P.compose``).  Nothing inside the package is edited.

One client thread drives each pass, so open spans live on one stack that
is shared, not thread-local: the oracle runs kernel blocks on pool threads
while the client thread waits in ``pool.map``, and a kernel span takes its
parent from the top of that stack when it starts.  Kernel spans never push
onto the stack.
"""

from __future__ import annotations

import inspect
import itertools
import time
from dataclasses import dataclass, field

# Functions whose calls are counted but not timed: a timing wrapper costs
# more than the call it wraps.
PERM_COUNTED = ("compose", "inverse", "conjugate", "cycle_type", "is_transitive")


@dataclass
class Span:
    sid: int
    parent: int | None
    datum: str
    name: str
    start: float
    end: float = 0.0
    cpu: float = 0.0
    attrs: dict = field(default_factory=dict)


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


class Tracer:
    """Records spans and call counts while installed; undo with ``remove``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counts: dict[str, list[int]] = {}
        self.request = ""
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, module, attr: str, wrapper) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def remove(self) -> None:
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)

    def _client_span(self, module, attr: str, name: str, datum_of, attrs_of=None) -> None:
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            datum = datum_of(args) if datum_of else (parent.datum if parent else self.request)
            span = Span(next(self._ids), parent.sid if parent else None, datum, name, 0.0)
            if attrs_of is not None:
                span.attrs.update(attrs_of(args, kwargs))
            self.spans.append(span)
            self.stack.append(span)
            span.start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            if isinstance(result, int):
                span.attrs["result"] = result
            return result

        self._patch(module, attr, wrapper)

    def _kernel_span(self, module, attr: str) -> None:
        orig = getattr(module, attr)

        def wrapper(d, *args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = Span(
                next(self._ids),
                parent.sid if parent else None,
                parent.datum if parent else self.request,
                "kernels.scan_involutions_block",
                0.0,
                attrs={"d": d},
            )
            cpu0 = time.thread_time()
            span.start = time.perf_counter()
            result = orig(d, *args, **kwargs)
            span.end = time.perf_counter()
            span.cpu = time.thread_time() - cpu0
            span.attrs["survivors"] = len(result)
            self.spans.append(span)
            return result

        self._patch(module, attr, wrapper)

    def _counted(self, module, attr: str, name: str) -> None:
        orig = getattr(module, attr)
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return orig(*args, **kwargs)

        self._patch(module, attr, wrapper)

    def _counted_stream(self, module, attr: str, name: str) -> None:
        orig = getattr(module, attr)
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            for item in orig(*args, **kwargs):
                cell[0] += 1
                yield item

        self._patch(module, attr, wrapper)

    def install(self) -> None:
        from hurwitznum import cli, formulas, kernels, oracle, perm, witnesses
        from hurwitznum.branchdata import make_family_datum

        def datum_arg(args) -> str:
            return str(args[0])

        def family_arg(args) -> str:
            return str(make_family_datum(*args[:4]))

        def threads_of(fn):
            sig = inspect.signature(fn)

            def attrs(args, kwargs) -> dict:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return {"threads": bound.arguments.get("threads", 1)}

            return attrs

        self._client_span(cli, "main", "cli.main", None)
        for attr in ("strong_hurwitz", "weak_hurwitz"):
            fn = getattr(oracle, attr)
            self._client_span(oracle, attr, f"oracle.{attr}", datum_arg, threads_of(fn))
        self._client_span(oracle, "unanchored_profile", "oracle.unanchored_profile", datum_arg)
        self._client_span(formulas, "nu_for_family", "formulas.nu_for_family", family_arg)
        self._client_span(witnesses, "enumerate_witnesses", "witnesses.enumerate_witnesses", family_arg)
        self._kernel_span(kernels, "scan_involutions_block")
        for attr in PERM_COUNTED:
            self._counted(perm, attr, f"perm.{attr}_calls")
        self._counted_stream(perm, "class_stream", "perm.class_stream_items")

    def count(self, name: str) -> int:
        return self.counts.get(name, [0])[0]


def layer_metrics(tracer: Tracer, pass_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose phases took ``pass_wall`` s.

    Times are summed span durations, except ``kernels.busy_s``, which sums
    the CPU time of the pool thread running each kernel call, so waiting for
    the interpreter lock is not counted as busy.
    """
    spans = tracer.spans
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def total(name: str) -> float:
        return sum(s.end - s.start for s in by_name.get(name, []))

    def self_time(s: Span) -> float:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.sid, [])]
        return (s.end - s.start) - union_length([k for k in kids if k[1] > k[0]])

    kern = by_name.get("kernels.scan_involutions_block", [])
    calls = len(kern)
    busy = sum(s.cpu for s in kern)
    involutions = sum(double_factorial(s.attrs["d"] - 3) for s in kern)
    survivors = sum(s.attrs["survivors"] for s in kern)

    oracle_spans = [
        s
        for name in ("oracle.strong_hurwitz", "oracle.weak_hurwitz", "oracle.unanchored_profile")
        for s in by_name.get(name, [])
    ]
    oracle_s = sum(s.end - s.start for s in oracle_spans)
    scanning = [s for s in oracle_spans if any(c.name.startswith("kernels.") for c in children.get(s.sid, []))]
    scan_self = sum(self_time(s) for s in scanning)
    scan_capacity = sum(
        union_length([(c.start, c.end) for c in children[s.sid]]) * s.attrs.get("threads", 1)
        for s in scanning
    )

    def results(name: str) -> int:
        return sum(s.attrs.get("result", 0) for s in by_name.get(name, []))

    cli_spans = by_name.get("cli.main", [])
    unanchored = total("oracle.unanchored_profile")
    out = {
        "kernels.calls": calls,
        "kernels.busy_s": busy,
        "kernels.involutions": involutions,
        "kernels.survivors": survivors,
        "kernels.survivor_ratio": survivors / involutions if involutions else 0.0,
        "kernels.involutions_per_s": involutions / busy if busy else 0.0,
        "kernels.parallel_eff": busy / scan_capacity if scan_capacity else 0.0,
        "kernels.oracle_share": busy / oracle_s if oracle_s else 0.0,
        "kernels.wall_share": busy / pass_wall,
        "oracle.strong_s": total("oracle.strong_hurwitz"),
        "oracle.scan_self_s": scan_self,
        "oracle.weak_s": total("oracle.weak_hurwitz"),
        "oracle.unanchored_s": unanchored,
        "oracle.unanchored_share": unanchored / pass_wall,
        "oracle.strong_classes": results("oracle.strong_hurwitz"),
        "oracle.weak_classes": results("oracle.weak_hurwitz"),
        "formulas.calls": len(by_name.get("formulas.nu_for_family", [])),
        "formulas.busy_s": total("formulas.nu_for_family"),
        "witnesses.calls": len(by_name.get("witnesses.enumerate_witnesses", [])),
        "witnesses.busy_s": total("witnesses.enumerate_witnesses"),
        "cli.self_s": sum(self_time(s) for s in cli_spans),
    }
    for name in PERM_COUNTED:
        out[f"perm.{name}_calls"] = tracer.count(f"perm.{name}_calls")
    out["perm.class_stream_items"] = tracer.count("perm.class_stream_items")
    return out
