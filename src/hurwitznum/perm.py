"""Exact permutation arithmetic and conjugacy-class machinery.

A permutation of degree ``d`` is a tuple ``p`` of length ``d`` whose entry
``p[x]`` is the image of the point ``x``; points are 0-indexed and the tuple
is a bijection on ``{0, ..., d-1}``.  Dense image tuples keep the inner loops
of the enumeration code cache friendly and make permutations hashable
values.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import permutations as _point_permutations
from operator import itemgetter

from .branchdata import is_partition

Perm = tuple[int, ...]
CycleType = tuple[int, ...]

# class_list keeps its listings only up to this degree: the 66 classes of
# S_1 to S_8, with 46,233 permutations in all.
LISTED_DEGREE = 8


def identity(d: int) -> Perm:
    """The identity permutation on ``d`` points.

    >>> identity(3)
    (0, 1, 2)
    """
    return tuple(range(d))


def compose(p: Perm, q: Perm) -> Perm:
    """The composite mapping ``x`` to ``p(q(x))``.

    >>> compose((1, 2, 0), (1, 0, 2))
    (2, 1, 0)
    """
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} != {len(q)}")
    if len(q) > 1:
        return itemgetter(*q)(p)
    return tuple(p[i] for i in q)  # one index would give itemgetter a bare point


def inverse(p: Perm) -> Perm:
    """The inverse permutation.

    >>> inverse((1, 2, 0))
    (2, 0, 1)
    """
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


def conjugate(p: Perm, t: Perm) -> Perm:
    """The conjugate ``t p t^-1``; has the same cycle type as ``p``."""
    if len(p) != len(t):
        raise ValueError(f"degree mismatch: {len(p)} != {len(t)}")
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[t[x]] = t[y]
    return tuple(out)


def cycle_type(p: Perm) -> CycleType:
    """Cycle lengths sorted weakly decreasing, fixed points counted as 1s.

    >>> cycle_type((1, 0, 3, 4, 2))
    (3, 2)
    """
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        n = 1
        seen[start] = True
        x = p[start]
        while x != start:
            seen[x] = True
            n += 1
            x = p[x]
        lengths.append(n)
    lengths.sort(reverse=True)
    return tuple(lengths)


def from_cycles(d: int, cycs: Iterable[Sequence[int]]) -> Perm:
    """Build a permutation of degree ``d`` from disjoint cycles.

    >>> from_cycles(4, [(0, 1), (2, 3)])
    (1, 0, 3, 2)
    """
    images = list(range(d))
    used = set()
    for cyc in cycs:
        for i, x in enumerate(cyc):
            if not 0 <= x < d or x in used:
                raise ValueError(f"bad cycle point {x}")
            used.add(x)
            images[x] = cyc[(i + 1) % len(cyc)]
    return tuple(images)


def class_size(parts: Sequence[int]) -> int:
    """Number of permutations with the given cycle type.

    The count is ``d! / prod(c_i^{m_i} * m_i!)`` over the distinct part
    values ``c_i`` with multiplicities ``m_i``.

    >>> class_size((2, 1))
    3
    >>> class_size((2,) * 8) == 2027025
    True
    """
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts}")
    d = sum(parts)
    denom = 1
    mult: dict[int, int] = {}
    for c in parts:
        mult[c] = mult.get(c, 0) + 1
    for c, m in mult.items():
        denom *= c**m * math.factorial(m)
    return math.factorial(d) // denom


def class_stream(parts: Sequence[int]) -> Iterator[Perm]:
    """Every permutation of the given cycle type, exactly once.

    The order is deterministic: the smallest point not yet placed anchors the
    next cycle, the cycle length runs over the distinct unused part values in
    decreasing order, and the remaining cycle points run in lexicographic
    order.  Anchoring the smallest free point means two equal-length cycles
    are produced in a fixed order, so no permutation appears twice.
    """
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts}")
    d = sum(parts)
    # Invariant: images[x] == x for every free point x on entry to rec.
    images = list(range(d))

    def rec(free: tuple[int, ...], todo: tuple[int, ...]) -> Iterator[Perm]:
        if not todo:
            yield tuple(images)
            return
        anchor = free[0]
        rest = free[1:]
        seen_len = set()
        for j, length in enumerate(todo):
            if length in seen_len:
                continue
            seen_len.add(length)
            remaining = todo[:j] + todo[j + 1 :]
            if length == 1:
                yield from rec(rest, remaining)
                continue
            for tail in _point_permutations(rest, length - 1):
                cyc = (anchor, *tail)
                for i, x in enumerate(cyc):
                    images[x] = cyc[(i + 1) % length]
                tail_set = set(tail)
                left = tuple(x for x in rest if x not in tail_set)
                yield from rec(left, remaining)
                for x in cyc:
                    images[x] = x

    yield from rec(tuple(range(d)), tuple(parts))


@lru_cache(maxsize=None)
def class_list(parts: CycleType) -> tuple[Perm, ...]:
    """``class_stream(parts)`` as a tuple, listed once per process.

    Only for degrees up to ``LISTED_DEGREE``, so the cache stays bounded;
    stream a larger class with ``class_stream``.

    >>> class_list((2, 1))
    ((1, 0, 2), (2, 1, 0), (0, 2, 1))
    """
    if sum(parts) > LISTED_DEGREE:
        raise ValueError(f"class_list lists classes of degree at most {LISTED_DEGREE}")
    return tuple(class_stream(parts))


def class_representative(parts: Sequence[int]) -> Perm:
    """The permutation whose cycles fill ``0..d-1`` in order of the parts.

    >>> class_representative((3, 2))
    (1, 2, 0, 4, 3)
    """
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts}")
    out = []
    start = 0
    for length in parts:
        out.append(tuple(range(start, start + length)))
        start += length
    return from_cycles(start, out)


def orbit_count(n: int, maps: Iterable[Sequence[int]]) -> int:
    """Number of orbits of ``0..n-1`` under the edges ``i -- m[i]`` of every
    map ``m``, by union-find with path halving.

    >>> orbit_count(4, [(1, 0, 2, 3)])
    3
    """
    parent = list(range(n))
    orbits = n
    for m in maps:
        for i, j in enumerate(m):
            # Walk i and j to their roots, halving each path on the way.
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]
            if i != j:
                parent[i] = j
                orbits -= 1
    return orbits


def is_transitive(gens: Sequence[Perm], d: int) -> bool:
    """True iff the group generated by ``gens`` has a single orbit.

    Counted by ``orbit_count`` over the generator images, so no group
    elements are materialized.
    """
    for g in gens:
        if len(g) != d:
            raise ValueError(f"degree mismatch: {len(g)} != {d}")
    return orbit_count(d, gens) == 1
