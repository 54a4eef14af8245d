"""Pure Python twin of the compiled scan kernel.

The hot loop of the oracle scans every fixed-point-free involution ``v`` of
degree ``d`` and keeps those whose forced companion permutation has a
prescribed cycle type while generating a transitive group together with the
anchored permutation.  The scan takes ``(d, lens, target)``: the anchor
is ``r = class_representative(lens)``, whose cycle ``i`` lies on the points
``s_i .. s_i + l_i - 1`` as ``x -> x + 1``, and the kernel derives its
inverse ``phi`` from ``lens``.  The anchor's point classes, which decide
transitivity, are the cycles of ``phi``.  This module implements that scan
in plain Python and is the reference the compiled twin `_speed` (built from
`_speed.c`) is tested against; `kernels` picks one at import time, and only
takes the compiled twin when its `API` equals this module's.

Conjugating by an element of the anchor's centralizer fixes the anchor and
maps survivors to survivors, so the scan keeps only the survivors that pass
one symmetry test, which the least member of every centralizer orbit
passes: for every ``g`` in ``S``, ``conjugate(v, g)`` is not
lexicographically smaller than ``v``.  ``S`` holds every power of the
rotation of each cycle, cycle 0 included, and the pointwise swap of each
pair of adjacent equal-length cycles, fixed points included; all of them
commute with ``r``.  The test runs as each pair is placed, and cuts only
when a conjugate is already strictly smaller on positions that both sides
have fixed, so at the last pair it is the full comparison.  ``S`` is built
once per ``lens``.

The walk also follows the composite ``t[x] = phi[v[x]]`` as it grows:
placing the pair ``(a, b)`` adds the edges ``a -> phi[b]`` and
``b -> phi[a]``, and the edges placed so far form closed cycles and open
paths.  A subtree is cut when an edge closes a cycle whose length is no
longer left among the target's parts (otherwise that part is taken off), or
when an open path has more points than the largest part, since every
completion then has the wrong cycle type.  Backtracking undoes the edges.
These cuts drop only non-survivors.  They are also the whole cycle-type
test: at a leaf every point lies on a closed cycle of ``t``, and each cycle
took a part of its length off the target, so the cycle lengths are a
sub-multiset of the target with the same sum ``d``, that is the whole
target.  The leaf therefore tests only transitivity, and the scan keeps
exactly the involutions that survive and pass the symmetry test, in the
order one walk from the empty pairing reaches them.

The walk pairs the least free point next, for every anchor, so the
positions of ``v`` fill from 0 upwards and the symmetry test's prefix
comparisons decide soon after the root.  When ``v(0)`` lies on cycle 0,
the rotation that moves it to 0 compares position 0 at the root pair.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from itertools import accumulate

# Bumped whenever the signature or the semantics of the scan change; a
# compiled twin whose `API` differs is stale and is not used.
API = 10

Perm = tuple[int, ...]


def backend() -> str:
    return "pure"


@lru_cache(maxsize=None)
def _anchor(lens: tuple[int, ...]) -> tuple[Perm, Perm, int, tuple[tuple[Perm, Perm], ...]]:
    """(phi, forest, number of roots, S as (g, g^-1) pairs) for the anchor
    ``class_representative(lens)``; in the forest every point of a cycle of
    phi points to the cycle's least point."""
    d = sum(lens)
    starts = list(accumulate(lens, initial=0))
    phi = list(range(d))
    forest = [0] * d
    gens = []
    for i, (s, n) in enumerate(zip(starts, lens)):
        for j in range(n):
            phi[s + j] = s + (j - 1) % n
            forest[s + j] = s
        for k in range(1, n):
            g = list(range(d))
            ginv = list(range(d))
            for j in range(n):
                g[s + j] = s + (j + k) % n
                ginv[s + j] = s + (j - k) % n
            gens.append((tuple(g), tuple(ginv)))
        if i and lens[i - 1] == n:
            g = list(range(d))
            p = starts[i - 1]
            for j in range(n):
                g[p + j], g[s + j] = s + j, p + j
            gens.append((tuple(g), tuple(g)))
    return tuple(phi), tuple(forest), len(lens), tuple(gens)


# Named for the old split into blocks; perfbench's tracer wraps it by name.
def scan_involutions_block(
    d: int, lens: Sequence[int], target: Sequence[int]
) -> list[tuple[int, ...]]:
    """Surviving canonical fixed-point-free involutions ``v`` of degree ``d``.

    A fixed-point-free involution ``v`` of degree ``d`` survives iff

    * the composite ``t[x] = phi[v[x]]`` has cycle type ``target`` (a
      multiset, read in any order; ``v∘phi`` is conjugate to ``t``, so
      either order of the composite keeps the same ``v``), and
    * the union of the cycles of ``phi`` with the pairs of ``v`` is a single
      class, so the generated group is transitive,

    where ``phi`` is the inverse of ``class_representative(lens)``; it is
    kept when it also passes the symmetry test of the module docstring.

    ``lens`` and ``target`` must each be parts in ``1..d`` that sum to
    ``d``.  The survivors come in the order the walk reaches them, so in
    increasing order of ``v(0)``.
    """
    if d <= 0 or d % 2:
        raise ValueError(f"degree must be even and positive, got {d}")
    for name, parts in (("anchor cycle lengths", lens), ("target", target)):
        if not all(1 <= n <= d for n in parts) or sum(parts) != d:
            raise ValueError(f"{name} {tuple(parts)} must be parts in 1..{d} summing to {d}")
    phi, forest, nroots, gens = _anchor(tuple(lens))
    v = [-1] * d

    def undecided(active: list[tuple[Perm, Perm, int]]) -> list[tuple[Perm, Perm, int]] | None:
        """The symmetry test on the pairs placed so far, or None when it cuts.

        An entry (g, g^-1, y) of active says that ``w = conjugate(v, g)``
        equals ``v`` on the positions before y.  ``w[y] = g[v[g^-1[y]]]``,
        so a position is fixed on both sides when ``v[y]`` and
        ``v[g^-1[y]]`` are placed.  The result keeps the entries whose
        comparison still waits on an unplaced point, each with the position
        it reached; an entry is dropped once w is larger, or equal to v."""
        out = []
        for g, ginv, y in active:
            while y < d:
                vy = v[y]
                if vy < 0 or (vx := v[ginv[y]]) < 0:
                    out.append((g, ginv, y))
                    break
                wy = g[vx]
                if wy != vy:
                    if wy < vy:
                        return None
                    break
                y += 1
        return out

    survivors: list[tuple[int, ...]] = []

    # The edges of t placed so far form cycles and open paths; a point not
    # yet reached is a path of one point.  A path runs from start[e] to e
    # and from s to end[s], and has size[s] points.  left[n] is the number
    # of parts n of the target not yet matched by a closed cycle.
    start = list(range(d))
    end = list(range(d))
    size = [1] * d
    left = [0] * (d + 1)
    for n in target:
        left[n] += 1
    largest = max(target)

    def link(x: int, y: int) -> bool:
        """Places the edge x -> y of t, or returns False, changing nothing,
        when no completion can have the target cycle type."""
        s = start[x]
        if s == y:  # the edge closes a cycle of size[y] points
            n = size[y]
            if not left[n]:
                return False
            left[n] -= 1
            return True
        n = size[s] + size[y]
        if n > largest:
            return False
        e = end[y]
        end[s] = e
        start[e] = s
        size[s] = n
        return True

    def unlink(x: int, y: int) -> None:
        """Undoes the latest link(x, y) that returned True.  The points
        it made interior are never an end or a start of a later link, so
        start[x], end[y] and size[y] still hold their values."""
        s = start[x]
        if s == y:
            left[size[y]] += 1
        else:
            end[s] = x
            start[end[y]] = y
            size[s] -= size[y]

    def transitive() -> bool:
        """The pairs of v join the anchor's point classes into one."""
        parent = list(forest)

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comp = nroots
        for x in range(d):
            rx, ry = find(x), find(v[x])
            if rx != ry:
                parent[rx] = ry
                comp -= 1
        return comp == 1

    def rec(free: list[int], active: list[tuple[Perm, Perm, int]]) -> None:
        if not free:
            if transitive():
                survivors.append(tuple(v))
            return
        # free comes increasing, and the least free point a is paired next.
        a = free[0]
        pa = phi[a]
        for i in range(1, len(free)):
            b = free[i]
            pb = phi[b]
            if not link(a, pb):
                continue
            if link(b, pa):
                v[a] = b
                v[b] = a
                rest = undecided(active) if active else active
                if rest is not None:
                    rec(free[1:i] + free[i + 1 :], rest)
                v[b] = -1
                unlink(b, pa)
            unlink(a, pb)
        v[a] = -1

    rec(list(range(d)), [(g, ginv, 0) for g, ginv in gens])
    return survivors
