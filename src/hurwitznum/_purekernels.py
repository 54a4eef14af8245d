"""Pure Python twin of the compiled scan kernel.

The hot loop of the oracle scans every fixed-point-free involution ``v`` of
degree ``d`` and keeps those whose forced companion permutation has a
prescribed cycle type while generating a transitive group together with the
anchored permutation.  The scan takes ``(d, first, phi, target, rot)``:
``phi`` is the inverse of the anchor, and the anchor's point classes, which
decide transitivity, are the cycles of ``phi``, found once per call.  This
module implements that scan in plain Python and is the reference the
compiled twin `_speed` (built from `_speed.c`) is tested against; `kernels`
picks one at import time, and only takes the compiled twin when its `API`
equals this module's.

The scan keeps only involutions that are canonical under rotation of the
anchor's cycle through point 0.  The oracle's anchor places that cycle on
``0..rot-1`` as ``x -> x + 1``, so conjugating by the rotation fixes the
anchor and maps survivors to survivors.  For ``x < rot`` let
``label(x) = (v[x] - x) % rot`` when ``v[x] < rot``, else ``rot + v[x]``;
rotating ``v`` rotates these labels, so keeping only ``v`` with
``label(0) <= label(x)`` for every ``x < rot`` keeps at least one member of
every rotation orbit.  The walk places the pairs at ``0..rot-1`` first, so a
violated label cuts its whole subtree.  ``rot = 1`` keeps everything.

The walk also follows the composite ``t[x] = phi[v[x]]`` as it grows:
placing the pair ``(a, b)`` adds the edges ``a -> phi[b]`` and
``b -> phi[a]``, and the edges placed so far form closed cycles and open
paths.  A subtree is cut when an edge closes a cycle whose length is no
longer left among the target's parts (otherwise that part is taken off), or
when an open path has more points than the largest part, since every
completion then has the wrong cycle type.  Backtracking undoes the edges.
Only non-survivors are cut, so the survivors and their order are those of
the full walk; the leaf still checks cycle type and transitivity in full.
"""

from __future__ import annotations

from collections.abc import Sequence

# Bumped whenever the signature or the semantics of the scan change; a
# compiled twin whose `API` differs is stale and is not used.
API = 4


def backend() -> str:
    return "pure"


def scan_involutions_block(
    d: int,
    first: int,
    phi: Sequence[int],
    target: Sequence[int],
    rot: int,
) -> list[tuple[int, ...]]:
    """Surviving rotation-canonical involutions ``v`` with ``v(0) = first``.

    A fixed-point-free involution ``v`` of degree ``d`` survives iff

    * the composite ``t[x] = phi[v[x]]`` has cycle type ``target`` (weakly
      decreasing; ``v∘phi`` is conjugate to ``t``, so either order keeps
      the same ``v``), and
    * the union of the cycles of ``phi`` with the pairs of ``v`` is a single
      class, so the generated group is transitive,

    and it is canonical under rotation of ``0..rot-1`` (see the module
    docstring).

    Splitting the stream by the partner of point 0 gives ``d - 1`` disjoint
    blocks; scanning each block for every ``first`` recovers the whole
    involution stream.  ``phi`` must be a permutation of ``0..d-1`` and
    ``target`` at most ``d`` parts in ``1..d``.
    """
    if d <= 0 or d % 2:
        raise ValueError(f"degree must be even and positive, got {d}")
    if not 1 <= first < d:
        raise ValueError(f"first partner {first} out of range")
    if not 1 <= rot <= d:
        raise ValueError(f"rotated cycle length {rot} out of range")
    if sorted(phi) != list(range(d)):
        raise ValueError(f"phi is not a permutation of 0..{d - 1}")
    target = tuple(target)
    ntgt = len(target)
    if ntgt > d or not all(1 <= n <= d for n in target):
        raise ValueError(f"target {target} is not a list of at most {d} parts in 1..{d}")
    lab0 = first if first < rot else rot + first
    if first < rot and rot - first < lab0:
        return []
    # The cycles of phi as a forest: every point of the cycle first reached
    # from x points to x.
    forest = [-1] * d
    for x in range(d):
        y = x
        while forest[y] < 0:
            forest[y] = x
            y = phi[y]
    nroots = sum(1 for x in range(d) if forest[x] == x)
    v = [-1] * d
    survivors: list[tuple[int, ...]] = []
    t = [0] * d
    seen = [0] * d
    stamp = 0

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
    largest = max(target, default=0)

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

    def check() -> bool:
        nonlocal stamp
        for i in range(d):
            t[i] = phi[v[i]]
        stamp += 1
        lengths = []
        for i in range(d):
            if seen[i] != stamp:
                n = 0
                x = i
                while seen[x] != stamp:
                    seen[x] = stamp
                    x = t[x]
                    n += 1
                lengths.append(n)
        if len(lengths) != ntgt:
            return False
        lengths.sort(reverse=True)
        if tuple(lengths) != target:
            return False
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

    def rec(free: list[int]) -> None:
        if not free:
            if check():
                survivors.append(tuple(v))
            return
        a = free[0]
        pa = phi[a]
        for i in range(1, len(free)):
            b = free[i]
            if a < rot:
                if b < rot:
                    if (b - a) % rot < lab0 or (a - b) % rot < lab0:
                        continue
                elif rot + b < lab0:
                    continue
            pb = phi[b]
            if not link(a, pb):
                continue
            if link(b, pa):
                v[a] = b
                v[b] = a
                rec(free[1:i] + free[i + 1 :])
                unlink(b, pa)
            unlink(a, pb)
        v[a] = -1

    if link(0, phi[first]) and link(first, phi[0]):
        v[0] = first
        v[first] = 0
        rec([x for x in range(1, d) if x != first])
    return survivors
