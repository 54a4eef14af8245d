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
"""

from __future__ import annotations

from collections.abc import Sequence

# Bumped whenever the signature or the semantics of the scan change; a
# compiled twin whose `API` differs is stale and is not used.
API = 3


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
    involution stream.
    """
    if d <= 0 or d % 2:
        raise ValueError(f"degree must be even and positive, got {d}")
    if not 1 <= first < d:
        raise ValueError(f"first partner {first} out of range")
    if not 1 <= rot <= d:
        raise ValueError(f"rotated cycle length {rot} out of range")
    lab0 = first if first < rot else rot + first
    if first < rot and rot - first < lab0:
        return []
    target = tuple(target)
    ntgt = len(target)
    # The cycles of phi as a forest: every point of the cycle first reached
    # from x points to x.  The walk stops even when phi is not a bijection.
    forest = [-1] * d
    for x in range(d):
        y = x
        while forest[y] < 0:
            forest[y] = x
            y = phi[y]
    nroots = sum(1 for x in range(d) if forest[x] == x)
    v = [-1] * d
    v[0] = first
    v[first] = 0
    free0 = [x for x in range(1, d) if x != first]
    survivors: list[tuple[int, ...]] = []
    t = [0] * d
    seen = [0] * d
    stamp = 0

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
        for i in range(1, len(free)):
            b = free[i]
            if a < rot:
                if b < rot:
                    if (b - a) % rot < lab0 or (a - b) % rot < lab0:
                        continue
                elif rot + b < lab0:
                    continue
            v[a] = b
            v[b] = a
            rec(free[1:i] + free[i + 1 :])
        v[a] = -1

    rec(free0)
    return survivors
