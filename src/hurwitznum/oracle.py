"""Brute-force ground truth for strong and weak Hurwitz numbers.

A branched cover of the sphere with three branching points is encoded by a
monodromy triple: permutations (s1, s2, s3) with ``s1(s2(s3(x))) = x``, cycle
types matching the datum's three partitions, and a transitive generated
group.  Strong equivalence classes of covers are simultaneous-conjugation
orbits of such triples.  Weak equivalence adds moves induced by
homeomorphisms of the target sphere: swaps of branching points with equal
partitions and a reflection; which moves to include is a convention.

The enumeration fixes one slot, the anchor, to its class representative,
streams the cheapest remaining class, forces the third permutation from the
product relation, and merges survivors by a canonical form of the triple.
The anchor is chosen so that the streamed class is as cheap as possible,
and among such slots by which leaves fewer survivors to complete (see
``_choose_slots``).  When the streamed class consists of fixed-point-free
involutions the scan is one call of ``kernels.scan_involutions_block``,
which takes ``(d, lens, target)``: the anchor is
``class_representative(lens)``, with ``lens`` the anchor slot's partition,
and the kernel derives the anchor's point classes, which decide
transitivity, from ``lens``; ``target`` is the forced slot's cycle type.
Conjugating by the anchor's centralizer maps survivors to survivors, and the
kernel keeps only those that no rotation of an anchor cycle or swap of
adjacent equal-length cycles makes lexicographically smaller.  The least
member of every centralizer orbit passes, so the survivors meet every
conjugation orbit; an orbit may still keep more than one.  The kernel also
cuts a partial involution as soon as the forced permutation's closed cycles
or open paths rule out ``target``.  Each closed cycle takes a part of its
length off ``target``, and ``lens`` and ``target`` both sum to d, so a
complete involution that no cut removed has the forced cycle type, and the
kernel's only test at a leaf is transitivity.  Two triples are conjugate
exactly when their forms are equal, so the merge keeps one survivor per
form, the least.  The form relabels the triple only from the points of its
rarest class of (``s1``-cycle length, ``s2``-cycle length, ``s2``-cycle
length of the point's ``s1``-image, ``s1``-cycle length of its
``s2``-image), a class that conjugation preserves.

Any other streamed class is scanned in Python, from ``perm.class_list`` up
to ``perm.LISTED_DEGREE`` and streamed above it.  A member v is kept when v
composed with the anchor has the forced cycle type, none of the kernel's
rotations and swaps, its set S, conjugates the triple's first slot other
than the anchor to a smaller tuple, and the pair is transitive.  S commutes
with the anchor, so the least triple of every centralizer orbit, which the
merge keeps, passes.

A weak move sends each representative to a conjugation orbit, found by its
form.  Every move is one object, and the cached representatives of a datum
keep, per move, the list of the indices the move sends them to; a
convention's count is ``perm.orbit_count`` over the lists of its moves.
So each image is taken once per datum, whichever conventions are asked and
in whatever order, and a strong count alone takes none.  Every move is an
involution up to conjugation (the pure mapping class group of the
thrice-punctured sphere is trivial), so its images are taken once per pair
of representatives it exchanges.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Sequence
from functools import lru_cache, partial
from itertools import accumulate, chain, compress
from operator import itemgetter

from . import _purekernels, kernels
from . import perm as P
from .branchdata import BranchDatum, Partition, rh_compatible

HARD_DEGREE_CAP = 24


class IncompatibleDatumError(ValueError):
    """The datum fails the compatibility relation, so no cover exists."""


class InfeasibleDegreeError(RuntimeError):
    """The degree is beyond a route's bound: the oracle's
    ``HARD_DEGREE_CAP``, or on the command line ``--max-d`` or
    ``witnesses.MAX_GENUS2_K``."""


class WeakConvention(
    namedtuple("WeakConvention", "include_reflection include_slot_permutations")
):
    """Which target-sphere moves weak equivalence is taken to include.

    Simultaneous conjugation is always included.  Slot permutations are only
    ever applied between slots whose partitions are equal, which is the only
    type-preserving case.
    """

    __slots__ = ()

    def label(self) -> str:
        if self.include_reflection and self.include_slot_permutations:
            return "conjugation+swaps+reflection"
        if self.include_reflection:
            return "conjugation+reflection"
        if self.include_slot_permutations:
            return "conjugation+swaps"
        return "conjugation"


CONJUGATION_ONLY = WeakConvention(include_reflection=False, include_slot_permutations=False)
WITH_REFLECTION = WeakConvention(include_reflection=True, include_slot_permutations=False)
WITH_SLOT_SWAPS = WeakConvention(include_reflection=False, include_slot_permutations=True)
FULL_MOVES = WeakConvention(include_reflection=True, include_slot_permutations=True)
ALL_CONVENTIONS = (CONJUGATION_ONLY, WITH_REFLECTION, WITH_SLOT_SWAPS, FULL_MOVES)

Triple = tuple[P.Perm, P.Perm, P.Perm]


class MonodromyTriple(namedtuple("MonodromyTriple", "s1 s2 s3")):
    """A representative triple: product is the identity, slots match the datum."""

    __slots__ = ()

    def as_tuple(self) -> Triple:
        return (self.s1, self.s2, self.s3)

    def validate(self, datum: BranchDatum) -> None:
        s1, s2, s3 = self.as_tuple()
        if P.compose(s1, P.compose(s2, s3)) != P.identity(datum.degree):
            raise ValueError("product of the triple is not the identity")
        for slot, (s, pi) in enumerate(zip(self.as_tuple(), datum.partitions), start=1):
            if P.cycle_type(s) != pi:
                raise ValueError(f"slot {slot} has the wrong cycle type")
        if not P.is_transitive([s1, s2, s3], datum.degree):
            raise ValueError("the triple does not generate a transitive group")


def _forced(t: Sequence[P.Perm], slot: int) -> P.Perm:
    """The permutation that the product relation forces into ``slot``.

    ``s1 s2 s3 = 1`` is invariant under rotating the slots, so each slot is
    the inverse of the product of the next two; ``t[slot]`` is not read.
    """
    return P.inverse(P.compose(t[(slot + 1) % 3], t[(slot + 2) % 3]))


def _choose_slots(datum: BranchDatum, anchor: int | None = None) -> tuple[int, int, int]:
    """(anchor, stream, forced) slot indices.

    The streamed slot is the cheapest class other than the anchor's.  Unless
    ``anchor`` is given, the anchor is a slot that makes the streamed class
    cheapest.  The counts do not depend on the anchor, but for data whose
    slots tie on that cost, as every family datum's do, the tie-break fixes
    the scan's work.  Ties are broken by the anchor's class, then by the
    least slot index:

    * when the streamed class is the fixed-point-free involutions, the
      smaller class, that is the larger centralizer (their orders multiply
      to d!), wins: the kernel keeps about one involution per orbit of the
      anchor's centralizer, so a larger centralizer leaves fewer to
      complete;
    * otherwise the larger class wins: the scan in Python tests against S
      each streamed v whose product with the anchor has the forced cycle
      type, one per triple with product 1 whose anchor slot holds the
      representative, so a larger anchor class leaves fewer (3,736 against
      4,671 over the 305 such data with d <= 6).
    """
    sizes = [P.class_size(pi) for pi in datum.partitions]
    involutions = (2,) * (datum.degree // 2)  # the class the kernel streams
    best = None
    for a in range(3) if anchor is None else (anchor,):
        i, j = (1, 2) if a == 0 else (0, 3 - a)  # the other two slots, in order
        s = j if sizes[j] < sizes[i] else i
        key = (sizes[s], sizes[a] if datum.partitions[s] == involutions else -sizes[a])
        if best is None or key < best[0]:  # ties go to the least anchor
            best = (key, a, s)
    _, anchor, stream = best
    return anchor, stream, 3 - anchor - stream


Form = tuple[P.Perm, P.Perm]
Move = Callable[[Triple], Triple]


class _AnchoredReps:
    __slots__ = ("reps", "forms", "images")

    def __init__(self, reps: tuple[Triple, ...], forms: tuple[Form, ...]) -> None:
        self.reps = reps
        self.forms = forms  # forms[i] is the form of reps[i]
        # images[move][i] is the index of the representative conjugate to
        # move(reps[i]); each move's list is filled when a count first needs
        # it, from one image per pair of representatives the move exchanges.
        self.images: dict[Move, tuple[int, ...]] = {}


def _form(t: Triple) -> Form:
    """A complete invariant of simultaneous conjugation of a transitive triple.

    From a start point the points are relabelled in breadth-first order,
    following ``s1`` and then ``s2``; the form is the least relabelled
    ``(s1, s2)`` over the starts.  The starts are the points of the rarest
    class of the key (length of the point p's ``s1``-cycle, length of its
    ``s2``-cycle, length of the ``s2``-cycle of ``s1(p)``, length of the
    ``s1``-cycle of ``s2(p)``), ties going to the least key.  Conjugating
    the triple maps that class onto itself and only moves the start points,
    and ``s3`` is forced by the other two, so two triples are conjugate
    exactly when their forms are equal.
    """
    s1, s2 = t[0], t[1]
    d = len(s1)

    def cycle_lengths(s: P.Perm) -> list[int]:
        n = [0] * d
        for x in range(d):
            if not n[x]:
                cycle = [x]
                y = s[x]
                while y != x:
                    cycle.append(y)
                    y = s[y]
                length = len(cycle)
                for y in cycle:
                    n[y] = length
        return n

    n1, n2 = cycle_lengths(s1), cycle_lengths(s2)
    classes: dict[tuple[int, int, int, int], list[int]] = {}
    for p, key in enumerate(zip(n1, n2, map(n2.__getitem__, s1), map(n1.__getitem__, s2))):
        classes.setdefault(key, []).append(p)
    _, starts = min(classes.items(), key=lambda kv: (len(kv[1]), kv[0]))

    def relabelled(p: int) -> Form:
        label = [-1] * d
        label[p] = 0
        order = [p]
        for x in order:  # order grows as the walk labels new points
            y = s1[x]
            if label[y] < 0:
                label[y] = len(order)
                order.append(y)
            y = s2[x]
            if label[y] < 0:
                label[y] = len(order)
                order.append(y)
        return (tuple([label[s1[x]] for x in order]), tuple([label[s2[x]] for x in order]))

    if len(starts) == 1:
        return relabelled(starts[0])
    return min(map(relabelled, starts))


def _scan_stream(datum: BranchDatum, anchor: int | None = None) -> _AnchoredReps:
    """Anchored representatives; ``anchor`` forces the anchor slot, which
    tests use to check that counts do not depend on the choice."""
    d = datum.degree
    anchor, stream, forced = _choose_slots(datum, anchor)
    tau_s = datum.partitions[stream]
    tau_f = datum.partitions[forced]
    lens = datum.partitions[anchor]
    r = P.class_representative(lens)

    def completed(v: P.Perm) -> Triple:
        t = [r, r, r]
        t[stream] = v
        t[forced] = _forced(t, forced)
        return (t[0], t[1], t[2])

    if tau_s == (2,) * (d // 2):
        # The kernel derives r from lens, so it prunes the involutions under
        # the centralizer of exactly this r.
        survivors = map(completed, kernels.scan_involutions_block(d, lens, tau_f))
    else:
        survivors = []
        id_d = P.identity(d)
        # The forced slot is the inverse of v r or of r v, by slot order.
        # Both are conjugate to v r, so v r has its cycle type.
        # itemgetter(*r)(v) is compose(v, r); with one index itemgetter
        # returns a bare point, and at d = 1 v r = v.
        times_r = itemgetter(*r) if d > 1 else tuple
        if d <= P.LISTED_DEGREE:
            members = P.class_list(tau_s)
            in_class = frozenset(P.class_list(tau_f)).__contains__
            candidates = compress(members, map(in_class, map(times_r, members)))
        else:
            candidates = (v for v in P.class_stream(tau_s) if P.cycle_type(times_r(v)) == tau_f)
        # Triples of the row compare first on this slot; S commutes with r.
        first = min(stream, forced)
        symmetries = [g for g, _ in _purekernels._anchor(lens)[3]]
        for v in candidates:
            p = v if first == stream else completed(v)[forced]
            if any(P.conjugate(p, g) < p for g in symmetries) or not P.is_transitive([r, v], d):
                continue
            triple = completed(v)
            if __debug__:
                t1, t2, t3 = triple
                assert P.compose(t1, P.compose(t2, t3)) == id_d
            survivors.append(triple)

    least: dict[Form, Triple] = {}
    for t in survivors:
        f = _form(t)
        if f not in least or t < least[f]:
            least[f] = t
    pairs = sorted((t, f) for f, t in least.items())
    return _AnchoredReps(reps=tuple(t for t, _ in pairs), forms=tuple(f for _, f in pairs))


_REPS_CACHE: dict[BranchDatum, _AnchoredReps] = {}


def _anchored_reps(datum: BranchDatum) -> _AnchoredReps:
    """The datum's representatives, scanned on the first call.  Only a
    compatible datum of degree at most ``HARD_DEGREE_CAP`` is scanned, so a
    cached one needs no check."""
    info = _REPS_CACHE.get(datum)
    if info is None:
        if not rh_compatible(datum):
            raise IncompatibleDatumError(f"datum {datum} fails the compatibility relation")
        if datum.degree > HARD_DEGREE_CAP:
            raise InfeasibleDegreeError(
                f"degree {datum.degree} exceeds the oracle's cap HARD_DEGREE_CAP = "
                f"{HARD_DEGREE_CAP}"
            )
        info = _REPS_CACHE[datum] = _scan_stream(datum)
    return info


def enumerate_triples(datum: BranchDatum, threads: int = 1) -> list[MonodromyTriple]:
    """One representative per simultaneous-conjugation orbit of valid triples.

    Each representative is the least scan survivor, in the lexicographic
    order on image-tuple triples, with its canonical form, and the list is
    sorted, so the output is deterministic.  ``threads`` has no effect: it
    is kept for ``perfbench``'s ``deep`` workload, which passes it, until
    the next change to that workload.
    """
    info = _anchored_reps(datum)
    return [MonodromyTriple(*t) for t in info.reps]


def strong_hurwitz(datum: BranchDatum, threads: int = 1) -> int:
    """Number of strong equivalence classes (simultaneous-conjugation orbits).

    ``threads`` has no effect: it is kept for ``perfbench``'s ``deep``
    workload, which passes it, until the next change to that workload.
    """
    return len(_anchored_reps(datum).reps)


def _move_swap(i: int, j: int, t: Triple) -> Triple:
    """Swap slots i < j, preserving the product relation."""
    s1, s2, s3 = t
    if (i, j) == (0, 1):
        return (s2, P.conjugate(s1, P.inverse(s2)), s3)
    if (i, j) == (1, 2):
        return (s1, P.conjugate(s3, s2), s2)
    if (i, j) == (0, 2):
        return (P.conjugate(s3, P.compose(s1, s2)), s2, P.conjugate(s1, P.inverse(s2)))
    raise ValueError(f"bad slot pair ({i}, {j})")


def _move_reflection(t: Triple) -> Triple:
    """The reversal move, (s1^-1, s2^-1, s2 s1): an involution on triples."""
    s1, s2, _ = t
    return (P.inverse(s1), P.inverse(s2), P.compose(s2, s1))


# One object per move, so that a move keys its image lists in every call.
_SWAPS = tuple(((i, j), partial(_move_swap, i, j)) for i, j in ((0, 1), (1, 2), (0, 2)))


def _weak_moves(partitions: tuple[Partition, ...], convention: WeakConvention) -> list[Move]:
    """The convention's moves on triples: a swap for each pair of slots with
    equal partitions, then the reflection.  The same objects come back on
    every call."""
    moves: list[Move] = []
    if convention.include_slot_permutations:
        moves.extend(swap for (i, j), swap in _SWAPS if partitions[i] == partitions[j])
    if convention.include_reflection:
        moves.append(_move_reflection)
    return moves


def _move_images(datum: BranchDatum, info: _AnchoredReps, move: Move) -> tuple[int, ...]:
    """``info.images[move]``, computed on first use.

    Every move applied twice is a conjugation: the reflection squares to the
    identity, and swap (0, 1), (1, 2) or (0, 2) twice is conjugation by s3,
    s1^-1 or s2^-1.  Every move commutes with conjugation, so when
    representative i moves into the class of representative j, j moves into
    that of i: j's image is set with i's, and j's move and form are skipped.
    So a move's list takes one form per orbit of that move alone.
    """
    if move not in info.images:
        index = {f: i for i, f in enumerate(info.forms)}
        id_d = P.identity(datum.degree)
        images = [-1] * len(info.reps)
        for i, t in enumerate(info.reps):
            if images[i] >= 0:
                continue
            u = move(t)
            if __debug__:
                assert P.compose(u[0], P.compose(u[1], u[2])) == id_d
                assert tuple(P.cycle_type(s) for s in u) == datum.partitions
            j = images[i] = index[_form(u)]
            assert images[j] in (-1, i)
            images[j] = i
        info.images[move] = tuple(images)
    return info.images[move]


def _weak_orbit_count(datum: BranchDatum, info: _AnchoredReps, convention: WeakConvention) -> int:
    moves = _weak_moves(datum.partitions, convention)
    return P.orbit_count(len(info.reps), (_move_images(datum, info, m) for m in moves))


def weak_hurwitz(datum: BranchDatum, convention: WeakConvention, threads: int = 1) -> int:
    """Number of weak equivalence classes under the given convention.

    Never larger than the strong count, and zero exactly when it is zero.
    ``threads`` has no effect: it is kept for ``perfbench``'s ``deep``
    workload, which passes it, until the next change to that workload.
    """
    info = _anchored_reps(datum)
    return _weak_orbit_count(datum, info, convention)


class _ClassTable:
    """One conjugacy class of S_d, with the index, inverses and centralizer
    generators that ``unanchored_profile`` reads.  The list itself is
    ``perm.class_list``'s, which the anchored scan reads too."""

    __slots__ = ("perms", "index", "inverses", "centralizer")

    def __init__(self, pi: Partition) -> None:
        d = sum(pi)
        perms = self.perms = P.class_list(pi)  # in class_stream order
        assert perms[0] == P.class_representative(pi)
        self.index = {p: i for i, p in enumerate(perms)}  # index[perms[i]] == i
        self.inverses = tuple(map(P.inverse, perms))  # inverses[i] == inverse(perms[i])
        # perms[0] is the class representative.  These generate its
        # centralizer: the rotation of each cycle, and the pointwise swap of
        # each pair of adjacent equal-length cycles (fixed points included).
        # Empty at d = 1.  Cycle i of perms[0] is range(starts[i], starts[i + 1]).
        starts = list(accumulate(pi, initial=0))
        centralizer = []
        for i, length in enumerate(pi):
            if length > 1:
                centralizer.append(P.from_cycles(d, [range(starts[i], starts[i + 1])]))
            if i and pi[i - 1] == length:
                swap = [(starts[i - 1] + j, starts[i] + j) for j in range(length)]
                centralizer.append(P.from_cycles(d, swap))
        self.centralizer = tuple(centralizer)


_class_table = lru_cache(maxsize=None)(_ClassTable)


def _to_representative(p: P.Perm) -> P.Perm:
    """A g with ``conjugate(p, g) == class_representative(cycle_type(p))``.

    g lays the cycles of p on consecutive points, longest first, each from
    its least point, as ``class_representative`` lays out its cycles.
    """
    d = len(p)
    seen = [False] * d
    cycles = []
    for start in range(d):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            seen[x] = True
            cycle.append(x)
            x = p[x]
        cycles.append(cycle)
    cycles.sort(key=len, reverse=True)
    g = [0] * d
    for point, x in enumerate(chain.from_iterable(cycles)):
        g[x] = point
    return tuple(g)


def unanchored_profile(
    datum: BranchDatum,
) -> tuple[int, dict[str, int]]:
    """(strong, weak-by-convention-label) by exhaustive enumeration.

    Every conjugation orbit of triples with product one is reached, with no
    anchor, kernel or canonical form.  Each slot's class is listed by
    ``perm.class_list`` and indexed by a dict from permutation to index.
    Slot x has the largest class, ties going to the larger slot index; the
    slot y after it runs over its class, and the product relation forces the
    slot c before it.

    Slot x is fixed to its class representative x0 = ``tx.perms[0]``, whose
    cycles fill consecutive points, and y runs over its whole class; a pair
    is kept when the forced permutation is in slot c's index, so its cycle
    type is right.  Such a triple is keyed by the index ky of its y.
    Conjugation acts transitively on x's class, so every conjugation orbit
    of triples meets this row, and two triples of the row are conjugate
    exactly when an element of the centralizer C(x0) conjugates one into
    the other.  So from each new key, in increasing order, the walk closes
    its orbit under conjugation of y by generators of C(x0), which fix x0
    and keep the walk in the row.  Each orbit's root is its least key.
    Fixing the largest class leaves the fewest triples in the row, N over
    the size of x's class for N triples with product one, and the smallest
    centralizer, so the walk is shortest.

    The class lists, indices, inverses and centralizer generators are
    built once per partition and shared by every later call in the process.
    The degree guard runs first, and ``perm.class_list`` lists no class
    above the same bound, so both caches hold at most the 66 partitions of
    d <= 8 (at most 46,233 permutations).

    Weak orbits are further closed under each convention's moves.  A move
    image u is brought back to the row by the conjugator g that lays the
    cycles of u[x] out as x0's, taken once per distinct u[x] in the call,
    and its orbit is looked up by the index of u[y] conjugated by g.  Every
    image is taken, so the anchored path's pairing of a move's images is
    checked here.  Conjugation and the moves preserve transitivity,
    so it is checked once per strong orbit and only transitive orbits are
    counted.  The enumeration is shared across all conventions, and each
    move's images are taken once: every convention's moves are among
    ``FULL_MOVES``', and each convention's count is ``perm.orbit_count``
    over the image lists of its moves.  Besides the moves and ``_forced``,
    this path shares only ``perm`` primitives with the anchored one,
    ``perm.orbit_count`` and ``perm.class_list`` among them, and no
    symmetry code: that path drops only candidates that an element of S,
    a subset of C(r), makes smaller, which is sound for any subset, and
    this one closes orbits under ``_ClassTable.centralizer``, with no
    anchored scan, kernel or ``_form``.
    Only sensible for very small degrees; used to certify the anchored
    algorithm.
    """
    if not rh_compatible(datum):
        raise IncompatibleDatumError(f"datum {datum} fails the compatibility relation")
    d = datum.degree
    if d > P.LISTED_DEGREE:
        raise InfeasibleDegreeError(f"unanchored enumeration is for tiny degrees, got d={d}")
    tables = [_class_table(pi) for pi in datum.partitions]
    x = max(range(3), key=lambda s: (len(tables[s].perms), s))
    c, y = (x + 2) % 3, (x + 1) % 3
    tx, ty = tables[x], tables[y]

    # The forced slot is _forced(t, c) = compose(inverse(t[y]), inverse(t[x])),
    # and itemgetter(*q)(p) is compose(p, q).  With one index itemgetter
    # returns a bare point; at d = 1 every permutation is (0,), and so is p.
    composed_with = itemgetter(*tx.inverses[0]) if d > 1 else tuple
    hits = map(tables[c].index.__contains__, map(composed_with, ty.inverses))
    seeds = list(compress(range(len(ty.perms)), hits))

    def triple(ky: int) -> Triple:
        t = [tx.perms[0]] * 3
        t[y] = ty.perms[ky]
        t[c] = _forced(t, c)
        return (t[0], t[1], t[2])

    if __debug__:
        for key in seeds[:8]:
            assert composed_with(ty.inverses[key]) == triple(key)[c]

    # orbit[ky] is the least key of its C(x0) orbit; roots numbers the least
    # keys of the transitive orbits, whose triples are reps.
    orbit: dict[int, int] = {}
    roots: dict[int, int] = {}
    reps: list[Triple] = []
    for key in seeds:
        if key in orbit:
            continue
        orbit[key] = key
        todo = [key]
        for k in todo:  # todo grows as the walk reaches new keys
            p = ty.perms[k]
            for g in tx.centralizer:
                image = ty.index[P.conjugate(p, g)]
                if image not in orbit:
                    orbit[image] = key
                    todo.append(image)
        if P.is_transitive([tx.perms[0], ty.perms[key]], d):
            roots[key] = len(reps)
            reps.append(triple(key))
    strong = len(reps)

    # The moves are conjugation-equivariant, so they send whole conjugation
    # orbits to conjugation orbits; one edge per orbit root gives the full
    # weak closure.  They preserve transitivity, so every image lands in a
    # transitive orbit.
    images: dict[Move, list[int]] = {}
    to_representative = lru_cache(maxsize=None)(_to_representative)
    for move in _weak_moves(datum.partitions, FULL_MOVES):
        images[move] = []
        for t in reps:
            u = move(t)
            g = to_representative(u[x])
            images[move].append(roots[orbit[ty.index[P.conjugate(u[y], g)]]])
    weak = {
        convention.label(): P.orbit_count(
            strong, (images[m] for m in _weak_moves(datum.partitions, convention))
        )
        for convention in ALL_CONVENTIONS
    }
    return strong, weak
