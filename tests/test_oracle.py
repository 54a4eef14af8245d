"""Brute-force oracle: anchoring, move closure, conventions.

Value provenance: the small counts asserted directly were verified by hand
(degree 2 and 4) or cross-checked by the exhaustive unanchored enumeration
in this file; the convention ladders were frozen from those runs.
"""

import hashlib
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement, permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from hurwitznum import branchdata as B
from hurwitznum import formulas as F
from hurwitznum import oracle as O
from hurwitznum import perm as P
from hurwitznum import witnesses as W


def fam(g, h, k, pi):
    return B.make_family_datum(g, h, k, pi)


def test_degree_two_cover_is_unique():
    datum = B.BranchDatum(0, 2, ((2,), (2,), (1, 1)))
    assert O.strong_hurwitz(datum) == 1
    for conv in O.ALL_CONVENTIONS:
        assert O.weak_hurwitz(datum, conv) == 1


def test_smallest_sphere_datum():
    datum = B.BranchDatum(0, 4, ((2, 2), (3, 1), (3, 1)))
    assert O.strong_hurwitz(datum) == 1
    assert O.weak_hurwitz(datum, O.FULL_MOVES) == 1


def test_enumerate_triples_are_valid_and_counted():
    datum = fam(0, 1, 4, (6, 1, 1))
    reps = O.enumerate_triples(datum)
    assert len(reps) == O.strong_hurwitz(datum)
    for t in reps:
        t.validate(datum)
        s1, s2, s3 = t.as_tuple()
        assert P.compose(s1, P.compose(s2, s3)) == P.identity(datum.degree)
        assert P.is_transitive([s1, s2, s3], datum.degree)


def test_monodromy_triple_validate_rejects_wrong_class():
    datum = fam(0, 1, 4, (6, 1, 1))
    other = fam(0, 1, 4, (4, 3, 1))
    rep = O.enumerate_triples(datum)[0]
    with pytest.raises(ValueError):
        rep.validate(other)


def test_incompatible_datum_raises():
    bad = B.BranchDatum(1, 16, fam(0, 1, 8, (14, 1, 1)).partitions)
    with pytest.raises(O.IncompatibleDatumError):
        O.strong_hurwitz(bad)


def test_degree_bounds():
    huge = fam(0, 1, 13, (24, 1, 1))
    with pytest.raises(O.InfeasibleDegreeError):
        O.strong_hurwitz(huge)  # hard cap is 24


def test_convention_labels():
    assert O.CONJUGATION_ONLY.label() == "conjugation"
    assert O.WITH_REFLECTION.label() == "conjugation+reflection"
    assert O.WITH_SLOT_SWAPS.label() == "conjugation+swaps"
    assert O.FULL_MOVES.label() == "conjugation+swaps+reflection"
    assert len({c.label() for c in O.ALL_CONVENTIONS}) == 4


def test_convention_ladder_on_all_equal_datum():
    # frozen unanchored enumeration values; every convention differs here
    datum = B.BranchDatum(1, 6, ((5, 1), (5, 1), (5, 1)))
    got = {c.label(): O.weak_hurwitz(datum, c) for c in O.ALL_CONVENTIONS}
    assert got == {
        "conjugation": 9,
        "conjugation+reflection": 5,
        "conjugation+swaps": 4,
        "conjugation+swaps+reflection": 3,
    }
    assert O.strong_hurwitz(datum) == 9


def test_convention_ladder_on_coincident_datum():
    # the reversal move merges two of the four classes; swaps do nothing
    datum = B.BranchDatum(0, 12, ((2,) * 6, (5, 3, 2, 2), (5, 3, 2, 2)))
    got = {c.label(): O.weak_hurwitz(datum, c) for c in O.ALL_CONVENTIONS}
    assert got == {
        "conjugation": 4,
        "conjugation+reflection": 3,
        "conjugation+swaps": 4,
        "conjugation+swaps+reflection": 3,
    }


def _criterion_09_data():
    """Acceptance criterion 09's data: every admissible datum with
    2 <= d <= 6 in every slot order, then one slot order per datum at d = 7."""
    out = []
    for d in range(2, 8):
        for combo in combinations_with_replacement(B.partitions_of(d), 3):
            chi = sum(len(p) for p in combo) - d
            if chi % 2 == 0 and chi <= 2:
                for pis in sorted(set(permutations(combo))) if d <= 6 else [combo]:
                    out.append(B.BranchDatum((2 - chi) // 2, d, pis))
    return out


def test_moves_preserve_the_datum():
    # Each move keeps the product relation and carries the cycle types with
    # its slots.  The reflection is an involution on triples, and a swap of
    # slots (0, 1), (1, 2) or (0, 2) applied twice is conjugation by s3,
    # s1^-1 or s2^-1: the facts that let _move_images pair every move's
    # images.
    data = _criterion_09_data() + [datum for _, datum in B.family_data(10)]
    assert len(data) == 539 + 57
    for datum in data:
        identity = P.identity(datum.degree)
        for rep in O.enumerate_triples(datum):
            t = rep.as_tuple()
            s1, s2, s3 = t
            u = O._move_reflection(t)
            assert P.compose(u[0], P.compose(u[1], u[2])) == identity
            assert tuple(map(P.cycle_type, u)) == datum.partitions
            assert O._move_reflection(u) == t
            for (i, j), g in (((0, 1), s3), ((1, 2), P.inverse(s1)), ((0, 2), P.inverse(s2))):
                u = O._move_swap(i, j, t)
                assert P.compose(u[0], P.compose(u[1], u[2])) == identity
                swapped = list(datum.partitions)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                assert list(map(P.cycle_type, u)) == swapped
                twice = O._move_swap(i, j, u)
                assert twice == tuple(P.conjugate(s, g) for s in t), (datum, i, j)
                assert O._form(twice) == O._form(t)


# _form starts only from the rarest class of the key (s1-cycle length,
# s2-cycle length, s2-cycle length of s1(p), s1-cycle length of s2(p)), and
# takes the least relabelling only when that class has several points.  So
# that the least stays exercised: each (5, 3, 2, 2) datum has a
# representative with 2 starts (the other 3 have 1), every representative
# of fam(2, 3, 5, (10,)) has 3, and of the 105 of fam(2, 3, 7, (14,)), the
# datum perfbench's deep workload solves, 84 have 1, 14 have 2 and 7 have 3.
# Every representative of the first and last data has a single start.
_FORM_DATA = [
    B.BranchDatum(1, 6, ((5, 1), (5, 1), (5, 1))),
    B.BranchDatum(0, 12, ((2,) * 6, (5, 3, 2, 2), (5, 3, 2, 2))),
    fam(2, 3, 5, (10,)),
    fam(2, 3, 7, (14,)),
    B.BranchDatum(0, 12, ((5, 3, 2, 2), (2,) * 6, (5, 3, 2, 2))),
    B.BranchDatum(0, 6, ((4, 2), (4, 1, 1), (3, 2, 1))),
]


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_form_is_invariant_under_conjugation(data):
    datum = data.draw(st.sampled_from(_FORM_DATA))
    t = data.draw(st.sampled_from(O.enumerate_triples(datum))).as_tuple()
    g = tuple(data.draw(st.permutations(range(datum.degree))))
    u = tuple(P.conjugate(s, g) for s in t)
    assert O._form(u) == O._form(t)


@pytest.mark.parametrize("datum", _FORM_DATA)
def test_representatives_have_distinct_forms(datum):
    reps = O.enumerate_triples(datum)
    assert len({O._form(t.as_tuple()) for t in reps}) == len(reps) == O.strong_hurwitz(datum)


def test_anchor_override_gives_same_counts():
    datum = fam(0, 1, 5, (8, 1, 1))
    base_strong = O.strong_hurwitz(datum)
    base_weak = O.weak_hurwitz(datum, O.FULL_MOVES)
    for slot in range(3):
        info = O._scan_stream(datum, slot)
        r = P.class_representative(datum.partitions[slot])
        assert all(t[slot] == r for t in info.reps), slot
        assert len(info.reps) == base_strong, slot
        assert O._weak_orbit_count(datum, info, O.FULL_MOVES) == base_weak, slot


def test_anchor_tie_break_follows_the_scan():
    # Every family datum streams its involution slot 0 through the kernel,
    # so the anchor is slot 1, [2h + 1, 3, 2, ..., 2], or slot 2, pi: the one
    # with the smaller class, that is the larger centralizer.  A genus-2
    # datum's pi is the single 2k-cycle, whose centralizer has order 2k.
    for k in range(5, 13):
        assert O._choose_slots(fam(2, 3, k, (2 * k,))) == (1, 0, 2), k
    # One of the few family data whose pi has the larger centralizer:
    # |C(5, 3, 3, 3)| = 810 against |C(5, 3, 2, 2, 2)| = 720.
    datum = fam(0, 2, 7, (5, 3, 3, 3))
    assert datum.partitions[1:] == ((5, 3, 2, 2, 2), (5, 3, 3, 3))
    assert O._choose_slots(datum) == (2, 0, 1)
    # Streaming [3, 1, 1, 1] in Python, slots 0 and 2 tie; the larger
    # class, [6] with 120 members against 90, leaves fewer candidates.
    datum = B.BranchDatum(0, 6, ((4, 1, 1), (3, 1, 1, 1), (6,)))
    assert O._choose_slots(datum) == (2, 1, 0)


# Frozen weak counts by convention label; the first two ladders are the
# ones pinned above, and fam(0, 1, 5, (8, 1, 1)) has one strong class.
_LADDERS = [
    (B.BranchDatum(1, 6, ((5, 1),) * 3), (None,), (9, 5, 4, 3)),
    (B.BranchDatum(0, 12, ((2,) * 6, (5, 3, 2, 2), (5, 3, 2, 2))), (None,), (4, 3, 4, 3)),
    (fam(0, 1, 5, (8, 1, 1)), (0, 1, 2), (1, 1, 1, 1)),
]


@pytest.mark.parametrize("datum, anchors, ladder", _LADDERS, ids=str)
def test_conventions_in_any_order(monkeypatch, datum, anchors, ladder):
    # Each move's image list is filled by the first convention that needs
    # it, so every order of the four conventions must give the same counts.
    # Each anchor is scanned once; every order then starts from a fresh
    # cache holding that scan's representatives with no image lists, filed
    # under the key weak_hurwitz reads.
    want = dict(zip((c.label() for c in O.ALL_CONVENTIONS), ladder))
    if datum.degree <= 8:
        assert O.unanchored_profile(datum)[1] == want
    for anchor in anchors:
        scan = O._scan_stream(datum, anchor)
        if anchor is not None:
            r = P.class_representative(datum.partitions[anchor])
            assert all(t[anchor] == r for t in scan.reps)
        for order in permutations(O.ALL_CONVENTIONS):
            fresh = O._AnchoredReps(scan.reps, scan.forms)
            # A fresh record starts with image lists of its own.
            assert fresh.images == {} and fresh.images is not scan.images
            monkeypatch.setattr(O, "_REPS_CACHE", {datum: fresh})
            got = {c.label(): O.weak_hurwitz(datum, c) for c in order}
            assert got == want, (anchor, [c.label() for c in order])
            assert set(fresh.images) == set(O._weak_moves(datum.partitions, O.FULL_MOVES))


def test_reflection_images_pair_up(monkeypatch):
    # The reflection is an involution up to conjugation, so its image list
    # is an involution of the representatives, and _move_images takes one
    # form per pair: as many as there are weak classes under the reflection.
    form = O._form
    calls = []

    def counted(t):
        calls.append(t)
        return form(t)

    monkeypatch.setattr(O, "_form", counted)
    data = [datum for _, datum in B.family_data(12)]
    data += [datum for datum, _, _ in _LADDERS] + _FORM_DATA
    for datum in data:
        weak = O.weak_hurwitz(datum, O.WITH_REFLECTION)
        info = O._scan_stream(datum)
        index = {f: i for i, f in enumerate(info.forms)}
        looked_up = tuple(index[form(O._move_reflection(t))] for t in info.reps)
        calls.clear()
        im = O._move_images(datum, info, O._move_reflection)
        assert all(im[im[i]] == i for i in range(len(im))), datum
        assert im == looked_up, datum
        assert len(calls) == weak == P.orbit_count(len(im), [im]), datum
    assert O.weak_hurwitz(fam(2, 3, 7, (14,)), O.WITH_REFLECTION) == 60


def test_swap_images_pair_up(monkeypatch):
    # A swap applied twice is a conjugation, so each swap's image list is an
    # involution of the representatives, and _move_images takes one form per
    # orbit of that swap alone: over the 209 data with equal partitions, 662
    # forms where taking every image would take 934.
    form = O._form
    calls = []

    def counted(t):
        calls.append(t)
        return form(t)

    monkeypatch.setattr(O, "_form", counted)
    data = _criterion_09_data() + [datum for _, datum in B.family_data(12)]
    data += [datum for datum, _, _ in _LADDERS] + _FORM_DATA
    data = [datum for datum in data if len(set(datum.partitions)) < 3]
    formed = taken = 0
    for datum in data:
        info = O._scan_stream(datum)
        index = {f: i for i, f in enumerate(info.forms)}
        for swap in O._weak_moves(datum.partitions, O.WITH_SLOT_SWAPS):
            looked_up = tuple(index[form(swap(t))] for t in info.reps)
            calls.clear()
            im = O._move_images(datum, info, swap)
            assert all(im[im[i]] == i for i in range(len(im))), datum
            assert im == looked_up, datum
            assert len(calls) == P.orbit_count(len(im), [im]), datum
            formed += len(calls)
            taken += len(im)
    assert (len(data), formed, taken) == (209, 662, 934)


def test_representatives_are_frozen():
    # Each representative is the least survivor of its form, so the
    # representatives do not depend on the form's values; frozen from the
    # lists of family_data(10), 57 data.
    blob = repr([
        (datum.genus, datum.degree, datum.partitions,
         [t.as_tuple() for t in O.enumerate_triples(datum)])
        for _, datum in B.family_data(10)
    ])
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "f2c59f66e96698b71a5f5c4c4f089503a5c01659bcaff355fee2df1d03e26a70"
    )


def test_python_branch_representatives_are_frozen():
    # The representatives of the 305 criterion-09 data with d <= 6 whose
    # streamed class is not the involutions, so the scan in Python finds
    # them; frozen from the scan that tested S through P.conjugate.
    data = []
    for datum in _criterion_09_data():
        _, stream, _ = O._choose_slots(datum)
        if datum.degree <= 6 and datum.partitions[stream] != (2,) * (datum.degree // 2):
            data.append(datum)
    blob = repr([
        (datum.genus, datum.degree, datum.partitions,
         [t.as_tuple() for t in O.enumerate_triples(datum)])
        for datum in data
    ])
    assert len(data) == 305
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "e79acfc1d8e78cad2d7e116d30c743f58d12b7468f3776921ebef43c062e4eed"
    )


@pytest.mark.parametrize(
    "datum", [fam(2, 3, 7, (14,)), B.BranchDatum(1, 6, ((5, 1),) * 3)], ids=str
)
def test_repeated_calls_do_no_work(monkeypatch, datum):
    # Each weak count is kept on the datum's record, so asking again takes
    # no union-find, move image or form; a strong count alone keeps none.
    monkeypatch.setattr(O, "_REPS_CACHE", {})
    strong = O.strong_hurwitz(datum)
    info = O._REPS_CACHE[datum]
    assert strong == len(info.reps) and info.images == {} and info.counts == {}
    calls = []

    def counted(name, f):
        def wrapper(*args):
            calls.append(name)
            return f(*args)
        return wrapper

    monkeypatch.setattr(P, "orbit_count", counted("orbit_count", P.orbit_count))
    monkeypatch.setattr(O, "_form", counted("_form", O._form))
    monkeypatch.setattr(O, "_move_images", counted("_move_images", O._move_images))
    first = [O.weak_hurwitz(datum, c) for c in O.ALL_CONVENTIONS]
    assert calls.count("orbit_count") == 4 and "_move_images" in calls
    calls.clear()
    again = [O.weak_hurwitz(datum, c) for c in reversed(O.ALL_CONVENTIONS)]
    assert calls == [] and again[::-1] == first
    assert info.counts == dict(zip(O.ALL_CONVENTIONS, first))


def _generic_scan_reference(datum, anchor):
    """(reps, forms) of the generic branch of ``O._scan_stream`` as first
    written: every member of the streamed class is composed with the
    anchor in the slot order, then tested for the forced cycle type and
    transitivity, completed, and merged by form."""
    d = datum.degree
    a, s, f = O._choose_slots(datum, anchor)
    r = P.class_representative(datum.partitions[a])
    least = {}
    for v in P.class_stream(datum.partitions[s]):
        product = P.compose(v, r) if s == (f + 1) % 3 else P.compose(r, v)
        if P.cycle_type(product) != datum.partitions[f] or not P.is_transitive([r, v], d):
            continue
        t = [r, r, r]
        t[s] = v
        t[f] = O._forced(t, f)
        t = tuple(t)
        form = O._form(t)
        if form not in least or t < least[form]:
            least[form] = t
    pairs = sorted((t, form) for form, t in least.items())
    return tuple(t for t, _ in pairs), tuple(form for _, form in pairs)


def _generic_scan_cases():
    for d in range(1, 7):
        for combo in combinations_with_replacement(B.partitions_of(d), 3):
            chi = sum(len(p) for p in combo) - d
            if chi % 2 or chi > 2:
                continue
            for pis in sorted(set(permutations(combo))):
                datum = B.BranchDatum((2 - chi) // 2, d, pis)
                for anchor in range(3):
                    _, s, _ = O._choose_slots(datum, anchor)
                    if pis[s] != (2,) * (d // 2):  # else the kernel scans
                        yield datum, anchor


def test_generic_scan_matches_its_reference():
    # Every case up to d = 6, the degree perfbench's certify workload
    # reaches, and one streamed case at d = 10, above perm.LISTED_DEGREE.
    cases = list(_generic_scan_cases()) + [(fam(0, 1, 5, (8, 1, 1)), 0)]
    assert len(cases) == 994 and len({datum for datum, _ in cases}) == 385
    for datum, anchor in cases:
        info = O._scan_stream(datum, anchor)
        assert (info.reps, info.forms) == _generic_scan_reference(datum, anchor), (datum, anchor)


def _anchor_symmetries(lens):
    """S of class_representative(lens): every power of the rotation of each
    cycle, and the pointwise swap of each pair of adjacent equal-length
    cycles."""
    d = sum(lens)
    starts = list(accumulate(lens, initial=0))
    cycles = [range(a, b) for a, b in zip(starts, starts[1:])]
    out = []
    for i, cycle in enumerate(cycles):
        rho = g = P.from_cycles(d, [cycle])
        for _ in range(len(cycle) - 1):
            out.append(g)
            g = P.compose(rho, g)
        if i and lens[i - 1] == lens[i]:
            out.append(P.from_cycles(d, list(zip(cycles[i - 1], cycle))))
    return out


def test_generic_scan_forms_only_symmetry_survivors(monkeypatch):
    # The scan forms only triples whose first slot other than the anchor no
    # element of S conjugates to a smaller tuple; the least triple of each
    # centralizer orbit passes, and it is the one the merge keeps.
    form = O._form
    formed = []

    def counted(t):
        formed.append(t)
        return form(t)

    monkeypatch.setattr(O, "_form", counted)
    for datum, anchor in _generic_scan_cases():
        a, s, f = O._choose_slots(datum, anchor)
        lens = datum.partitions[a]
        r = P.class_representative(lens)
        symmetries = _anchor_symmetries(lens)
        assert all(P.compose(g, r) == P.compose(r, g) for g in symmetries), lens
        start = len(formed)
        O._scan_stream(datum, anchor)
        for t in formed[start:]:
            p = t[min(s, f)]
            assert all(P.conjugate(p, g) >= p for g in symmetries), (datum, anchor, t)
    # Without the test the scan forms every transitive candidate: 17,487.
    assert len(formed) == 2382 < 17487


def test_threads_do_not_change_counts():
    datum = fam(0, 1, 6, (9, 2, 1))
    O._REPS_CACHE.clear()
    expected = O.weak_hurwitz(datum, O.FULL_MOVES, threads=1)
    for threads in (2, 8):
        O._REPS_CACHE.clear()
        assert O.weak_hurwitz(datum, O.FULL_MOVES, threads=threads) == expected
    # Only strong_hurwitz and weak_hurwitz keep the keyword, which perfbench passes.
    with pytest.raises(TypeError):
        O.enumerate_triples(datum, threads=2)


def test_unanchored_profile_matches_anchored():
    data = [
        B.BranchDatum(1, 6, ((5, 1), (5, 1), (5, 1))),
        B.BranchDatum(2, 5, ((5,), (5,), (5,))),
        fam(0, 1, 3, (4, 1, 1)),
        fam(1, 1, 3, (6,)),
        fam(0, 2, 4, (5, 1, 1, 1)),
    ]
    for datum in data:
        strong, weak = O.unanchored_profile(datum)
        assert strong == O.strong_hurwitz(datum), datum
        for conv in O.ALL_CONVENTIONS:
            assert weak[conv.label()] == O.weak_hurwitz(datum, conv), (
                datum,
                conv.label(),
            )
    strong, weak = O.unanchored_profile(B.BranchDatum(2, 5, ((5,), (5,), (5,))))
    assert (strong, weak[O.WITH_SLOT_SWAPS.label()]) == (4, 2)


def test_unanchored_walk_fixes_the_largest_class(monkeypatch):
    # unanchored_profile fixes the slot with the largest class, which leaves
    # the fewest triples in its row and the smallest centralizer to walk
    # them under.  Over criterion 09's 397 data with d <= 6 it then
    # conjugates 6,594 times, its move images included; fixing the slot
    # after the largest class took 24,446.
    conjugate = P.conjugate
    calls = [0]

    def counted(p, g):
        calls[0] += 1
        return conjugate(p, g)

    monkeypatch.setattr(P, "conjugate", counted)
    data = [datum for datum in _criterion_09_data() if datum.degree <= 6]
    for datum in data:
        O.unanchored_profile(datum)
    assert (len(data), calls[0]) == (397, 6594)


def test_unanchored_profile_skips_intransitive_triples():
    # 8 of the 32 triples with product one fix a point and move the other
    # three as a 3-cycle; all four conventions leave one class.
    datum = B.BranchDatum(0, 4, ((3, 1), (3, 1), (3, 1)))
    strong, weak = O.unanchored_profile(datum)
    assert strong == 1
    assert weak == {c.label(): 1 for c in O.ALL_CONVENTIONS}


def _brute_force_profile(datum):
    """(strong, weak by label) from every pair of S_d, every conjugator of
    S_d and the moves of ``O._weak_moves``."""
    d = datum.degree
    group = list(permutations(range(d)))
    triples = []
    for s1 in group:
        for s2 in group:
            s3 = tuple(sorted(range(d), key=lambda x: s1[s2[x]]))  # (s1 s2)^-1
            t = (s1, s2, s3)
            assert all(s1[s2[s3[x]]] == x for x in range(d))
            if tuple(P.cycle_type(s) for s in t) != datum.partitions:
                continue
            if P.is_transitive(t, d):
                triples.append(t)

    def orbit_min(t):
        return min(tuple(P.conjugate(s, g) for s in t) for g in group)

    reps = {orbit_min(t) for t in triples}
    weak = {}
    for convention in O.ALL_CONVENTIONS:
        moves = O._weak_moves(datum.partitions, convention)
        parent = {t: t for t in reps}

        def find(t):
            while parent[t] != t:
                t = parent[t]
            return t

        for t in reps:
            for move in moves:
                parent[find(t)] = find(orbit_min(move(t)))
        weak[convention.label()] = sum(1 for t in reps if find(t) == t)
    return len(reps), weak


def _small_data():
    out = [B.BranchDatum(0, 1, ((1,), (1,), (1,)))]
    for d in range(2, 5):
        for combo in combinations_with_replacement(B.partitions_of(d), 3):
            chi = sum(len(p) for p in combo) - d
            if chi % 2 == 0 and chi <= 2:
                for pis in sorted(set(permutations(combo))):
                    out.append(B.BranchDatum((2 - chi) // 2, d, pis))
    # d = 5 data with two to four strong orbits, where every class has more
    # than one member, so the reference's walk must reach orbits and keys
    # beyond its first seed.
    for g, combo in [
        (2, ((5,), (5,), (5,))),
        (1, ((5,), (4, 1), (4, 1))),
        (0, ((4, 1), (4, 1), (2, 2, 1))),
        (0, ((4, 1), (3, 2), (3, 1, 1))),
    ]:
        for pis in sorted(set(permutations(combo))):
            out.append(B.BranchDatum(g, 5, pis))
    return out


@pytest.mark.parametrize("datum", _small_data(), ids=str)
def test_unanchored_profile_matches_brute_force(datum):
    assert O.unanchored_profile(datum) == _brute_force_profile(datum)


def test_unanchored_rejects_large_degree():
    # The guard runs before any class table is built, so the table cache
    # stays bounded by the classes of d <= 8.
    before = O._class_table.cache_info().currsize, P.class_list.cache_info().currsize
    for datum in (B.BranchDatum(0, 9, ((9,), (9,), (1,) * 9)), fam(0, 1, 5, (8, 1, 1))):
        with pytest.raises(O.InfeasibleDegreeError):
            O.unanchored_profile(datum)
    assert (O._class_table.cache_info().currsize, P.class_list.cache_info().currsize) == before


def test_generic_scan_above_degree_8_lists_nothing():
    # With the involution slot as anchor the scan streams (3, 3, 2, 2) at
    # d = 10 through the generic branch, which must not cache that class.
    datum = fam(0, 1, 5, (8, 1, 1))
    _, stream, _ = O._choose_slots(datum, 0)
    assert datum.partitions[stream] == (3, 3, 2, 2)
    P.class_list.cache_clear()
    info = O._scan_stream(datum, anchor=0)
    assert P.class_list.cache_info().currsize == 0
    assert len(info.reps) == O.strong_hurwitz(datum) == 1


def test_class_tables():
    for pi in [pi for d in range(1, 7) for pi in B.partitions_of(d)]:
        table = O._class_table(pi)
        ps = table.perms
        n = len(ps)
        assert n == P.class_size(pi) == len(set(ps)), pi
        assert all(P.cycle_type(p) == pi for p in ps), pi
        assert len(table.index) == n and all(table.index[p] == i for i, p in enumerate(ps)), pi
        assert table.inverses == tuple(P.inverse(p) for p in ps), pi
        # The generators commute with the representative ps[0], and they
        # generate its whole centralizer, of order d! / |class|.
        d = sum(pi)
        rep = P.class_representative(pi)
        assert ps[0] == rep, pi
        for g in table.centralizer:
            assert P.compose(g, rep) == P.compose(rep, g), (pi, g)
        group = {P.identity(d)}
        todo = list(group)
        for h in todo:
            for g in table.centralizer:
                gh = P.compose(g, h)
                if gh not in group:
                    group.add(gh)
                    todo.append(gh)
        assert len(group) == factorial(d) // n, pi


def test_to_representative_conjugates_onto_the_class_representative():
    for pi in [pi for d in range(1, 6) for pi in B.partitions_of(d)]:
        rep = P.class_representative(pi)
        for p in P.class_stream(pi):
            assert P.conjugate(p, O._to_representative(p)) == rep, (pi, p)


def test_unanchored_profile_same_on_cold_and_warm_tables():
    data = [
        B.BranchDatum(0, 1, ((1,), (1,), (1,))),
        B.BranchDatum(0, 4, ((3, 1), (3, 1), (3, 1))),
        fam(0, 1, 3, (4, 1, 1)),
        B.BranchDatum(1, 6, ((5, 1), (5, 1), (5, 1))),
    ]
    for datum in data:
        O._class_table.cache_clear()
        cold = O.unanchored_profile(datum)
        assert O._class_table.cache_info().currsize == len(set(datum.partitions))
        assert O.unanchored_profile(datum) == cold, datum


def test_full_moves_is_the_only_fitting_convention():
    # The default convention is the one move set that reproduces both
    # counts: the reflection merges two of the coincident datum's four
    # classes, and the all-equal datum's ladder 9/5/4/3 needs the swaps too.
    suite = [
        (B.BranchDatum(0, 12, ((2,) * 6, (5, 3, 2, 2), (5, 3, 2, 2))), 3),
        (B.BranchDatum(1, 6, ((5, 1), (5, 1), (5, 1))), 3),
    ]
    fits = [
        c for c in O.ALL_CONVENTIONS
        if all(O.weak_hurwitz(datum, c) == count for datum, count in suite)
    ]
    assert fits == [O.FULL_MOVES]


def test_weak_never_exceeds_strong():
    for k in (3, 4, 5):
        for pi in B.partitions_of(2 * k, 3):
            datum = fam(0, 1, k, pi)
            strong = O.strong_hurwitz(datum)
            for conv in O.ALL_CONVENTIONS:
                weak = O.weak_hurwitz(datum, conv)
                assert weak <= strong
                if conv == O.CONJUGATION_ONLY and not B.datum_coincidences(datum):
                    # without coincidences the swaps have nothing to act on
                    assert O.weak_hurwitz(datum, O.WITH_SLOT_SWAPS) == weak


def test_live_arbitration_from_oracle():
    oracle_values = {
        k: O.weak_hurwitz(fam(1, 1, k, (2 * k,)), O.FULL_MOVES) for k in (3, 4, 5)
    }
    assert F.arbitrate_genus1_h1(oracle_values) == F.GENUS1_H1_VERDICT


def test_results_cached_across_conventions():
    datum = fam(0, 1, 6, (10, 1, 1))
    O._REPS_CACHE.clear()
    O.weak_hurwitz(datum, O.CONJUGATION_ONLY)
    assert datum in O._REPS_CACHE
    before = len(O._REPS_CACHE)
    O.weak_hurwitz(datum, O.FULL_MOVES)
    assert len(O._REPS_CACHE) == before


def _frobenius_count(partitions):
    """Number of triples with product 1 in the classes of ``partitions``.

    Frobenius' formula: |C1| |C2| |C3| / d! times the sum over the
    irreducible characters chi of S_d of chi(C1) chi(C2) chi(C3) / chi(1),
    with each chi from the Murnaghan-Nakayama rule.
    """
    d = sum(partitions[0])
    memo = {}

    def chi(lam, mu):
        # Remove a border strip of length mu[0] from lam in every way, on
        # the beta-set of lam: a bead b moves to the free place b - mu[0],
        # with sign (-1) ** (beads jumped over).
        if not mu:
            return 1
        if (lam, mu) not in memo:
            n, k = len(lam), mu[0]
            beta = {part + n - 1 - i for i, part in enumerate(lam)}
            total = 0
            for b in beta:
                if b >= k and b - k not in beta:
                    height = sum(1 for x in beta if b - k < x < b)
                    moved = sorted(beta - {b} | {b - k}, reverse=True)
                    rest = tuple(x - (n - 1 - i) for i, x in enumerate(moved))
                    total += (-1) ** height * chi(tuple(p for p in rest if p), mu[1:])
            memo[(lam, mu)] = total
        return memo[(lam, mu)]

    irreps = [tuple(lam) for lam in B.partitions_of(d)]
    dims = {lam: chi(lam, (1,) * d) for lam in irreps}
    assert sum(n * n for n in dims.values()) == factorial(d)
    s = sum(
        Fraction(chi(lam, partitions[0]) * chi(lam, partitions[1]) * chi(lam, partitions[2]),
                 dims[lam])
        for lam in irreps
    )
    sizes = [P.class_size(pi) for pi in partitions]
    out = sizes[0] * sizes[1] * sizes[2] * s / factorial(d)
    assert out.denominator == 1
    return int(out)


def _automorphisms(t):
    """|Aut(t)|: the points x for which 0 -> x, extended along s1 and s2,
    is a consistent bijection commuting with the triple."""
    s1, s2 = t[0], t[1]
    d = len(s1)
    count = 0
    for x in range(d):
        g = {0: x}
        todo = [0]
        consistent = True
        while todo and consistent:
            a = todo.pop()
            for s in (s1, s2):
                if s[a] not in g:
                    g[s[a]] = s[g[a]]
                    todo.append(s[a])
                elif g[s[a]] != s[g[a]]:
                    consistent = False
        if consistent and len(g) == d and len(set(g.values())) == d:
            count += 1
    return count


@pytest.mark.parametrize("k, survivors", [(7, 17640), (8, 246960)])
def test_orbit_sizes_match_frobenius_count(k, survivors):
    # An independent check above the reach of unanchored_profile.  With a
    # [d] slot every triple with product 1 is transitive.  A representative
    # t stands for d!/|Aut(t)| triples, |C(r)|/|Aut(t)| of them with the
    # anchor slot holding r, since every automorphism of t commutes with r.
    # The anchor is the slot [7, 3, 2, ..., 2], whose centralizer has order
    # 7 * 3 * 2^(k - 5) * (k - 5)!.
    datum = fam(2, 3, k, (2 * k,))
    info = O._anchored_reps(datum)
    anchor = O._choose_slots(datum)[0]
    assert datum.partitions[anchor] == (7, 3) + (2,) * (k - 5)
    d = datum.degree
    centralizer = 7 * 3 * 2 ** (k - 5) * factorial(k - 5)
    auts = [_automorphisms(rep) for rep in info.reps]
    assert all(centralizer % n == 0 for n in auts)
    total = sum(centralizer // n for n in auts)
    assert total == survivors
    anchor_class = P.class_size(datum.partitions[anchor])
    assert anchor_class * centralizer == factorial(d)
    frobenius = _frobenius_count(datum.partitions)
    assert total * anchor_class == frobenius
    assert sum(Fraction(factorial(d), n) for n in auts) == frobenius


@pytest.mark.parametrize(
    "k, strong, weak", [(9, 490, 260), (10, 882, 456), (11, 1470, 760), (12, 2310, 1180)]
)
def test_genus2_closed_form_past_the_default_bound(k, strong, weak):
    # The oracle's checks of the genus-2 closed form above d = 16, up to
    # its cap: k = 12 is d = HARD_DEGREE_CAP.
    datum = fam(2, 3, k, (2 * k,))
    assert O.strong_hurwitz(datum) == strong
    assert O.weak_hurwitz(datum, O.FULL_MOVES) == weak
    assert F.nu_genus2(k).nu == weak
    assert len(W.enumerate_witnesses(2, 3, k, (2 * k,))) == weak
