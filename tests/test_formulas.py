"""Closed-form counts: case analysis, candidate arbitration, identities.

Value provenance: rows marked "frozen oracle values" were computed once by
the brute-force monodromy enumeration in this repository and pinned here;
the reference-table rows mirror the golden files under tests/data.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hurwitznum import branchdata as B
from hurwitznum import formulas as F

# ---------------------------------------------------------------------------
# genus 0, h = 0

def test_genus0_h0_zero_iff_half_degree_part():
    for k in range(2, 12):
        for pi in B.partitions_of(2 * k, 2):
            nu = F.nu_genus0(0, k, pi)
            assert nu.nu == (0 if k in pi else 1)
            assert nu.label in ("i", "ii")


# ---------------------------------------------------------------------------
# genus 0, h = 1

TABLE_K8 = [
    ((14, 1, 1), "ii-a", 1),
    ((13, 2, 1), "iii-a", 1),
    ((12, 3, 1), "iii-a", 1),
    ((12, 2, 2), "ii-a", 1),
    ((11, 4, 1), "iii-a", 1),
    ((11, 3, 2), "iii-a", 1),
    ((10, 5, 1), "iii-a", 1),
    ((10, 4, 2), "iii-a", 1),
    ((10, 3, 3), "ii-a", 1),
    ((9, 6, 1), "iii-a", 1),
    ((9, 5, 2), "iii-a", 1),
    ((9, 4, 3), "iii-a", 1),
    ((8, 7, 1), "i", 0),
    ((8, 6, 2), "i", 0),
    ((8, 5, 3), "i", 0),
    ((8, 4, 4), "i", 0),
    ((7, 7, 2), "ii-b", 1),
    ((7, 6, 3), "iii-b", 1),
    ((7, 5, 4), "iii-c", 1),
    ((6, 6, 4), "ii-b", 1),
    ((6, 5, 5), "ii-b", 1),
]


def test_reference_table_rows():
    assert [pi for pi, _, _ in TABLE_K8] == B.partitions_of(16, 3)
    for pi, label, nu in TABLE_K8:
        res = F.nu_genus0(1, k=8, pi=pi)
        assert (res.label, res.nu) == (label, nu), pi


def test_genus0_h1_case_labels_cover_k_range():
    for k in range(3, 16):
        for pi in B.partitions_of(2 * k, 3):
            label = F.classify_genus0_h1(k, pi)
            res = F.nu_genus0(1, k, pi)
            assert res.label == label
            assert (res.nu == 0) == (label == "i")
            assert label in ("i", "ii-a", "ii-b", "iii-a", "iii-b", "iii-c")


def test_genus0_h1_case_conditions():
    # zero exactly when the half degree appears in pi
    assert F.classify_genus0_h1(8, (8, 7, 1)) == "i"
    # repeated small entry
    assert F.classify_genus0_h1(8, (12, 2, 2)) == "ii-a"
    # repeated large entry
    assert F.classify_genus0_h1(8, (6, 6, 4)) == "ii-b"
    # distinct entries, small tail
    assert F.classify_genus0_h1(8, (13, 2, 1)) == "iii-a"
    # distinct entries, q + r > k with r below half
    assert F.classify_genus0_h1(8, (7, 6, 3)) == "iii-b"
    # distinct entries, q + r > k with r at least half
    assert F.classify_genus0_h1(8, (7, 5, 4)) == "iii-c"


# ---------------------------------------------------------------------------
# genus 0, h = 2

def test_genus0_h2_bullet_values():
    # all equal
    assert F.nu_genus0(2, 4, (2, 2, 2, 2)).nu == 0
    # two pairs
    assert F.nu_genus0(2, 5, (3, 3, 2, 2)).nu == 0
    # triple and a singleton: zero iff half degree present
    assert F.nu_genus0(2, 6, (6, 2, 2, 2)).nu == 0
    assert F.nu_genus0(2, 7, (4, 4, 4, 2)).nu == 1
    # one repeated pair: 1 when half degree present or a two-entry sum,
    # else 3
    assert F.nu_genus0(2, 6, (6, 4, 1, 1)).nu == 1
    assert F.nu_genus0(2, 6, (4, 3, 3, 2)).nu == 1
    assert F.nu_genus0(2, 8, (9, 3, 2, 2)).nu == 3
    # pairwise distinct: 2 when two entries sum to the half degree, 3 when
    # only the half degree appears as an entry, else 6
    assert F.nu_genus0(2, 8, (7, 6, 2, 1)).nu == 2
    assert F.nu_genus0(2, 9, (9, 5, 3, 1)).nu == 3
    assert F.nu_genus0(2, 8, (9, 4, 2, 1)).nu == 6


def test_genus0_h2_repeated_pair_three_case():
    res = F.nu_genus0(2, 8, (9, 3, 2, 2)).nu
    assert res == 3


def test_genus0_h2_intermediates_present():
    res = F.nu_genus0(2, 6, (5, 4, 2, 1))
    assert res.intermediates["k_in_pi"] in (0, 1)
    assert res.intermediates["k_sum_of_two"] in (0, 1)


# ---------------------------------------------------------------------------
# genus 1, h = 1: candidate arbitration

def test_candidates_disagree_pairwise():
    values = {
        name: tuple(F.genus1_h1_candidate(name, k) for k in (3, 4, 5))
        for name in F.GENUS1_H1_CANDIDATES
    }
    assert values["half-k-km1"] == (3, 6, 10)
    assert values["choose-km1-2"] == (1, 3, 6)
    assert values["unordered-triples"] == (1, 1, 2)


def test_arbitration_selects_the_verdict():
    # frozen oracle values at k = 3, 4, 5
    assert F.arbitrate_genus1_h1({3: 1, 4: 1, 5: 2}) == "unordered-triples"
    assert F.arbitrate_genus1_h1({3: 3, 4: 6, 5: 10}) == "half-k-km1"
    with pytest.raises(ValueError):
        F.arbitrate_genus1_h1({3: 9, 4: 9, 5: 9})


def test_genus1_h1_values():
    # frozen oracle values (full move set) for k = 3..6, then the verdict
    # formula beyond the brute-force range
    assert [F.nu_genus1(1, k, (2 * k,)).nu for k in (3, 4, 5, 6)] == [1, 1, 2, 3]
    assert F.nu_genus1(1, 10, (20,)).nu == F.triples_of(10)
    res = F.nu_genus1(1, 5, (10,))
    assert res.label == f"verdict:{F.GENUS1_H1_VERDICT}"
    assert set(res.intermediates) == set(F.GENUS1_H1_CANDIDATES)


def test_triples_of_matches_partition_count():
    for k in range(3, 40):
        assert F.triples_of(k) == len(B.partitions_of(k, 3))
    # the closed form against the direct double sum over a <= b <= c
    for k in range(-3, 400):
        assert F.triples_of(k) == sum(
            1 for a in range(1, k // 3 + 1) for b in range(a, (k - a) // 2 + 1)
        ), k


def test_genus1_h1_rejects_bad_pi():
    with pytest.raises(ValueError):
        F.nu_genus1(1, 5, (5, 5))


# ---------------------------------------------------------------------------
# genus 1, h = 2

def test_genus1_h2_values():
    # frozen oracle values: k=4 gives 2,1,1,0 and k=5 gives 4,4,2,2,0
    got4 = [F.nu_genus1(2, 4, (8 - p, p)).nu for p in range(1, 5)]
    got5 = [F.nu_genus1(2, 5, (10 - p, p)).nu for p in range(1, 6)]
    assert got4 == [2, 1, 1, 0]
    assert got5 == [4, 4, 2, 2, 0]


def test_genus1_h2_vanishes_only_at_equal_parts():
    for k in range(4, 30):
        for p in range(1, k + 1):
            res = F.nu_genus1(2, k, tuple(sorted((2 * k - p, p), reverse=True)))
            assert (res.nu == 0) == (p == k)
            if p < k:
                assert res.label == "p<k"
                assert set(res.intermediates) >= {
                    "loop_term",
                    "split_term",
                    "crossing_term",
                }


# ---------------------------------------------------------------------------
# genus 2, h = 3

def test_z_closed_form_matches_brute():
    for h in range(4, 41):
        assert F.z_count(h) == F.z_brute(h), h


def test_x_sum_closed_form():
    for k in range(5, 60):
        assert F.x_sum(k) == sum(F.z_count(h) for h in range(4, k))


def test_genus2_values():
    assert F.nu_genus2(5).nu == 6
    assert F.nu_genus2(6).nu == 20
    assert F.nu_genus2(7).nu == 60


def test_genus2_identities():
    # nu_genus2 evaluates the displayed formula in integers, multiplied
    # through by 48; the Fraction forms below are the paper's, as displayed.
    for k in range(5, 201):
        res = F.nu_genus2(k)
        x = res.intermediates["x"]
        y = res.intermediates["y"]
        assert res.nu == 5 * x + y
        if k % 2:
            assert res.label == "odd"
            poly = Fraction(
                7 * k**4 - 70 * k**3 + 260 * k**2 - 410 * k + 213, 48
            )
        else:
            assert res.label == "even"
            poly = Fraction(
                7 * k**4 - 70 * k**3 + 260 * k**2 - 440 * k + 288, 48
            )
        assert res.nu == poly
        display = Fraction(
            7 * k**4 - 70 * k**3 + 290 * k**2 - 515 * k + 288, 48
        ) - Fraction(5, 8) * (2 * k - 5) * (k // 2)
        assert res.nu == display


# ---------------------------------------------------------------------------
# dispatcher

def test_nu_for_family_dispatch():
    assert F.nu_for_family(0, 1, 8, (14, 1, 1)).nu == 1
    assert F.nu_for_family(1, 1, 5, (10,)).nu == 2
    assert F.nu_for_family(2, 3, 5, (10,)).nu == 6
    with pytest.raises(ValueError):
        F.nu_for_family(2, 2, 5, (10,))
    with pytest.raises(ValueError):
        F.nu_for_family(0, 3, 6, (4, 4, 2, 1, 1))


def test_formula_result_rejects_negative():
    with pytest.raises(ValueError):
        F.FormulaResult(nu=-1)
    # Each result built without intermediates gets a dict of its own.
    a, b = F.FormulaResult(nu=1), F.FormulaResult(nu=1)
    a.intermediates["x"] = 1
    assert b.intermediates == {}


def test_formula_result_make_and_replace_validate():
    # namedtuple's _make and _replace would skip __new__'s checks.
    result = F.FormulaResult(nu=2, label="x")
    assert result._replace(nu=3) == F.FormulaResult._make((3, "x", {}))
    with pytest.raises(ValueError):
        result._replace(nu=-1)
    with pytest.raises(ValueError):
        F.FormulaResult._make((-1, None, None))


@settings(max_examples=60)
@given(st.integers(3, 40), st.data())
def test_nu_is_a_nonnegative_integer_everywhere(k, data):
    h = data.draw(st.sampled_from([0, 1, 2]))
    if k < h + 2:
        k = h + 2
    length = h + 2
    pis = B.partitions_of(2 * k, length)
    pi = data.draw(st.sampled_from(pis))
    res = F.nu_genus0(h, k, pi)
    assert isinstance(res.nu, int) and res.nu >= 0
