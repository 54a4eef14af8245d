"""Witness enumeration: validity, canonicality, completeness, resolutions."""

import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from hurwitznum import branchdata as B
from hurwitznum import formulas as F
from hurwitznum import witnesses as W


def test_families_inventory():
    assert set(W.FAMILIES) == {(0, 1), (0, 2), (1, 1), (1, 2), (2, 3)}
    assert W.FAMILIES[(0, 1)] == ("I", "II")
    assert W.FAMILIES[(2, 3)] == ("F1", "F2", "F3", "F4", "F5", "F6")
    for context in W.FAMILIES:
        assert W.PARAM_COUNT[context] >= 3


def test_witness_text_and_json():
    # Lists are stored as tuples.
    for params in ((5, 2, 1), [5, 2, 1]):
        w = W.DessinWitness((0, 1), "I", params)
        assert w == ((0, 1), "I", (5, 2, 1))
        assert w.text() == "I(5,2,1)"
        blob = w.to_json()
        assert blob["family"] == "I"
        assert tuple(blob["params"]) == (5, 2, 1)


def test_witness_validation():
    with pytest.raises(ValueError):
        W.DessinWitness((0, 1), "IV", (1, 1, 1))
    with pytest.raises(ValueError):
        W.DessinWitness((0, 1), "I", (1, 1))
    with pytest.raises(ValueError):
        W.DessinWitness((0, 1), "I", (1, 0, 1))
    # non-canonical parameter order for a symmetric family
    with pytest.raises(ValueError):
        W.DessinWitness((0, 1), "I", (5, 1, 2))


def test_witness_make_and_replace_validate():
    # namedtuple's _make and _replace would skip __new__'s checks.
    w = W.DessinWitness((0, 1), "I", (5, 2, 1))
    assert W.DessinWitness._make(w) == w._replace(params=(5, 2, 1)) == w
    with pytest.raises(ValueError):
        W.DessinWitness._make(((0, 1), "I", (0, 0, 0)))
    with pytest.raises(ValueError):
        w._replace(params=(5, 1, 2))


def test_canonical_params():
    assert W.canonical_params((0, 1), "I", (5, 1, 2)) == (5, 2, 1)
    assert W.canonical_params((0, 1), "II", (1, 3, 2)) == (3, 2, 1)
    assert W.canonical_params((0, 2), "III", (1, 2, 1, 3)) == (1, 2, 3, 1)
    # the genus-2 families are symmetric under swapping both middle pairs
    assert W.canonical_params((2, 3), "F1", (1, 3, 2, 5, 4)) == (1, 2, 3, 4, 5)
    assert W.canonical_params((2, 3), "F6", (1, 3, 2, 5, 4)) == (1, 3, 2, 5, 4)


def test_realized_partition_examples():
    assert W.realized_partition(W.DessinWitness((0, 1), "I", (6, 1, 1)), 8) == (
        14,
        1,
        1,
    )
    assert W.realized_partition(W.DessinWitness((0, 1), "II", (4, 3, 1)), 8) == (
        7,
        5,
        4,
    )
    assert W.realized_partition(W.DessinWitness((1, 2), "IV", (1, 1, 1, 1)), 4) == (
        5,
        3,
    )


def test_realized_partition_rejects_wrong_total():
    with pytest.raises(ValueError):
        W.realized_partition(W.DessinWitness((0, 1), "I", (6, 1, 1)), 9)


REFERENCE_WITNESSES = {
    (14, 1, 1): ["I(6,1,1)"],
    (13, 2, 1): ["I(5,2,1)"],
    (12, 3, 1): ["I(4,3,1)"],
    (12, 2, 2): ["I(4,2,2)"],
    (11, 4, 1): ["I(3,4,1)"],
    (11, 3, 2): ["I(3,3,2)"],
    (10, 5, 1): ["I(2,5,1)"],
    (10, 4, 2): ["I(2,4,2)"],
    (10, 3, 3): ["I(2,3,3)"],
    (9, 6, 1): ["I(1,6,1)"],
    (9, 5, 2): ["I(1,5,2)"],
    (9, 4, 3): ["I(1,4,3)"],
    (8, 7, 1): [],
    (8, 6, 2): [],
    (8, 5, 3): [],
    (8, 4, 4): [],
    (7, 7, 2): ["II(6,1,1)"],
    (7, 6, 3): ["II(5,2,1)"],
    (7, 5, 4): ["II(4,3,1)"],
    (6, 6, 4): ["II(4,2,2)"],
    (6, 5, 5): ["II(3,3,2)"],
}


def test_reference_table_witnesses():
    for pi, expected in REFERENCE_WITNESSES.items():
        got = [w.text() for w in W.enumerate_witnesses(0, 1, 8, pi)]
        assert got == expected, pi


def test_coincident_datum_witnesses():
    got = [w.text() for w in W.enumerate_witnesses(0, 2, 6, (5, 3, 2, 2))]
    assert got == ["II(1,2,1,2)", "III(2,1,2,1)", "III(3,1,1,1)"]


def test_torus_datum_witness():
    got = [w.text() for w in W.enumerate_witnesses(1, 2, 4, (5, 3))]
    assert got == ["IV(1,1,1,1)"]


def test_genus2_smallest_case():
    ws = W.enumerate_witnesses(2, 3, 5, (10,))
    assert len(ws) == 6
    assert sorted({w.family for w in ws}) == ["F1", "F2", "F3", "F4", "F5", "F6"]
    assert all(w.params == (1, 1, 1, 1, 1) for w in ws)


def test_enumerate_witnesses_rejects_out_of_scope():
    with pytest.raises(ValueError):
        W.enumerate_witnesses(0, 0, 3, (3, 3))
    with pytest.raises(ValueError):
        W.enumerate_witnesses(0, 1, 8, (14, 2))


@pytest.mark.parametrize("g,h", sorted(W.FAMILIES))
def test_witness_count_matches_formula_small(g, h):
    for k in range(h + 2, 13):
        for pi in B.partitions_of(2 * k, h - 2 * g + 2):
            ws = W.enumerate_witnesses(g, h, k, pi)
            if g == 0:
                want = F.nu_genus0(h, k, pi).nu
            elif g == 1:
                want = F.nu_genus1(h, k, pi).nu
            else:
                want = F.nu_genus2(k).nu
            assert len(ws) == want, (g, h, k, pi)
            assert len(set(ws)) == len(ws)
            for w in ws:
                assert W.realized_partition(w, k) == pi


@pytest.mark.parametrize("g,h", sorted(W.FAMILIES))
def test_witnesses_sorted_and_canonical(g, h):
    for k in range(h + 2, 11):
        for pi in B.partitions_of(2 * k, h - 2 * g + 2):
            ws = W.enumerate_witnesses(g, h, k, pi)
            keys = [(W.FAMILIES[(g, h)].index(w.family), w.params) for w in ws]
            assert keys == sorted(keys)
            for w in ws:
                assert w.params == W.canonical_params((g, h), w.family, w.params)
                # The walk builds witnesses past the constructor's checks.
                assert W.DessinWitness(*w) == w


@pytest.mark.parametrize("g,h", sorted(W.FAMILIES))
def test_witness_sets_match_the_forward_map(g, h):
    """Each witness list is exactly the canonical parameter tuples whose
    realized partition is pi, found without solving any system."""
    context = (g, h)
    families = W.FAMILIES[context]
    for k in range(h + 2, (12 if g == 2 else 16) + 1):
        groups = {pi: [] for pi in B.partitions_of(2 * k, h - 2 * g + 2)}
        for cuts in combinations(range(1, k), W.PARAM_COUNT[context] - 1):
            params = tuple(b - a for a, b in zip((0,) + cuts, cuts + (k,)))
            for family in families:
                if W.canonical_params(context, family, params) == params:
                    w = W.DessinWitness(context, family, params)
                    groups[W.realized_partition(w, k)].append(w)
        for pi, expected in groups.items():
            expected.sort(key=lambda w: (families.index(w.family), w.params))
            assert W.enumerate_witnesses(g, h, k, pi) == expected, (k, pi)


def test_witnesses_import_without_the_formulas():
    # The witness route must not reuse the formula route's case analysis.
    code = (
        "import sys, hurwitznum.witnesses\n"
        "print('hurwitznum.formulas' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_seven_coincident_resolutions():
    assert len(W.COINCIDENT_RESOLUTIONS) == 7
    assert list(W.COINCIDENT_RESOLUTIONS.values()) == [0, 1, 0, 1, 1, 3, 1]
    for datum, nu in W.COINCIDENT_RESOLUTIONS.items():
        assert B.rh_compatible(datum)
        assert B.datum_coincidences(datum), datum
        assert W.coincident_resolution(datum) == nu


def test_coincident_resolution_none_for_plain_data():
    datum = B.make_family_datum(0, 1, 8, (14, 1, 1))
    assert W.coincident_resolution(datum) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 25), st.data())
def test_witness_partitions_always_canonical(k, data):
    g, h = data.draw(st.sampled_from(sorted(W.FAMILIES)))
    if k < h + 2:
        k = h + 2
    pis = B.partitions_of(2 * k, h - 2 * g + 2)
    pi = data.draw(st.sampled_from(pis))
    for w in W.enumerate_witnesses(g, h, k, pi):
        assert sum(w.params) == k
        assert all(x >= 1 for x in w.params)
