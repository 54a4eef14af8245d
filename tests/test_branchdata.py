"""Branch data: parsing, validation, family construction, coincidences."""

import json

import pytest
from hypothesis import given, strategies as st

from hurwitznum import branchdata as B
from hurwitznum import formulas as F
from hurwitznum import witnesses as W


def test_parse_partition_forms():
    assert B.parse_partition("14,1,1") == (14, 1, 1)
    assert B.parse_partition("[5,3,2,2]") == (5, 3, 2, 2)
    assert B.parse_partition("2^5") == (2,) * 5
    assert B.parse_partition("3,2^2,1") == (3, 2, 2, 1)
    assert B.parse_partition("1,5,2") == (5, 2, 1)


@pytest.mark.parametrize("bad", ["", "[]", "a,b", "0", "-3", "2^0", "2^"])
def test_parse_partition_rejects(bad):
    with pytest.raises((B.MalformedDatumError, ValueError)):
        B.parse_partition(bad)


def test_format_round_trip():
    for pi in [(5, 3, 2, 2), (2,) * 6, (14, 1, 1), (1,)]:
        assert B.parse_partition(B.format_partition(pi)) == pi


def test_is_partition():
    assert B.is_partition((3, 2, 2))
    assert not B.is_partition((2, 3))
    assert not B.is_partition((3, 0))
    assert not B.is_partition(())


def test_partitions_of_counts_and_order():
    assert len(B.partitions_of(10)) == 42
    assert B.partitions_of(5, 2) == [(4, 1), (3, 2)]
    ps = B.partitions_of(8)
    assert ps == sorted(ps, reverse=True)
    assert all(sum(p) == 8 for p in ps)
    assert B.partitions_of(4, 5) == []


@given(st.integers(1, 14), st.integers(1, 6))
def test_partitions_of_fixed_length_consistent(n, length):
    fixed = B.partitions_of(n, length)
    assert fixed == [p for p in B.partitions_of(n) if len(p) == length]


def test_branch_datum_str_and_json():
    datum = B.BranchDatum(1, 6, ((2, 2, 2), (3, 3), (6,)))
    assert str(datum) == "(g=1,d=6,[2,2,2],[3,3],[6])"
    blob = datum.to_json()
    assert B.BranchDatum.from_json(blob) == datum
    assert B.BranchDatum.from_json(json.dumps(blob)) == datum
    assert datum.lengths == (3, 2, 1)
    assert datum.euler_source() == 0


def test_branch_datum_validation():
    with pytest.raises(B.MalformedDatumError):
        B.BranchDatum(0, 4, ((2, 2), (3, 1)))
    with pytest.raises(B.MalformedDatumError):
        B.BranchDatum(-1, 4, ((2, 2), (3, 1), (4,)))
    with pytest.raises(B.MalformedDatumError):
        B.BranchDatum(0, 4, ((2, 2), (1, 3), (4,)))
    # A datum is an immutable tuple of its fields, and hashes as one, so
    # set order and cache keys do not depend on its type; lists are stored
    # as tuples.
    partitions = ((2, 2), (3, 1), (3, 1))
    for given_partitions in (partitions, [[2, 2], [3, 1], [3, 1]]):
        datum = B.BranchDatum(0, 4, given_partitions)
        assert datum == (0, 4, partitions)
        assert hash(datum) == hash((0, 4, partitions))
        with pytest.raises(AttributeError):
            datum.genus = 1


def test_branch_datum_make_and_replace_validate():
    # namedtuple's _make and _replace would skip __new__'s checks.
    datum = B.BranchDatum(0, 4, ((2, 2), (3, 1), (3, 1)))
    assert datum._replace(genus=1) == B.BranchDatum._make((1, 4, datum.partitions))
    assert type(datum._replace(genus=1)) is B.BranchDatum
    with pytest.raises(B.MalformedDatumError):
        datum._replace(genus=-1)
    with pytest.raises(B.MalformedDatumError):
        B.BranchDatum._make((0, 0, datum.partitions))


def test_rh_compatible():
    good = B.make_family_datum(0, 1, 8, (14, 1, 1))
    assert B.rh_compatible(good)
    # wrong genus for these partitions
    bad = B.BranchDatum(1, 16, good.partitions)
    assert not B.rh_compatible(bad)
    with pytest.raises(B.MalformedDatumError):
        B.rh_compatible(B.BranchDatum(0, 6, ((2, 2), (3, 3), (6,))))


def test_make_family_datum_shapes():
    datum = B.make_family_datum(0, 2, 6, (5, 4, 2, 1))
    assert datum.partitions[0] == (2,) * 6
    assert datum.partitions[1] == (5, 3, 2, 2)
    assert datum.degree == 12

    torus = B.make_family_datum(1, 1, 3, (6,))
    assert torus.partitions == ((2, 2, 2), (3, 3), (6,))

    high = B.make_family_datum(2, 3, 5, (10,))
    assert high.partitions == ((2,) * 5, (7, 3), (10,))


def test_make_family_datum_second_partition_padding():
    # 2h+1 and 3 then all 2s, sorted weakly decreasing
    datum = B.make_family_datum(0, 1, 8, (8, 4, 4))
    assert datum.partitions[1] == (3, 3, 2, 2, 2, 2, 2)
    datum = B.make_family_datum(0, 2, 4, (4, 2, 1, 1))
    assert datum.partitions[1] == (5, 3)


@pytest.mark.parametrize(
    "g,h,k,pi",
    [
        (0, 1, 2, (2, 1, 1)),  # k < h + 2
        (0, 1, 4, (4, 4)),  # wrong length
        (0, 1, 4, (5, 2, 2)),  # wrong sum
        (0, 1, 4, (4, 2, 3)),  # not weakly decreasing
        (1, 0, 3, (6,)),  # h < 2g - 1
        (3, 3, 5, (10,)),  # unsupported genus
    ],
)
def test_make_family_datum_rejects(g, h, k, pi):
    with pytest.raises((B.MalformedDatumError, ValueError)):
        B.make_family_datum(g, h, k, pi)


@pytest.mark.parametrize(
    "g,h,k,pi,ok",
    [
        (1, 2, 3, (5, 1), False),  # k < h + 2
        (0, 1, 2, (2, 1, 1), False),  # k < h + 2
        (0, 1, B.MAX_K + 1, (2 * B.MAX_K, 1, 1), False),  # k > MAX_K
        (0, 1, 4, (4, 4), False),  # wrong length
        (0, 1, 4, (5, 2, 2), False),  # wrong sum
        (0, 1, 3, (3, 1, 2), False),  # not weakly decreasing
        (0, 1, 4, (6, 2, 0), False),  # a zero part
        (2, 3, 5, (9, 1), False),  # wrong length for genus 2
        (0, 0, 2, (3, 1), True),
        (0, 1, 8, (14, 1, 1), True),
        (0, 2, 6, (5, 4, 2, 1), True),
        (1, 1, 3, (6,), True),
        (1, 2, 4, (7, 1), True),
        (2, 3, 5, (10,), True),
        (0, 1, 8, [9, 4, 3], True),  # a list is the same datum
    ],
)
def test_every_route_gives_one_verdict(g, h, k, pi, ok):
    # make_family_datum, the closed forms and the witnesses ask one rule,
    # branchdata.check_family_datum, whether (g, h, k, pi) is a family datum.
    calls = [B.make_family_datum]
    if (g, h) in B.FORMULA_SHAPES:
        calls.append(F.nu_for_family)
    if (g, h) in W.FAMILIES:
        calls.append(W.enumerate_witnesses)
    verdicts = {}
    for call in calls:
        try:
            call(g, h, k, pi)
            verdicts[call.__name__] = True
        except ValueError:
            verdicts[call.__name__] = False
    assert verdicts == dict.fromkeys(verdicts, ok)


def test_coincident_partitions_cases():
    # first=third exactly when g=0 and k=h+2; second=third when k=2h+2-2g
    assert B.Coincidence.FIRST_THIRD in B.coincident_partitions(0, 0, 2)
    assert B.Coincidence.SECOND_THIRD in B.coincident_partitions(0, 0, 2)
    assert B.coincident_partitions(0, 1, 3) == (B.Coincidence.FIRST_THIRD,)
    assert B.coincident_partitions(0, 1, 4) == (B.Coincidence.SECOND_THIRD,)
    assert B.coincident_partitions(1, 2, 4) == (B.Coincidence.SECOND_THIRD,)
    assert B.coincident_partitions(2, 3, 5) == ()


def test_datum_coincidences_match_prediction():
    for g, h, k, pi in [
        (0, 0, 2, (2, 2)),
        (0, 1, 3, (2, 2, 2)),
        (0, 1, 4, (3, 3, 2)),
        (1, 2, 4, (5, 3)),
    ]:
        datum = B.make_family_datum(g, h, k, pi)
        actual = B.datum_coincidences(datum)
        assert set(actual) <= set(B.coincident_partitions(g, h, k))
        assert actual  # these pi were chosen to realize the coincidence


def test_family_data_inventory():
    data = B.family_data(10)
    assert len(data) == 57
    by_shape = {}
    for params, datum in data:
        assert B.rh_compatible(datum)
        assert datum.degree <= 10
        assert B.make_family_datum(params.g, params.h, params.k, params.pi) == datum
        by_shape.setdefault((params.g, params.h), []).append(params)
    assert {s: len(v) for s, v in sorted(by_shape.items())} == {
        (0, 0): 14,
        (0, 1): 16,
        (0, 2): 14,
        (1, 1): 3,
        (1, 2): 9,
        (2, 3): 1,
    }
    # reverse-lexicographic pi order within each (g, h, k) block
    for shape, plist in by_shape.items():
        for k in {p.k for p in plist}:
            pis = [p.pi for p in plist if p.k == k]
            assert pis == sorted(pis, reverse=True)


def test_family_data_monotone():
    small = B.family_data(8)
    large = B.family_data(10)
    assert [d for _, d in small] == [d for _, d in large if d.degree <= 8]
