"""Permutation algebra: composition, classes, transitivity, streaming."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from hurwitznum import perm as P

perms = st.integers(2, 7).flatmap(
    lambda d: st.permutations(range(d)).map(tuple)
)


def same_degree_pairs():
    return st.integers(2, 7).flatmap(
        lambda d: st.tuples(
            st.permutations(range(d)).map(tuple),
            st.permutations(range(d)).map(tuple),
        )
    )


def same_degree_triples():
    return st.integers(2, 6).flatmap(
        lambda d: st.tuples(
            *(st.permutations(range(d)).map(tuple) for _ in range(3))
        )
    )


def test_identity_and_is_perm():
    assert P.identity(4) == (0, 1, 2, 3)


@given(perms)
def test_inverse_is_two_sided(p):
    d = len(p)
    assert P.compose(p, P.inverse(p)) == P.identity(d)
    assert P.compose(P.inverse(p), p) == P.identity(d)


@given(same_degree_triples())
def test_compose_associative(ts):
    p, q, r = ts
    assert P.compose(P.compose(p, q), r) == P.compose(p, P.compose(q, r))


@given(same_degree_pairs())
def test_inverse_antihomomorphism(pq):
    p, q = pq
    assert P.inverse(P.compose(p, q)) == P.compose(P.inverse(q), P.inverse(p))


@given(same_degree_pairs())
def test_conjugate_matches_definition(pq):
    p, t = pq
    assert P.conjugate(p, t) == P.compose(t, P.compose(p, P.inverse(t)))
    assert P.cycle_type(P.conjugate(p, t)) == P.cycle_type(p)


def test_cycle_type_examples():
    assert P.cycle_type((1, 0, 2)) == (2, 1)
    assert P.cycle_type(P.identity(5)) == (1, 1, 1, 1, 1)
    assert P.cycle_type((1, 2, 3, 0)) == (4,)


def test_from_cycles_rejects_bad_input():
    with pytest.raises(ValueError):
        P.from_cycles(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        P.from_cycles(3, [(0, 5)])


def test_class_size_matches_stream():
    # Every partition of d <= 7, (1,) included, found as the cycle types of
    # S_d; each stream must list exactly its class, once.
    for d in range(1, 8):
        classes: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
        for p in itertools.permutations(range(d)):
            classes.setdefault(P.cycle_type(p), set()).add(p)
        for parts, members in classes.items():
            elems = list(P.class_stream(parts))
            assert len(elems) == P.class_size(parts) == len(members), parts
            assert set(elems) == members, parts


def test_class_list_is_the_stream_listed_once():
    for parts in [(1,), (2, 1), (3, 3, 2), (2,) * 4, (8,)]:
        listed = P.class_list(parts)
        assert listed == tuple(P.class_stream(parts)), parts
        assert P.class_list(parts) is listed, parts
    # Nothing above LISTED_DEGREE is listed, so the cache stays bounded.
    before = P.class_list.cache_info().currsize
    with pytest.raises(ValueError):
        P.class_list((3, 3, 2, 1))
    assert P.class_list.cache_info().currsize == before


def test_class_size_formula():
    # n! / (prod parts * prod multiplicity!)
    assert P.class_size((5,)) == 24
    assert P.class_size((2, 2)) == 3
    assert P.class_size((2, 1, 1)) == 6
    assert P.class_size((2,) * 4) == math.factorial(8) // (2**4 * math.factorial(4))


def test_class_representative():
    for parts in [(4, 2, 1), (2, 2, 2), (7,)]:
        assert P.cycle_type(P.class_representative(parts)) == parts


@pytest.mark.parametrize("parts", [(), (1, 2), (2, 0)])
def test_class_functions_reject_non_partitions(parts):
    for call in (P.class_size, P.class_representative, lambda p: list(P.class_stream(p))):
        with pytest.raises(ValueError):
            call(parts)


def test_is_transitive():
    assert P.is_transitive([(1, 2, 3, 0)], 4)
    assert not P.is_transitive([(1, 0, 2, 3)], 4)
    assert P.is_transitive([(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)], 4)
