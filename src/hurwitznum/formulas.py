"""Closed-form weak Hurwitz numbers for the six covered family shapes.

Each function classifies the free partition of a family datum and returns
the count together with a case label and the named intermediate quantities
of the derivation, so callers can audit every step.  All arithmetic is
exact: Python integers throughout.  A displayed formula with a denominator
is evaluated multiplied through by it, and the remainder of the division
is asserted zero.

The genus-1, single-part case carries three candidate closed forms that
disagree with each other; the shipped default is the one confirmed by the
brute-force oracle on small degrees, and the arbitration can be re-run at
any time (see ``arbitrate_genus1_h1``).

Every public closed form takes only the family data that
``branchdata.check_family_datum`` accepts, for a shape in
``branchdata.FORMULA_SHAPES``, and raises ValueError otherwise: the same
rule ``make_family_datum`` and the witness enumeration apply.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .branchdata import FORMULA_SHAPES, Partition, check_family_datum


class FormulaResult(namedtuple("FormulaResult", "nu label intermediates")):
    """A count with its classification label and derivation intermediates."""

    __slots__ = ()

    def __new__(
        cls, nu: int, label: str | None = None, intermediates: dict[str, int] | None = None
    ) -> FormulaResult:
        if nu < 0:
            raise ValueError(f"count must be non-negative, got {nu}")
        return super().__new__(cls, nu, label, {} if intermediates is None else intermediates)

    @classmethod
    def _make(cls, iterable):
        """namedtuple's own ``_make`` skips ``__new__``; ``_replace`` calls this."""
        return cls(*iterable)


def _check(g: int, h: int, k: int, pi: Partition) -> None:
    if (g, h) not in FORMULA_SHAPES:
        raise ValueError(f"no closed form for (g={g}, h={h})")
    check_family_datum(g, h, k, pi)


def _k_sum_of_two(k: int, pi: Partition) -> bool:
    """Whether k is the sum of two entries of pi (any pair of positions)."""
    hit = any(
        pi[i] + pi[j] == k for i in range(len(pi)) for j in range(i + 1, len(pi))
    )
    if len(pi) == 4:
        # On a sorted 4-entry partition of 2k the test reduces to the
        # extremes: if any two entries sum to k then max + min = k.
        assert hit == (pi[0] + pi[3] == k)
    return hit


def classify_genus0_h1(k: int, pi: Partition) -> str:
    """Case label for the three-part genus-0 shape: one of i, ii-a, ii-b,
    iii-a, iii-b, iii-c.

    >>> classify_genus0_h1(8, (14, 1, 1))
    'ii-a'
    >>> classify_genus0_h1(8, (8, 4, 4))
    'i'
    >>> classify_genus0_h1(8, (7, 5, 4))
    'iii-c'
    """
    _check(0, 1, k, pi)
    if k in pi:
        return "i"
    if len(set(pi)) < 3:
        # Exactly one repeated value q (all-equal lands here too, with the
        # odd-one-out equal to q); q determines the subcase.
        q = pi[1]
        return "ii-a" if 2 * q < k else "ii-b"
    q, r = pi[1], pi[2]
    if q + r < k:
        return "iii-a"
    return "iii-b" if 2 * r < k else "iii-c"


def nu_genus0(h: int, k: int, pi: Partition) -> FormulaResult:
    """Count for the genus-0 families, classified by the shape of pi.

    For h = 0 and h = 1 the count is 0 when pi contains k and 1 otherwise.
    For h = 2 it depends on the multiplicity pattern of pi and on whether k
    lies in pi or is the sum of two of its entries.

    >>> nu_genus0(1, 8, (14, 1, 1)).nu
    1
    >>> nu_genus0(1, 8, (8, 4, 4)).nu
    0
    >>> nu_genus0(2, 6, (5, 4, 2, 1)).nu
    2
    >>> nu_genus0(2, 4, (2, 2, 2, 2)).nu
    0
    """
    if h == 1:  # classify_genus0_h1 runs the family-datum rule
        label = classify_genus0_h1(k, pi)
        return FormulaResult(
            nu=0 if label == "i" else 1,
            label=label,
            intermediates={"k_in_pi": int(k in pi)},
        )
    _check(0, h, k, pi)
    k_in = k in pi
    if h == 0:
        return FormulaResult(
            nu=0 if k_in else 1,
            label="i" if k_in else "ii",
            intermediates={"k_in_pi": int(k_in)},
        )

    p, q, r, s = pi
    assert k_in == (p == k)
    k_sum = _k_sum_of_two(k, pi)
    mults = sorted(
        (pi.count(v) for v in sorted(set(pi), reverse=True)), reverse=True
    )
    if mults == [4]:
        pattern, nu = "pppp", 0
    elif mults == [2, 2]:
        pattern, nu = "ppqq", 0
    elif mults == [3, 1]:
        pattern = "pppq" if pi.count(p) == 3 else "pqqq"
        nu = 0 if k_in else 1
    elif mults == [2, 1, 1]:
        if pi.count(p) == 2:
            pattern = "ppqr"
        elif pi.count(s) == 2:
            pattern = "pqrr"
        else:
            pattern = "pqqr"
        nu = 1 if (k_in or k_sum) else 3
    else:
        pattern = "pqrs"
        if k_sum:
            nu = 2
        elif k_in:
            nu = 3
        else:
            nu = 6
    flag = " (k in pi)" if k_in else (" (k sum of two entries)" if k_sum else "")
    return FormulaResult(
        nu=nu,
        label=pattern + flag,
        intermediates={"k_in_pi": int(k_in), "k_sum_of_two": int(k_sum)},
    )


def _floor_sq_quarter(n: int) -> int:
    return (n * n) // 4


def triples_of(k: int) -> int:
    """Number of ways to write k as a sum of three unordered positive parts.

    >>> [triples_of(k) for k in (3, 4, 5, 6, 7)]
    [1, 1, 2, 3, 4]
    """
    # The nearest integer to k^2 / 12 for k >= 1; no k <= 0 is such a sum.
    return (k * k + 6) // 12 if k > 0 else 0


GENUS1_H1_CANDIDATES: dict[str, str] = {
    "half-k-km1": "k(k-1)/2",
    "choose-km1-2": "(k-1)(k-2)/2",
    "unordered-triples": "partitions of k into 3 positive parts",
}

# Frozen outcome of arbitrate_genus1_h1 against the oracle at k = 3, 4, 5
# (counts 1, 1, 2): only the unordered-triples expression fits; both
# competing closed forms are refuted (they give 3, 6, 10 and 1, 3, 6).
GENUS1_H1_VERDICT = "unordered-triples"


def genus1_h1_candidate(name: str, k: int) -> int:
    """Evaluate one of the three candidate closed forms at k."""
    if name == "half-k-km1":
        return k * (k - 1) // 2
    if name == "choose-km1-2":
        return comb(k - 1, 2)
    if name == "unordered-triples":
        return triples_of(k)
    raise ValueError(f"unknown candidate {name!r}")


def arbitrate_genus1_h1(oracle_values: dict[int, int]) -> str:
    """Name of the unique candidate matching every supplied oracle count.

    ``oracle_values`` maps k to the trusted weak count for the genus-1
    single-part datum at that k.  Raises if no candidate or more than one
    candidate survives.
    """
    if not oracle_values:
        raise ValueError("arbitration needs at least one oracle value")
    fits = [
        name
        for name in GENUS1_H1_CANDIDATES
        if all(genus1_h1_candidate(name, k) == v for k, v in oracle_values.items())
    ]
    if not fits:
        raise ValueError(f"no candidate matches oracle values {oracle_values}")
    if len(fits) > 1:
        raise ValueError(f"candidates {fits} all match; add more oracle values")
    return fits[0]


def nu_genus1(h: int, k: int, pi: Partition) -> FormulaResult:
    """Count for the genus-1 families.

    For h = 1 the partition must be the single part [2k] and the count is
    the arbitrated closed form (see GENUS1_H1_VERDICT); all three candidate
    values are reported as intermediates.  For h = 2 the partition is
    [p, 2k-p] and the count is a floor-bracket polynomial in p and k,
    vanishing exactly at p = k.

    >>> nu_genus1(1, 5, (10,)).nu
    2
    >>> nu_genus1(2, 4, (7, 1)).nu
    2
    >>> nu_genus1(2, 4, (4, 4)).nu
    0
    """
    _check(1, h, k, pi)
    if h == 1:
        inter = {
            name: genus1_h1_candidate(name, k) for name in GENUS1_H1_CANDIDATES
        }
        return FormulaResult(
            nu=inter[GENUS1_H1_VERDICT],
            label=f"verdict:{GENUS1_H1_VERDICT}",
            intermediates=inter,
        )
    p = min(pi)
    if p == k:
        return FormulaResult(nu=0, label="p=k", intermediates={"p": p})
    t1 = 2 * _floor_sq_quarter(k - p - 1)
    t2 = (p // 2) * (k - p - 1)
    t3 = _floor_sq_quarter(p - 1)
    return FormulaResult(
        nu=t1 + t2 + t3,
        label="p<k",
        intermediates={"p": p, "loop_term": t1, "split_term": t2, "crossing_term": t3},
    )


def z_count(h: int) -> int:
    """Closed form for the number of 4-part compositions of h modulo the
    simultaneous swap of the first and of the last pair.

    >>> [z_count(h) for h in (4, 5, 6, 7, 8)]
    [1, 2, 6, 10, 19]
    """
    if h < 4:
        raise ValueError(f"h must be at least 4, got {h}")
    m = h // 2
    if h % 2:
        both_distinct = m * (m - 1) * (4 * m - 5) // 6
        first_tied = m * (m - 1) // 2
        both_tied = 0
    else:
        both_distinct = (m - 1) * (m - 2) * (4 * m - 3) // 6
        first_tied = (m - 2) * (m - 1) // 2
        both_tied = m - 1
    return both_distinct + first_tied + both_tied


def z_brute(h: int) -> int:
    """Orbit count by direct enumeration; certifies z_count.

    >>> all(z_brute(h) == z_count(h) for h in range(4, 25))
    True
    """
    if h < 4:
        raise ValueError(f"h must be at least 4, got {h}")
    seen: set[tuple[int, int, int, int]] = set()
    for b in range(1, h - 2):
        for c in range(1, h - b - 1):
            for d in range(1, h - b - c):
                e = h - b - c - d
                seen.add(min((b, c, d, e), (c, b, e, d)))
    return len(seen)


def x_sum(k: int) -> int:
    """Sum of z_count over 4..k-1, cross-checked against its closed forms.

    >>> [x_sum(k) for k in (5, 6, 7)]
    [1, 3, 9]
    """
    if k < 5:
        raise ValueError(f"k must be at least 5, got {k}")
    total = sum(z_count(h) for h in range(4, k))
    # The closed forms, multiplied through by their denominator 48.
    if k % 2:
        closed48 = k**4 - 10 * k**3 + 38 * k**2 - 62 * k + 33
    else:
        closed48 = k**4 - 10 * k**3 + 38 * k**2 - 68 * k + 48
    assert closed48 == 48 * total, f"closed form {closed48}/48 != direct sum {total} at k={k}"
    return total


def nu_genus2(k: int) -> FormulaResult:
    """Count for the genus-2 family: a quartic polynomial with a floor term.

    Intermediates carry the five-family decomposition 5x + y and the two
    parity-specialized polynomials; both identities are asserted.

    >>> [nu_genus2(k).nu for k in (5, 6, 7)]
    [6, 20, 60]
    """
    _check(2, 3, k, (2 * k,))
    # The displayed formula (7k^4 - 70k^3 + 290k^2 - 515k + 288)/48
    # - (5/8)(2k - 5) floor(k/2), multiplied through by 48.
    nu, rem = divmod(
        7 * k**4 - 70 * k**3 + 290 * k**2 - 515 * k + 288 - 30 * (2 * k - 5) * (k // 2), 48
    )
    assert rem == 0, f"formula not an integer at k={k}"

    x = x_sum(k)
    y = comb(k - 1, 4)
    nu_odd = (7 * k**4 - 70 * k**3 + 260 * k**2 - 410 * k + 213) // 48
    nu_even = (7 * k**4 - 70 * k**3 + 260 * k**2 - 440 * k + 288) // 48
    assert nu == 5 * x + y, f"5x+y = {5 * x + y} != {nu} at k={k}"
    assert nu == (nu_odd if k % 2 else nu_even), f"parity form mismatch at k={k}"
    return FormulaResult(
        nu=nu,
        label="odd" if k % 2 else "even",
        intermediates={
            "x": x,
            "y": y,
            "five_x_plus_y": 5 * x + y,
            "nu_odd": nu_odd,
            "nu_even": nu_even,
        },
    )


def nu_for_family(g: int, h: int, k: int, pi: Partition) -> FormulaResult:
    """Dispatch to the closed form covering (g, h), if any.

    >>> nu_for_family(2, 3, 5, (10,)).nu
    6
    """
    if g == 0:
        return nu_genus0(h, k, pi)
    if g == 1:
        return nu_genus1(h, k, pi)
    _check(g, h, k, pi)
    return nu_genus2(k)
