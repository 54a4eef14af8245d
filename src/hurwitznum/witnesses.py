"""Explicit dessin certificates for every positive count.

A witness is a family tag plus decorated-edge parameters; each in-scope
(genus, extra-vertex) context has a fixed list of graph families with known
symmetries and a known realized partition.  The genus-0 witnesses are the
positive solutions of each family's linear system over a fixed list of
orderings of the partition, deduplicated by the family symmetry, with no
case analysis.  For the other contexts the parameters are enumerated under
the constraint imposed by the partition.  Each context's walk yields only
canonical, positive parameter tuples of the right length, already in the
output order (family in ``FAMILIES`` order, then parameters
lexicographically), so ``enumerate_witnesses`` builds the witnesses in one
pass, with no sort and without the public constructor's checks.

Data in which two of the three partitions coincide admit extra graph
moves that the per-partition enumeration cannot see; for those seven data
the resolved counts are fixed table constants, each cross-checked by the
brute-force oracle.

``enumerate_witnesses`` takes only the family data that
``branchdata.check_family_datum`` accepts, for a shape in ``FAMILIES``, and
raises ValueError otherwise: the same rule ``make_family_datum`` and the
closed formulas apply.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from .branchdata import BranchDatum, Partition, check_family_datum

Context = tuple[int, int]

FAMILIES: dict[Context, tuple[str, ...]] = {
    (0, 1): ("I", "II"),
    (0, 2): ("I", "II", "III"),
    (1, 1): ("II-torus",),
    (1, 2): ("I", "II", "III", "IV"),
    (2, 3): ("F1", "F2", "F3", "F4", "F5", "F6"),
}

PARAM_COUNT: dict[Context, int] = {
    (0, 1): 3,
    (0, 2): 4,
    (1, 1): 3,
    (1, 2): 4,
    (2, 3): 5,
}

# The largest k for which the command line lists the genus-2 witnesses.
# There are about 7k^4/48 of them (``count --method witnesses`` takes 0.5 s
# and 60 MB peak RSS at k = 30, 1.9 s and 172 MB at k = 40, on a 2-vCPU
# host), so k = branchdata.MAX_K would only exhaust the machine; this bound
# keeps the cost under the genus-1 worst case at MAX_K (h = 2, pi = [1999, 1]:
# 3.8 s and 301 MB).
MAX_GENUS2_K = 40


def canonical_params(
    context: Context, family: str, params: tuple[int, ...]
) -> tuple[int, ...]:
    """The canonical representative of params under the family's symmetry.

    >>> canonical_params((0, 1), "II", (1, 6, 1))
    (6, 1, 1)
    >>> canonical_params((0, 2), "III", (3, 1, 1, 2))
    (3, 1, 2, 1)
    >>> canonical_params((2, 3), "F2", (1, 2, 1, 3, 4))
    (1, 1, 2, 4, 3)
    """
    if context == (0, 1):
        if family == "I":
            return (params[0],) + tuple(sorted(params[1:], reverse=True))
        return tuple(sorted(params, reverse=True))
    if context == (0, 2):
        if family in ("I", "III"):
            return params[:2] + tuple(sorted(params[2:], reverse=True))
        return params
    if context == (1, 1):
        return tuple(sorted(params, reverse=True))
    if context == (1, 2):
        return params[:2] + tuple(sorted(params[2:], reverse=True))
    if family == "F6":
        return params
    b, c, d, e = params[1:]
    return (params[0],) + min((b, c, d, e), (c, b, e, d))


class DessinWitness(namedtuple("DessinWitness", "context family params")):
    """A graph family tag with positive edge decorations, canonicalized."""

    __slots__ = ()

    def __new__(cls, context: Context, family: str, params: tuple[int, ...]) -> DessinWitness:
        context, params = tuple(context), tuple(params)
        if context not in FAMILIES:
            raise ValueError(f"unsupported context {context}")
        if family not in FAMILIES[context]:
            raise ValueError(f"family {family!r} not available in context {context}")
        if len(params) != PARAM_COUNT[context]:
            raise ValueError(
                f"context {context} needs {PARAM_COUNT[context]} "
                f"parameters, got {len(params)}"
            )
        if any(x < 1 for x in params):
            raise ValueError(f"parameters must be positive, got {params}")
        if canonical_params(context, family, params) != params:
            raise ValueError(f"parameters {params} are not canonical")
        return super().__new__(cls, context, family, params)

    @classmethod
    def _make(cls, iterable):
        """namedtuple's own ``_make`` skips ``__new__``; ``_replace`` calls this."""
        return cls(*iterable)

    def text(self) -> str:
        """Table text form, e.g. 'I(5,2,1)'.

        >>> DessinWitness((0, 1), "I", (5, 2, 1)).text()
        'I(5,2,1)'
        """
        return f"{self.family}({','.join(str(x) for x in self.params)})"

    def to_json(self) -> dict:
        return {"family": self.family, "params": list(self.params)}


def realized_partition(w: DessinWitness, k: int) -> Partition:
    """The partition of 2k realized by the witness.

    >>> realized_partition(DessinWitness((0, 1), "I", (6, 1, 1)), 8)
    (14, 1, 1)
    >>> realized_partition(DessinWitness((0, 1), "II", (4, 3, 1)), 8)
    (7, 5, 4)
    """
    if sum(w.params) != k:
        raise ValueError(f"parameters {w.params} must sum to k = {k}")
    context, family, params = w
    if context == (0, 1):
        a, b, c = params
        entries = [2 * a + b + c, b, c] if family == "I" else [a + b, a + c, b + c]
    elif context == (0, 2):
        a, b, c, d = params
        if family == "I":
            entries = [2 * a + b + c + d, b, c, d]
        elif family == "II":
            entries = [2 * a + b + c, c + d, b, d]
        else:
            entries = [a + c + d, b + c, b + d, a]
    elif context == (1, 2):
        a, b, c, d = params
        if family in ("I", "II"):
            entries = [a + 2 * b + 2 * c + 2 * d, a]
        elif family == "III":
            entries = [2 * a + 2 * b + c + d, c + d]
        else:
            entries = [a + 2 * b + c + d, a + c + d]
    else:
        return (2 * k,)
    out = tuple(sorted(entries, reverse=True))
    assert sum(out) == 2 * k
    return out


def _genus0(k: int, pi: Partition) -> list[tuple[str, tuple[int, ...]]]:
    """The positive solutions of each family's system over a fixed list of
    orderings of pi, canonicalised, deduplicated (with repeated parts two
    orderings can give the same witness) and sorted: I < II < III."""
    ctx = (0, len(pi) - 2)
    if len(pi) == 3:
        p, q, r = pi
        raw = (("I", (k - q - r, q, r)), ("II", (k - r, k - q, k - p)))
    else:
        p, q, r, s = pi
        raw = (
            ("I", (p - k, q, r, s)),
            ("I", (p - k, r, q, s)),
            ("I", (p - k, s, q, r)),
            ("II", (k - q - r, q, r - s, s)),
            ("II", (k - q - r, r, q - s, s)),
            ("II", (p + r - k, s, q - r, r)),
            ("II", (q + r - k, s, p - r, r)),
            ("II", (q + r - k, s, p - q, q)),
            ("III", (q, k - p, p + r - k, k - q - r)),
            ("III", (r, k - p, p + q - k, k - q - r)),
            ("III", (s, k - p, p + q - k, p + r - k)),
            ("III", (s, k - q, p + q - k, q + r - k)),
            ("III", (s, k - r, p + r - k, q + r - k)),
        )
    return sorted(
        {(family, canonical_params(ctx, family, sol)) for family, sol in raw if min(sol) > 0}
    )


def _genus1_h1(k: int) -> Iterator[tuple[str, tuple[int, ...]]]:
    # (c, b, a) with c >= b >= a >= 1, the largest part outermost.
    for c in range((k + 2) // 3, k - 1):
        for b in range((k - c + 1) // 2, min(c, k - c - 1) + 1):
            yield "II-torus", (c, b, k - c - b)


def _genus1_h2(k: int, pi: Partition) -> Iterator[tuple[str, tuple[int, ...]]]:
    # d runs downwards, so the third parameter runs upwards.
    p = min(pi)
    for family in ("I", "II"):
        for b in range(1, k - p - 1):
            rest = k - p - b
            for d in range(rest // 2, 0, -1):
                yield family, (p, b, rest - d, d)
    for a in range(1, k - p):
        for d in range(p // 2, 0, -1):
            yield "III", (a, k - p - a, p - d, d)
    if p < k:
        for a in range(1, p - 1):
            rest = p - a
            for d in range(rest // 2, 0, -1):
                yield "IV", (a, k - p, rest - d, d)


def _genus2_h3(k: int) -> Iterator[tuple[str, tuple[int, ...]]]:
    # F1-F5 keep their canonical form (b, c, d, e) <= (c, b, e, d); F6 all.
    for family in FAMILIES[(2, 3)]:
        symmetric = family != "F6"
        for a in range(1, k - 3):
            rest = k - a
            for b in range(1, rest - 2):
                for c in range(1, rest - b - 1):
                    for d in range(1, rest - b - c):
                        e = rest - b - c - d
                        if not symmetric or b < c or (b == c and d <= e):
                            yield family, (a, b, c, d, e)


def enumerate_witnesses(g: int, h: int, k: int, pi: Partition) -> list[DessinWitness]:
    """Complete duplicate-free list of canonical witnesses realizing pi.

    Ordered by family tag, then lexicographically by parameters: the order
    each context's walk yields them in.

    >>> [w.text() for w in enumerate_witnesses(0, 1, 8, (9, 4, 3))]
    ['I(1,4,3)']
    >>> enumerate_witnesses(0, 1, 8, (8, 7, 1))
    []
    >>> [w.text() for w in enumerate_witnesses(0, 2, 6, (5, 4, 2, 1))]
    ['II(1,1,2,2)', 'III(1,1,3,1)']
    >>> [w.text() for w in enumerate_witnesses(1, 1, 3, (6,))]
    ['II-torus(1,1,1)']
    >>> len(enumerate_witnesses(2, 3, 5, (10,)))
    6
    """
    context = (g, h)
    if context not in FAMILIES:
        raise ValueError(f"no witness families for context {context}")
    check_family_datum(g, h, k, pi)
    pi = tuple(pi)
    if g == 0:
        walk = _genus0(k, pi)
    elif context == (1, 1):
        walk = _genus1_h1(k)
    elif context == (1, 2):
        walk = _genus1_h2(k, pi)
    else:
        walk = _genus2_h3(k)
    # Plain tuples: a walk yields only what DessinWitness.__new__ accepts.
    out = []
    for family, params in walk:
        w = tuple.__new__(DessinWitness, (context, family, params))
        assert realized_partition(w, k) == pi, (w, pi)
        out.append(w)
    return out


# Resolved counts for the seven data in which two partitions coincide; the
# per-partition enumeration above is only a lower-bound certificate there,
# and each value is cross-checked against the brute-force oracle.
COINCIDENT_RESOLUTIONS: dict[BranchDatum, int] = {
    BranchDatum(0, 4, ((2, 2), (3, 1), (2, 2))): 0,
    BranchDatum(0, 6, ((2, 2, 2), (3, 3), (2, 2, 2))): 1,
    BranchDatum(0, 8, ((2, 2, 2, 2), (5, 3), (2, 2, 2, 2))): 0,
    BranchDatum(0, 4, ((2, 2), (3, 1), (3, 1))): 1,
    BranchDatum(0, 8, ((2, 2, 2, 2), (3, 3, 2), (3, 3, 2))): 1,
    BranchDatum(0, 12, ((2, 2, 2, 2, 2, 2), (5, 3, 2, 2), (5, 3, 2, 2))): 3,
    BranchDatum(1, 8, ((2, 2, 2, 2), (5, 3), (5, 3))): 1,
}


def coincident_resolution(datum: BranchDatum) -> int | None:
    """The resolved count when the datum has coincident partitions, else None."""
    return COINCIDENT_RESOLUTIONS.get(datum)
