"""Explicit dessin certificates for every positive count.

A witness is a family tag plus decorated-edge parameters; each in-scope
(genus, extra-vertex) context has a fixed list of graph families with known
symmetries and a known realized partition.  The genus-0 witnesses are the
positive solutions of each family's linear system over a fixed list of
orderings of the partition, deduplicated by the family symmetry, with no
case analysis.  For the other contexts the parameters are enumerated under
the constraint imposed by the partition.

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
# There are about 7k^4/48 of them (k = 30: 0.7 s and 35 MB; k = 40: 2.5 s
# and 83 MB on a 2-vCPU host), so k = branchdata.MAX_K would only exhaust
# the machine; this bound keeps the cost under the genus-1 worst case at
# MAX_K (h = 2: 4.4 s and 176 MB).
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
    g, h = w.context
    if w.context == (0, 1):
        a, b, c = w.params
        entries = [2 * a + b + c, b, c] if w.family == "I" else [a + b, a + c, b + c]
    elif w.context == (0, 2):
        a, b, c, d = w.params
        if w.family == "I":
            entries = [2 * a + b + c + d, b, c, d]
        elif w.family == "II":
            entries = [2 * a + b + c, c + d, b, d]
        else:
            entries = [a + c + d, b + c, b + d, a]
    elif w.context == (1, 2):
        a, b, c, d = w.params
        if w.family in ("I", "II"):
            entries = [a + 2 * b + 2 * c + 2 * d, a]
        elif w.family == "III":
            entries = [2 * a + 2 * b + c + d, c + d]
        else:
            entries = [a + 2 * b + c + d, a + c + d]
    else:
        entries = [2 * k]
    out = tuple(sorted(entries, reverse=True))
    assert sum(out) == 2 * k
    return out


def _genus0(k: int, pi: Partition) -> list[DessinWitness]:
    """The positive solutions of each family's system over a fixed list of
    orderings of pi, canonicalised and deduplicated: with repeated parts two
    orderings can give the same witness."""
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
    solutions = {
        (family, canonical_params(ctx, family, sol))
        for family, sol in raw
        if min(sol) > 0
    }
    return [DessinWitness(ctx, family, params) for family, params in solutions]


def _genus1_h1(k: int) -> list[DessinWitness]:
    out = []
    for a in range(1, k // 3 + 1):
        for b in range(a, (k - a) // 2 + 1):
            c = k - a - b
            out.append(DessinWitness((1, 1), "II-torus", (c, b, a)))
    return out


def _genus1_h2(k: int, pi: Partition) -> list[DessinWitness]:
    ctx = (1, 2)
    p = min(pi)
    out: list[DessinWitness] = []
    for family in ("I", "II"):
        a = p
        for b in range(1, k - p - 1):
            rest = k - p - b
            for d in range(1, rest // 2 + 1):
                out.append(DessinWitness(ctx, family, (a, b, rest - d, d)))
    for a in range(1, k - p):
        b = k - p - a
        for d in range(1, p // 2 + 1):
            out.append(DessinWitness(ctx, "III", (a, b, p - d, d)))
    b = k - p
    if b >= 1:
        for a in range(1, p - 1):
            rest = p - a
            for d in range(1, rest // 2 + 1):
                out.append(DessinWitness(ctx, "IV", (a, b, rest - d, d)))
    return out


def _genus2_h3(k: int) -> list[DessinWitness]:
    ctx = (2, 3)
    out: list[DessinWitness] = []
    symmetric: list[tuple[int, ...]] = []
    plain: list[tuple[int, ...]] = []
    for a in range(1, k - 3):
        rest = k - a
        for b in range(1, rest - 2):
            for c in range(1, rest - b - 1):
                for d in range(1, rest - b - c):
                    e = rest - b - c - d
                    plain.append((a, b, c, d, e))
                    if (b, c, d, e) <= (c, b, e, d):
                        symmetric.append((a, b, c, d, e))
    for family in ("F1", "F2", "F3", "F4", "F5"):
        for params in symmetric:
            out.append(DessinWitness(ctx, family, params))
    for params in plain:
        out.append(DessinWitness(ctx, "F6", params))
    return out


def enumerate_witnesses(g: int, h: int, k: int, pi: Partition) -> list[DessinWitness]:
    """Complete duplicate-free list of canonical witnesses realizing pi.

    Ordered by family tag, then lexicographically by parameters.

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
        out = _genus0(k, pi)
    elif context == (1, 1):
        out = _genus1_h1(k)
    elif context == (1, 2):
        out = _genus1_h2(k, pi)
    else:
        out = _genus2_h3(k)
    for w in out:
        assert realized_partition(w, k) == pi, (w, pi)
    families = FAMILIES[context]
    out.sort(key=lambda w: (families.index(w.family), w.params))
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
