"""Branch data over the sphere with three branching points.

A branch datum records the source genus ``g``, the degree ``d``, and three
partitions of ``d`` (the local degrees over the three branching points).
The target is always the sphere.  The module validates the Euler-count
compatibility relation, builds the two-parameter family of data this package
studies (first partition all 2s, second partition ``[2h+1, 3, 2, ..., 2]``),
and detects when two of the three partitions can coincide.
"""

from __future__ import annotations

import enum
import json
import re
from collections import namedtuple
from itertools import count

Partition = tuple[int, ...]

# The largest half-degree k of a family datum.  The datum holds tuples of
# about k entries and the genus-1 witness enumeration grows like k^2 in time
# and memory (k = 10^3: 0.8 s and 44 MB for h = 1, 4.4 s and 176 MB for
# h = 2; k = 10^4, h = 1: 83 s and 3 GB on a 2-vCPU host), so larger k would
# only exhaust the machine.  The genus-2 enumeration grows like k^4 and has
# its own, lower bound, witnesses.MAX_GENUS2_K.
MAX_K = 1000

# The (g, h) shapes of the family that the paper's closed forms cover, in
# the order ``family_data`` lists them.
FORMULA_SHAPES = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 3))


class MalformedDatumError(ValueError):
    """A structurally broken datum (for example a partition not summing to d).

    Distinct from a well-formed datum that merely fails the compatibility
    relation: that case is reported as a False return, not an error.
    """


def is_partition(parts: tuple[int, ...]) -> bool:
    """True iff ``parts`` is weakly decreasing with all entries >= 1."""
    return bool(parts) and parts[-1] >= 1 and sorted(parts, reverse=True) == list(parts)


_PART_TOKEN = re.compile(r"^([0-9]+)(?:\^([0-9]+))?$")


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated partition, canonicalized to weakly decreasing.

    Exponent notation repeats a part: ``"2^5"`` is five 2s.  Surrounding
    square brackets are accepted, so printed partitions parse back.  No
    family datum has degree above ``2 * MAX_K``, so a larger total is
    rejected as soon as the running total passes it, before any part is
    repeated.

    >>> parse_partition("14,1,1")
    (14, 1, 1)
    >>> parse_partition("2^8") == (2,) * 8
    True
    >>> parse_partition("1,5,2")
    (5, 2, 1)
    """
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    if not body.strip():
        raise ValueError("empty partition")
    parts: list[int] = []
    total = 0
    for pos, token in enumerate(body.split(",")):
        m = _PART_TOKEN.match(token.strip())
        if not m:
            raise ValueError(f"malformed partition entry {token.strip()!r} at position {pos}")
        value = int(m.group(1))
        repeat = int(m.group(2)) if m.group(2) else 1
        if value < 1:
            raise ValueError(f"partition entry {value} at position {pos} is not positive")
        if repeat < 1:
            raise ValueError(f"exponent {repeat} at position {pos} is not positive")
        total += value * repeat
        if total > 2 * MAX_K:
            raise ValueError(
                f"partition sums to more than {2 * MAX_K} = 2 * MAX_K by position {pos}"
            )
        parts.extend([value] * repeat)
    parts.sort(reverse=True)
    return tuple(parts)


def format_partition(parts: Partition) -> str:
    """Bracketed decreasing form, the inverse of parse_partition.

    >>> format_partition((5, 2, 1))
    '[5,2,1]'
    """
    return "[" + ",".join(str(x) for x in parts) + "]"


def partitions_of(n: int, length: int | None = None) -> list[Partition]:
    """Partitions of ``n`` (optionally of fixed length), reverse-lexicographic.

    >>> partitions_of(5, 2)
    [(4, 1), (3, 2)]
    """

    def rec(n: int, maxp: int, room: int | None) -> list[Partition]:
        if n == 0:
            return [()] if room in (None, 0) else []
        if room == 0 or (room is not None and n < room):
            return []
        out = []
        for first in range(min(n, maxp), 0, -1):
            for rest in rec(n - first, first, None if room is None else room - 1):
                out.append((first, *rest))
        return out

    return rec(n, n, length)


class BranchDatum(namedtuple("BranchDatum", "genus degree partitions")):
    """Source genus, degree, and the three partitions of the degree.

    An immutable named tuple, validated on construction."""

    __slots__ = ()

    def __new__(
        cls, genus: int, degree: int, partitions: tuple[Partition, Partition, Partition]
    ) -> BranchDatum:
        if genus < 0:
            raise MalformedDatumError(f"negative genus {genus}")
        if degree < 1:
            raise MalformedDatumError(f"degree {degree} is not positive")
        if len(partitions) != 3:
            raise MalformedDatumError(f"expected 3 partitions, got {len(partitions)}")
        for pi in partitions:
            if not is_partition(pi):
                raise MalformedDatumError(f"not a partition: {pi}")
        return super().__new__(cls, genus, degree, partitions)

    @classmethod
    def _make(cls, iterable):
        """namedtuple's own ``_make`` skips ``__new__``; ``_replace`` calls this."""
        return cls(*iterable)

    @property
    def lengths(self) -> tuple[int, int, int]:
        l1, l2, l3 = (len(pi) for pi in self.partitions)
        return (l1, l2, l3)

    def euler_source(self) -> int:
        return 2 - 2 * self.genus

    def to_json(self) -> dict:
        return {
            "g": self.genus,
            "d": self.degree,
            "partitions": [list(p) for p in self.partitions],
        }

    @staticmethod
    def from_json(obj: "dict | str") -> "BranchDatum":
        if isinstance(obj, str):
            obj = json.loads(obj)
        return BranchDatum(
            obj["g"], obj["d"], tuple(tuple(p) for p in obj["partitions"])  # type: ignore[arg-type]
        )

    def __str__(self) -> str:
        pis = ",".join(format_partition(p) for p in self.partitions)
        return f"(g={self.genus},d={self.degree},{pis})"


def rh_compatible(datum: BranchDatum) -> bool:
    """Whether the datum satisfies the Euler-count compatibility relation.

    With three branching points over the sphere the relation reads
    ``(2 - 2g) - (l1 + l2 + l3) = -d``.  A partition not summing to the
    degree is a malformed datum and raises, which is a different condition
    from a well-formed but incompatible datum (returns False).
    """
    for pi in datum.partitions:
        if sum(pi) != datum.degree:
            raise MalformedDatumError(
                f"partition {format_partition(pi)} sums to {sum(pi)}, expected degree {datum.degree}"
            )
    return datum.euler_source() - sum(datum.lengths) == -datum.degree


class FamilyParams(namedtuple("FamilyParams", "g h k pi")):
    """Parameters (g, h, k, pi) of the studied family of data.

    The datum has degree ``2k`` and partitions ``[2]*k``,
    ``[2h+1, 3] + [2]*(k-h-2)``, and ``pi``; compatibility forces
    ``len(pi) = h - 2g + 2``.
    """

    __slots__ = ()


def check_family_params(g: int, h: int, k: int) -> None:
    """Raise ValueError unless (g, h, k) admits a family datum for some pi:
    each is in range, k is at most ``MAX_K``, h is inside the compatibility
    window, and k leaves room for the second partition.

    >>> check_family_params(0, 1, 2)
    Traceback (most recent call last):
    ...
    ValueError: k=2 is too small: need k >= h+2 = 3 to fit the second partition
    """
    if g < 0 or h < 0 or k < 1:
        raise ValueError(f"parameters out of range: g={g}, h={h}, k={k}")
    if k > MAX_K:
        raise ValueError(f"k={k} exceeds MAX_K = {MAX_K}")
    if h < 2 * g - 1:
        raise ValueError(f"h={h} is below the compatibility window h >= 2g-1 = {2 * g - 1}")
    if k < h + 2:
        raise ValueError(f"k={k} is too small: need k >= h+2 = {h + 2} to fit the second partition")


def family_parts(g: int, h: int) -> int:
    """The number of parts of ``pi`` that compatibility forces at (g, h)."""
    return h - 2 * g + 2


def check_family_datum(g: int, h: int, k: int, pi: Partition) -> None:
    """Raise ValueError unless (g, h, k, pi) is a family datum: the checks
    of ``check_family_params``, then ``pi`` a canonical partition of 2k
    with ``family_parts(g, h)`` parts.  Builds nothing, so it is cheap
    enough for every formula and witness call.
    """
    check_family_params(g, h, k)
    if not is_partition(pi):
        raise ValueError(f"pi is not a canonical partition: {pi}")
    want_len = family_parts(g, h)
    if len(pi) != want_len:
        raise ValueError(f"pi has {len(pi)} parts, expected h-2g+2 = {want_len}")
    if sum(pi) != 2 * k:
        raise ValueError(f"pi sums to {sum(pi)}, expected 2k = {2 * k}")


def make_family_datum(g: int, h: int, k: int, pi: tuple[int, ...]) -> BranchDatum:
    """Construct the family datum for (g, h, k, pi), validating each bound.

    >>> str(make_family_datum(1, 1, 3, (6,)))
    '(g=1,d=6,[2,2,2],[3,3],[6])'
    """
    pi = tuple(pi)
    check_family_datum(g, h, k, pi)
    pi1 = (2,) * k
    pi2 = tuple(sorted([2 * h + 1, 3] + [2] * (k - h - 2), reverse=True))
    datum = BranchDatum(g, 2 * k, (pi1, pi2, pi))
    assert rh_compatible(datum)
    return datum


class Coincidence(enum.Enum):
    """Which pair of the three partitions can coincide."""

    FIRST_THIRD = "pi1=pi3"
    SECOND_THIRD = "pi2=pi3"


def coincident_partitions(g: int, h: int, k: int) -> tuple[Coincidence, ...]:
    """The coincidences possible at (g, h, k), in a fixed order.

    Within the family, two partitions can only coincide when their lengths
    match: the first and third exactly for ``g = 0, k = h+2`` (then pi must
    be all 2s), the second and third exactly for ``k = 2h+2-2g`` (then pi
    must equal the second partition).  The empty tuple means no coincidence
    is possible.  Whether a concrete datum actually has equal partitions
    also depends on pi; see datum_coincidences.
    """
    out = []
    if g == 0 and k == h + 2:
        out.append(Coincidence.FIRST_THIRD)
    if k == 2 * h + 2 - 2 * g and h >= 2 * g:
        out.append(Coincidence.SECOND_THIRD)
    return tuple(out)


def datum_coincidences(datum: BranchDatum) -> tuple[Coincidence, ...]:
    """The coincidences actually present among the datum's partitions."""
    p1, p2, p3 = datum.partitions
    out = []
    if p1 == p3:
        out.append(Coincidence.FIRST_THIRD)
    if p2 == p3:
        out.append(Coincidence.SECOND_THIRD)
    return tuple(out)


def family_data(max_d: int) -> list[tuple[FamilyParams, BranchDatum]]:
    """All family data of degree at most ``max_d`` with a formula in scope.

    Covers every (g, h) in ``FORMULA_SHAPES``, every admissible k with
    2k <= max_d, and every admissible pi in reverse-lexicographic order.
    """
    out = []
    for g, h in FORMULA_SHAPES:
        for k in count(h + 2):
            if 2 * k > max_d:
                break
            for pi in partitions_of(2 * k, family_parts(g, h)):
                out.append((FamilyParams(g, h, k, pi), make_family_datum(g, h, k, pi)))
    return out
