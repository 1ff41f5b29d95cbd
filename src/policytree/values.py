"""Value sets: the constraint algebra shared by every rule attribute.

A rule constrains each attribute to a set of values.  Three shapes cover
everything we need:

* the wildcard (written ``any`` or ``All`` in rule files), meaning the
  attribute's whole domain;
* a finite label set, for enumerated attributes such as protocols or
  attack classes;
* a union of closed integer intervals, for numeric attributes (ports,
  packet lengths) and IPv4 addresses mapped to unsigned 32-bit integers.

Interval unions are kept canonical: sorted, non-overlapping, and with no
two adjacent intervals (``[7,9]`` and ``[10,15]`` coalesce to ``[7,15]``).
The empty set is representable and is distinct from the wildcard.

Comparisons take the attribute's domain so that wildcards can be expanded;
one pass, :func:`vs_compare`, gives containment both ways and overlap.
Boolean combinations go through :class:`Cells`, whose results equal to the
whole domain come back as the wildcard.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

__all__ = [
    "AttrKind",
    "ValueSet",
    "ValueSetError",
    "ANY",
    "COMPLEMENT_LABEL",
    "labels",
    "intervals",
    "vs_is_empty",
    "vs_subset",
    "vs_compare",
    "Cells",
    "contains_point",
]


class ValueSetError(ValueError):
    """Raised when value sets of incompatible shapes are combined."""


class AttrKind(str, Enum):
    """The attribute kinds accepted in rule files."""

    PROTOCOL_ENUM = "protocol-enum"
    IPV4_RANGE = "ipv4-range"
    PORT_RANGE = "port-range"
    INTEGER_RANGE = "integer-range"
    LABEL_ENUM = "label-enum"

    @property
    def is_numeric(self) -> bool:
        return self in (
            AttrKind.IPV4_RANGE,
            AttrKind.PORT_RANGE,
            AttrKind.INTEGER_RANGE,
        )


#: Reserved member of every open label enumeration.  It stands for "any
#: label not named in the declaration", so that the complement of a label
#: set (e.g. All minus {winworm}) stays representable inside the domain.
COMPLEMENT_LABEL = "~other~"


class ValueSet(namedtuple("ValueSet", "labels intervals")):
    """One attribute constraint: ``(labels, intervals)``, the wildcard when both are ``None``."""

    __slots__ = ()

    def __new__(cls, labels: frozenset[str] | None = None, intervals: tuple | None = None):
        if labels is not None and intervals is not None:
            raise ValueSetError("a value set is either labels or intervals, not both")
        return tuple.__new__(cls, (labels, intervals))

    @property
    def is_wildcard(self) -> bool:
        return self.labels is None and self.intervals is None


ANY = ValueSet()


def labels(*names: str) -> ValueSet:
    return ValueSet(labels=frozenset(names))


def intervals(pairs) -> ValueSet:
    """Build a canonical interval union from (lo, hi) pairs."""
    return ValueSet(intervals=_canonical(pairs))


def _canonical(pairs) -> tuple[tuple[int, int], ...]:
    spans = sorted((int(lo), int(hi)) for lo, hi in pairs if lo <= hi)
    out: list[list[int]] = []
    for lo, hi in spans:
        if out and lo <= out[-1][1] + 1:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return tuple((lo, hi) for lo, hi in out)


# ---------------------------------------------------------------------------
# raw interval arithmetic (canonical in, canonical out)
# ---------------------------------------------------------------------------


def _ivals_intersect(a, b):
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return tuple(out)


def _check_domain(domain: ValueSet) -> None:
    if domain.is_wildcard:
        raise ValueSetError("attribute domains must be concrete, not wildcard")


def _pair(a: ValueSet, b: ValueSet, domain: ValueSet) -> tuple[ValueSet, ValueSet]:
    _check_domain(domain)
    ea = domain if a.labels is None and a.intervals is None else a
    eb = domain if b.labels is None and b.intervals is None else b
    if (ea.labels is None) != (eb.labels is None):
        raise ValueSetError("cannot combine a label set with an interval set")
    return ea, eb


def vs_is_empty(v: ValueSet) -> bool:
    return not v.is_wildcard and not (v.labels or v.intervals)


def vs_subset(a: ValueSet, b: ValueSet, domain: ValueSet) -> bool:
    """True when every value of ``a`` also belongs to ``b``."""
    return vs_compare(a, b, domain)[0]


def vs_compare(a: ValueSet, b: ValueSet, domain: ValueSet) -> tuple[bool, bool, bool]:
    """``(a ⊆ b, b ⊆ a, a ∩ b ≠ ∅)`` from one pass over both value sets.

    Two single intervals compare by their ends.  Otherwise canonical forms
    make containment an equality test: ``a ⊆ b`` exactly when ``a ∩ b`` is
    ``a`` itself.
    """
    ea, eb = _pair(a, b, domain)
    if ea.labels is not None:
        la, lb = ea.labels, eb.labels
        return la <= lb, lb <= la, not la.isdisjoint(lb)
    if len(ea.intervals) == 1 == len(eb.intervals):
        ((alo, ahi),), ((blo, bhi),) = ea.intervals, eb.intervals
        return blo <= alo and ahi <= bhi, alo <= blo and bhi <= ahi, alo <= bhi and blo <= ahi
    common = _ivals_intersect(ea.intervals, eb.intervals)
    return common == ea.intervals, common == eb.intervals, bool(common)


class Cells:
    """Bitmask codec for value sets of one attribute.

    An interval domain is cut at every interval's ``lo`` and ``hi + 1``,
    for the domain and each of ``value_sets``; bit ``i`` stands for the
    elementary cell ``[cuts[i], cuts[i + 1] - 1]``.  A label domain gets one
    bit per label.  Every value set the codec was built from, and every
    Boolean combination of them, is then an int: intersection is ``&``,
    union ``|``, difference ``& ~`` and the empty set ``0``.  This is the
    bit-vector encoding of packet classification (Lakshman & Stiliadis,
    SIGCOMM 1998).
    """

    def __init__(self, domain: ValueSet, value_sets=()):
        _check_domain(domain)
        self._numeric = domain.intervals is not None
        if self._numeric:
            spans = [span for v in (domain, *value_sets) for span in v.intervals or ()]
            self._cuts = sorted({c for lo, hi in spans for c in (lo, hi + 1)})
        else:
            self._cuts = sorted(domain.labels.union(*(v.labels or () for v in value_sets)))
        self._index = {c: i for i, c in enumerate(self._cuts)}
        self._masks: dict[ValueSet, int] = {}
        self._values: dict[int, ValueSet] = {}
        self.full = self.mask(domain)

    def mask(self, v: ValueSet) -> int:
        """The cells of ``v``; the wildcard is the whole domain."""
        m = self._masks.get(v)
        if m is None:
            m = self._masks[v] = self._encode(v)
        return m

    def _encode(self, v: ValueSet) -> int:
        if v.is_wildcard:
            return self.full
        if (v.intervals is not None) != self._numeric:
            raise ValueSetError("cannot combine a label set with an interval set")
        try:
            if self._numeric:
                index = self._index
                return sum((1 << index[hi + 1]) - (1 << index[lo]) for lo, hi in v.intervals)
            return sum(1 << self._index[label] for label in v.labels)
        except KeyError:
            raise ValueSetError(f"{v!r} is not cut by this codec") from None

    def value(self, m: int) -> ValueSet:
        """The value set of mask ``m``: ``ANY`` for the whole domain, else canonical."""
        v = self._values.get(m)
        if v is None:
            v = self._values[m] = self._decode(m)
        return v

    def _decode(self, m: int) -> ValueSet:
        if m == self.full:
            return ANY
        cuts = self._cuts
        if not self._numeric:
            return ValueSet(labels=frozenset(c for i, c in enumerate(cuts) if m >> i & 1))
        spans = []
        while m:
            low = m & -m
            end = m + low  # the carry clears the lowest run of cells and sets the bit after it
            spans.append((cuts[low.bit_length() - 1], cuts[(end & ~m).bit_length() - 1] - 1))
            m &= end
        return ValueSet(intervals=tuple(spans))


def contains_point(v: ValueSet, value: int | str, domain: ValueSet) -> bool:
    ev = domain if v.is_wildcard else v
    if ev.labels is not None:
        return value in ev.labels
    if isinstance(value, str):
        raise ValueSetError(f"interval sets hold integers, not {value!r}")
    return any(lo <= value <= hi for lo, hi in ev.intervals)

