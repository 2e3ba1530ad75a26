"""Character classes as interval sets over Unicode codepoints.

The regular-language engine labels automaton transitions with *character
sets* rather than single characters, so that classes like ``[^/]`` or ``.``
do not explode the alphabet.  A :class:`CharSet` is a normalised, immutable
sorted list of inclusive ``(lo, hi)`` codepoint intervals.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

#: Highest codepoint in the universe.  We restrict the universe to a
#: printable-friendly range plus common control characters; shell streams
#: are byte/character oriented and nothing in the analysis needs astral
#: planes.  Using a compact universe keeps complements small.
MAX_CODEPOINT = 0x10FFFF

Interval = Tuple[int, int]


def _normalise(intervals: Iterable[Interval]) -> Tuple[Interval, ...]:
    """Sort, clamp, and merge overlapping/adjacent intervals."""
    items: List[Interval] = []
    for lo, hi in intervals:
        lo = max(0, lo)
        hi = min(MAX_CODEPOINT, hi)
        if lo > hi:
            continue
        items.append((lo, hi))
    items.sort()
    merged: List[Interval] = []
    for lo, hi in items:
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


class CharSet:
    """An immutable set of Unicode codepoints stored as intervals."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[Interval] = ()):
        object.__setattr__(self, "intervals", _normalise(intervals))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CharSet is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, chars: str) -> "CharSet":
        """Set containing exactly the characters of ``chars``."""
        return cls((ord(c), ord(c)) for c in chars)

    @classmethod
    def range(cls, lo: str, hi: str) -> "CharSet":
        """Inclusive character range, e.g. ``CharSet.range('a', 'z')``."""
        return cls([(ord(lo), ord(hi))])

    @classmethod
    def universe(cls) -> "CharSet":
        return cls([(0, MAX_CODEPOINT)])

    @classmethod
    def empty(cls) -> "CharSet":
        return cls()

    # -- queries -----------------------------------------------------------

    def __contains__(self, char: str) -> bool:
        code = ord(char)
        lo_idx, hi_idx = 0, len(self.intervals)
        while lo_idx < hi_idx:
            mid = (lo_idx + hi_idx) // 2
            lo, hi = self.intervals[mid]
            if code < lo:
                hi_idx = mid
            elif code > hi:
                lo_idx = mid + 1
            else:
                return True
        return False

    def is_empty(self) -> bool:
        return not self.intervals

    def is_universe(self) -> bool:
        return self.intervals == ((0, MAX_CODEPOINT),)

    def __len__(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.intervals)

    def sample(self) -> str:
        """An arbitrary member character (prefers printable ASCII)."""
        if self.is_empty():
            raise ValueError("empty CharSet has no sample")
        for lo, hi in self.intervals:
            start = max(lo, 0x20)
            if start <= hi and start <= 0x7E:
                return chr(start)
        return chr(self.intervals[0][0])

    def chars(self, limit: int = 64) -> Iterator[str]:
        """Iterate member characters (up to ``limit``)."""
        count = 0
        for lo, hi in self.intervals:
            for code in range(lo, hi + 1):
                if count >= limit:
                    return
                yield chr(code)
                count += 1

    # -- algebra -----------------------------------------------------------

    def union(self, other: "CharSet") -> "CharSet":
        return CharSet(self.intervals + other.intervals)

    def intersect(self, other: "CharSet") -> "CharSet":
        result: List[Interval] = []
        i = j = 0
        a, b = self.intervals, other.intervals
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo <= hi:
                result.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return CharSet(result)

    def complement(self) -> "CharSet":
        result: List[Interval] = []
        prev = 0
        for lo, hi in self.intervals:
            if prev < lo:
                result.append((prev, lo - 1))
            prev = hi + 1
        if prev <= MAX_CODEPOINT:
            result.append((prev, MAX_CODEPOINT))
        return CharSet(result)

    def difference(self, other: "CharSet") -> "CharSet":
        return self.intersect(other.complement())

    def overlaps(self, other: "CharSet") -> bool:
        return not self.intersect(other).is_empty()

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CharSet) and self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __repr__(self) -> str:
        if self.is_empty():
            return "CharSet()"
        if self.is_universe():
            return "CharSet(.)"
        parts = []
        for lo, hi in self.intervals[:8]:
            if lo == hi:
                parts.append(_show(lo))
            else:
                parts.append(f"{_show(lo)}-{_show(hi)}")
        if len(self.intervals) > 8:
            parts.append("...")
        return "CharSet([" + "".join(parts) + "])"


def _show(code: int) -> str:
    char = chr(code)
    if char.isprintable() and char not in "[]-^\\":
        return char
    return f"\\u{code:04x}"


def partition(sets: Sequence[CharSet]) -> List[CharSet]:
    """Partition the union of ``sets`` into disjoint atoms.

    Every input set is expressible as a union of returned atoms.  This is
    the alphabet-compression step used by subset construction: transitions
    out of a DFA state only need to be considered per atom.

    One sweep over the sorted interval boundaries keeps a coverage depth
    (+1 at ``lo``, -1 at ``hi + 1``); the span between two consecutive
    boundaries is an atom when some input set covers it.  Every boundary
    splits, even one whose net depth change is 0, so atoms are always
    single intervals.
    """
    depth_change: Dict[int, int] = {}
    for cs in sets:
        for lo, hi in cs.intervals:
            depth_change[lo] = depth_change.get(lo, 0) + 1
            depth_change[hi + 1] = depth_change.get(hi + 1, 0) - 1
    marks = sorted(depth_change)
    atoms: List[CharSet] = []
    depth = 0
    for idx in range(len(marks) - 1):
        lo = marks[idx]
        depth += depth_change[lo]
        if depth:
            atoms.append(CharSet([(lo, marks[idx + 1] - 1)]))
    return atoms
