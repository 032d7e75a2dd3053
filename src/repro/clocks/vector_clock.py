"""Vector clocks (Mattern 1988) as used by the paper's analyses.

A vector clock ``C : Tid -> Val`` maps each thread to a non-negative integer
(paper §2.4).  The operations are pointwise comparison ``C1 ⊑ C2`` and
pointwise join ``C1 ⊔ C2``.

The implementation subclasses :class:`list` for speed: analyses perform a
join or comparison at nearly every event, and attribute indirection is the
dominant cost in pure Python.  All threads are known up front (the trace
declares ``num_threads``), so clocks are fixed-width.
"""

from __future__ import annotations

from typing import Iterable

#: Sentinel for "not yet released" critical-section release times
#: (SmartTrack initializes a critical section's release clock component to
#: infinity at the acquire; paper §4.2, Algorithm 3 line 4).
INF = 1 << 62


class VectorClock(list):
    """A fixed-width vector clock; component ``t`` is thread ``t``'s time.

    Instances are plain lists of ints, so the hot-path operations below can
    use direct indexing.  Width is the number of threads in the trace.
    """

    __slots__ = ()

    @classmethod
    def zeros(cls, width: int) -> "VectorClock":
        """A clock with every component 0."""
        return cls([0] * width)

    @classmethod
    def of(cls, values: Iterable[int]) -> "VectorClock":
        """A clock with the given component values (mainly for tests)."""
        return cls(values)

    def copy(self) -> "VectorClock":
        """An independent copy of this clock."""
        return VectorClock(self)

    def join(self, other: "VectorClock") -> None:
        """Pointwise join: ``self ← self ⊔ other`` (in place).

        Joining a clock with itself (by reference) is the identity, so
        an equal-reference join returns at once.
        """
        if other is self:
            return
        i = 0
        for v in other:
            if v > self[i]:
                self[i] = v
            i += 1

    def joined(self, other: "VectorClock") -> "VectorClock":
        """Pointwise join returning a new clock: ``self ⊔ other``."""
        out = self.copy()
        out.join(other)
        return out

    def leq(self, other: "VectorClock") -> bool:
        """Pointwise comparison ``self ⊑ other``."""
        if other is self:
            return True
        for a, b in zip(self, other):
            if a > b:
                return False
        return True

    def leq_except(self, other: "VectorClock", skip: int) -> bool:
        """``self ⊑ other`` ignoring component ``skip``.

        Race checks compare a last-access clock against the current thread's
        clock; the current thread's own component always passes because
        same-thread accesses are program-order ordered (conflicting accesses
        are cross-thread by definition, §2.2).  For WCP — which does not
        contain program order — skipping the own component is required for
        correctness, not just an optimization (see DESIGN.md §4).
        """
        if other is self:
            return True
        # enumerate + subscript measures faster here than zip + counter:
        # in the common all-ordered case the `and` arm short-circuits,
        # so a separate counter increment would dominate.
        for i, v in enumerate(self):
            if v > other[i] and i != skip:
                return False
        return True

    def assign(self, other: "VectorClock") -> None:
        """Overwrite this clock's components with ``other``'s (in place).

        Used to publish a release time through a shared reference
        (SmartTrack CS lists defer the release time update; Algorithm 3
        lines 13–14).
        """
        self[:] = other

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        parts = ["inf" if v >= INF else str(v) for v in self]
        return "<" + ", ".join(parts) + ">"
