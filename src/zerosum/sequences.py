"""Sequences over a finite group, stored as normal-form multisets.

Whether a sequence has a product-1 subsequence is invariant under reordering
(the property quantifies over all orderings), so sequences carry no order:
the normal form is the sorted tuple of element indices, and two sequences are
equal exactly when their normal forms are.

Text format: comma-separated element words in brackets, e.g. ``[y, y, x*y^2]``.
Whitespace is ignored; ``[]`` is the empty sequence.
"""

from __future__ import annotations

from collections import Counter

from .groups import Frozen, Group


class SequenceError(ValueError):
    """Malformed sequence text or an invalid sequence operation."""


# Bound once: GSequence.__init__ runs once per multiset an enumeration returns.
_set = object.__setattr__


class GSequence(Frozen):
    """A finite multiset of group elements in normal form.

    Immutable and hashable; sequences compare and order by
    ``(group_key, items)``, and only with other sequences.
    """

    __slots__ = ("group_key", "items")

    def __init__(self, group_key: str, items: tuple[int, ...]):
        _set(self, "group_key", group_key)
        _set(self, "items", items)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.items == other.items and self.group_key == other.group_key

    def __hash__(self):
        return hash((self.group_key, self.items))

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.group_key, self.items) < (other.group_key, other.items)

    def __le__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.group_key, self.items) <= (other.group_key, other.items)

    def __gt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.group_key, self.items) > (other.group_key, other.items)

    def __ge__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.group_key, self.items) >= (other.group_key, other.items)

    @staticmethod
    def from_indices(group: Group, indices: Iterable[int]) -> "GSequence":
        items = tuple(sorted(indices))
        for a in items:
            if not 0 <= a < group.order:
                raise SequenceError(f"element index {a} out of range for {group.key}")
        return GSequence(group.key, items)

    @staticmethod
    def from_text(group: Group, text: str) -> "GSequence":
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise SequenceError(f"sequence {text!r} must be bracketed like [y, x*y^2]")
        body = body[1:-1].strip()
        if not body:
            return GSequence(group.key, ())
        return GSequence.from_indices(
            group, (group.element_from_word(w) for w in body.split(",")))

    # -- basic views ----------------------------------------------------

    @property
    def length(self) -> int:
        return len(self.items)

    def counts(self) -> Counter:
        return Counter(self.items)

    def format(self, group: Group) -> str:
        self._check_group(group)
        return "[" + ", ".join(group.names[a] for a in self.items) + "]"

    def _check_group(self, group: Group):
        if group.key != self.group_key:
            raise SequenceError(
                f"sequence over {self.group_key} used with group {group.key}")

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)
