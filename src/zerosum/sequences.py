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
from dataclasses import dataclass
from typing import Iterable

from .groups import Group


class SequenceError(ValueError):
    """Malformed sequence text or an invalid sequence operation."""


@dataclass(frozen=True, order=True)
class GSequence:
    """A finite multiset of group elements in normal form."""

    group_key: str
    items: tuple[int, ...]

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
