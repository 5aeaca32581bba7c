"""The :class:`LabelPath` value type.

A *k-label path* is a sequence ``ℓ = l1/l2/.../lk`` of edge labels.  Viewed as
a query it returns all vertex pairs connected by a path spelling those labels
(Section 2 of the paper).  ``LabelPath`` is the immutable value type used
throughout the library: orderings map it to integers, the catalog stores its
selectivity, and the evaluator executes it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Union

from repro.exceptions import InvalidLabelPathError

__all__ = ["LabelPath", "SEPARATOR"]

#: Separator used in the textual form ``"a/b/c"`` (the paper's notation).
SEPARATOR = "/"


class LabelPath:
    """An immutable sequence of edge labels, e.g. ``LabelPath.parse("1/2/3")``.

    ``LabelPath`` behaves like a tuple of label strings: it is hashable,
    comparable for equality, iterable, indexable and sliceable (slicing
    returns another ``LabelPath``).
    """

    __slots__ = ("_labels",)

    def __init__(self, labels: Iterable[str]) -> None:
        labels_tuple = tuple(labels)
        if not labels_tuple:
            raise InvalidLabelPathError("a label path must contain at least one label")
        for label in labels_tuple:
            if not isinstance(label, str):
                raise InvalidLabelPathError(
                    f"labels must be strings, got {type(label).__name__}: {label!r}"
                )
            if not label:
                raise InvalidLabelPathError("labels must be non-empty strings")
            if SEPARATOR in label:
                raise InvalidLabelPathError(
                    f"label {label!r} must not contain the separator {SEPARATOR!r}"
                )
        self._labels = labels_tuple

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: Union[str, "LabelPath"]) -> "LabelPath":
        """Parse the textual form ``"l1/l2/.../lk"`` into a ``LabelPath``.

        Passing an existing ``LabelPath`` returns it unchanged, so APIs can
        accept either form.
        """
        if isinstance(text, LabelPath):
            return text
        if not isinstance(text, str):
            raise InvalidLabelPathError(
                f"cannot parse a label path from {type(text).__name__}"
            )
        stripped = text.strip()
        if not stripped:
            raise InvalidLabelPathError("empty label path expression")
        return cls(stripped.split(SEPARATOR))

    @classmethod
    def single(cls, label: str) -> "LabelPath":
        """A length-1 path consisting of ``label``."""
        return cls((label,))

    @classmethod
    def _from_validated(cls, labels: tuple[str, ...]) -> "LabelPath":
        """Wrap an already-validated non-empty label tuple without re-checking.

        Internal fast path for the batch unranking routines, which emit
        thousands of paths whose labels all come from a validated alphabet;
        everything else should use the checked constructor.
        """
        path = cls.__new__(cls)
        path._labels = labels
        return path

    @classmethod
    def from_domain_index(cls, index: int, alphabet: Sequence[str]) -> "LabelPath":
        """The path at canonical domain ``index`` over the sorted ``alphabet``.

        Inverse of :meth:`domain_index`; see
        :func:`repro.paths.index.domain_index_to_path` for the arithmetic.
        """
        from repro.paths.index import domain_index_to_path

        return domain_index_to_path(index, alphabet)

    def domain_index(self, alphabet: Sequence[str]) -> int:
        """This path's position in the canonical numerical-alphabetical order.

        The order is the one :func:`repro.paths.enumeration.enumerate_label_paths`
        yields and the one the catalog's domain indices count in: shorter
        paths first, ties resolved digit by digit over the sorted
        ``alphabet`` (base-``|L|`` arithmetic).
        """
        from repro.paths.index import path_to_domain_index

        return path_to_domain_index(self, alphabet)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def labels(self) -> tuple[str, ...]:
        """The labels as a tuple."""
        return self._labels

    @property
    def length(self) -> int:
        """The path length ``k = |ℓ|``."""
        return len(self._labels)

    @property
    def first(self) -> str:
        """The first label."""
        return self._labels[0]

    @property
    def last(self) -> str:
        """The last label."""
        return self._labels[-1]

    # ------------------------------------------------------------------
    # composition / decomposition
    # ------------------------------------------------------------------
    def concat(self, other: Union["LabelPath", str]) -> "LabelPath":
        """Concatenate with another path (or single label) on the right."""
        if isinstance(other, str):
            other = LabelPath.parse(other)
        return LabelPath(self._labels + other._labels)

    def prefix(self, length: int) -> "LabelPath":
        """The prefix of the given ``length`` (must be in ``[1, len]``)."""
        if not 1 <= length <= self.length:
            raise InvalidLabelPathError(
                f"prefix length {length} out of range for path of length {self.length}"
            )
        return LabelPath(self._labels[:length])

    def suffix(self, length: int) -> "LabelPath":
        """The suffix of the given ``length`` (must be in ``[1, len]``)."""
        if not 1 <= length <= self.length:
            raise InvalidLabelPathError(
                f"suffix length {length} out of range for path of length {self.length}"
            )
        return LabelPath(self._labels[-length:])

    def prefixes(self) -> Iterator["LabelPath"]:
        """All proper and improper prefixes, shortest first."""
        for end in range(1, self.length + 1):
            yield LabelPath(self._labels[:end])

    def split_at(self, position: int) -> tuple["LabelPath", "LabelPath"]:
        """Split into ``(self[:position], self[position:])``; both non-empty."""
        if not 1 <= position <= self.length - 1:
            raise InvalidLabelPathError(
                f"split position {position} out of range for path of length {self.length}"
            )
        return LabelPath(self._labels[:position]), LabelPath(self._labels[position:])

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[str]:
        return iter(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def __getitem__(self, item: Union[int, slice]) -> Union[str, "LabelPath"]:
        if isinstance(item, slice):
            selected = self._labels[item]
            if not selected:
                raise InvalidLabelPathError("slicing a LabelPath must keep at least one label")
            return LabelPath(selected)
        return self._labels[item]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LabelPath):
            return self._labels == other._labels
        if isinstance(other, tuple):
            return self._labels == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._labels)

    def __lt__(self, other: "LabelPath") -> bool:
        # Plain tuple comparison; the ordering framework defines the orderings
        # that actually matter, this is only for stable sorting in reports.
        if not isinstance(other, LabelPath):
            return NotImplemented
        return self._labels < other._labels

    def __str__(self) -> str:
        return SEPARATOR.join(self._labels)

    def __repr__(self) -> str:
        return f"LabelPath({str(self)!r})"


def as_label_path(value: Union[str, Sequence[str], LabelPath]) -> LabelPath:
    """Coerce a string, sequence of labels, or ``LabelPath`` to a ``LabelPath``."""
    if isinstance(value, LabelPath):
        return value
    if isinstance(value, str):
        return LabelPath.parse(value)
    return LabelPath(value)
