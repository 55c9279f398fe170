"""Partition keys and summary reports shared by both diff engines.

A diff summary keeps one representative witness per equivalence class of
some partition of the witness space.  The partition is supplied as a key
function; this module only knows about keys, ordering and the fold.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .record import field, record as dataclass


class PartitionKeyError(ValueError):
    """Malformed partition key (wrong kind or non-canonical payload)."""


_KINDS = ("class-set", "action-list", "action-set")


@dataclass(frozen=True, order=True)
class PartitionKey:
    """Canonical, comparable identity of one equivalence class.

    kind: one of "class-set", "action-list", "action-set".
    names: the class names (sorted, duplicate-free), the action names in
    trace order, or the action names (sorted, duplicate-free).
    """

    kind: str
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise PartitionKeyError(f"unknown partition kind: {self.kind!r}")
        if self.kind in ("class-set", "action-set"):
            canon = tuple(sorted(set(self.names)))
            if self.names != canon:
                raise PartitionKeyError(
                    f"{self.kind} key must be sorted and duplicate-free: {self.names!r}"
                )
        for n in self.names:
            if "," in n or not n:
                raise PartitionKeyError(f"bad name in partition key: {n!r}")

    @property
    def payload(self) -> bytes:
        # Canonical byte encoding; report entries sort by this.
        return ",".join(self.names).encode()

    @staticmethod
    def class_set(names: Iterable[str]) -> "PartitionKey":
        return PartitionKey("class-set", tuple(sorted(set(names))))

    @staticmethod
    def action_list(names: Sequence[str]) -> "PartitionKey":
        return PartitionKey("action-list", tuple(names))

    @staticmethod
    def action_set(names: Iterable[str]) -> "PartitionKey":
        return PartitionKey("action-set", tuple(sorted(set(names))))


@dataclass(frozen=True)
class SummaryEntry:
    key: PartitionKey
    representative: object
    annotation: str = ""


@dataclass
class SummaryReport:
    """One diff direction, summarized: the partition kind and one entry
    per class, sorted by key payload.  summarize builds every report."""

    partition_kind: str
    entries: list[SummaryEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)


def summarize(
    witnesses: Iterable[object],
    key_fn: Callable[[object], PartitionKey],
    *,
    partition_kind: str,
    annotate: Callable[[object], str] | None = None,
) -> SummaryReport:
    """Fold a witness stream into one representative per distinct key.

    The first witness seen for a key is kept, so the stream's order
    picks the representatives; entries come out sorted by key payload.
    """
    seen: dict[PartitionKey, SummaryEntry] = {}
    for w in witnesses:
        key = key_fn(w)
        if key.kind != partition_kind:
            raise PartitionKeyError(
                f"key kind {key.kind!r} does not match report kind {partition_kind!r}"
            )
        if key not in seen:
            seen[key] = SummaryEntry(key, w, annotate(w) if annotate else "")
    entries = sorted(seen.values(), key=lambda e: e.key.payload)
    return SummaryReport(partition_kind, entries)
