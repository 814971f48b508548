"""Tombstones: the deleted-id set of a mutable index.

Deletes in the streaming-update layer are logical first and physical later:
a delete (or an upsert superseding a trained point) adds the point's global
id to a :class:`TombstoneSet`, search filters tombstoned ids out of every
result before they can surface, and the online compactor eventually purges
the underlying rows for real (:meth:`repro.updates.mutable.MutableJunoIndex.compact`).

The set is deliberately tiny: membership and a deterministic (sorted) array
form for persistence snapshots.  Search masks rows, not ids: the mutable
index keeps a per-row dead mask current beside this set.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


class TombstoneSet:
    """Global ids whose trained (base-index) copy must never surface."""

    def __init__(self, ids: Iterable[int] = ()) -> None:
        self._ids: set[int] = {int(i) for i in ids}

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, global_id: int) -> bool:
        return int(global_id) in self._ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TombstoneSet({len(self._ids)} ids)"

    def add(self, ids: Iterable[int]) -> None:
        """Tombstone every id in ``ids``."""
        self._ids.update(int(i) for i in ids)

    def discard(self, ids: Iterable[int]) -> None:
        """Drop tombstones (a purge, or an id resurrected by an upsert)."""
        self._ids.difference_update(int(i) for i in ids)

    def clear(self) -> None:
        """Forget every tombstone (compaction purged the rows)."""
        self._ids.clear()

    def to_array(self) -> np.ndarray:
        """The tombstoned ids as a sorted ``int64`` array (deterministic)."""
        return np.array(sorted(self._ids), dtype=np.int64)
