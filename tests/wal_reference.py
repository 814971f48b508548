"""The JSON-lines WAL writer of earlier versions (a helper module, not a test file).

``repro.updates.wal`` writes binary frames and only *reads* the JSON-lines
logs older versions wrote.  This is the old writer -- the body of the old
``WriteAheadLog.append`` plus the list conversion the old
``MutableJunoIndex.upsert`` / ``delete`` did before calling it -- kept so that
the tests can produce such logs (like ``kmeans_reference.py`` keeps the old
k-means).  Floats survive the round trip exactly: Python serialises
``float64`` with shortest-repr semantics.
"""

from __future__ import annotations

import json
from pathlib import Path


class JsonLinesWal:
    """Appends ``{"seq": ..., "op": ..., "ids": [...], "vectors": [[...]]}`` lines."""

    def __init__(self, path, last_seq: int = 0) -> None:
        self.path = Path(path)
        self.last_seq = int(last_seq)

    def append(self, op: str, ids=None, vectors=None) -> int:
        fields = {}
        if ids is not None:
            fields["ids"] = [int(i) for i in ids]
        if vectors is not None:
            fields["vectors"] = [[float(x) for x in row] for row in vectors]
        self.last_seq += 1
        record = {"seq": self.last_seq, "op": str(op), **fields}
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        return self.last_seq
