"""Fingerprint-keyed result cache for engine request payloads.

The service answers "is this migration lossless?" questions that many
clients ask identically; a conclusive answer is a pure function of the
scan configuration, so it is cached under the same canonical fingerprint
:func:`repro.core.search.scan_fingerprint` already computes for the
scan fabric's journals and its incremental mode.  The fingerprint dict
is serialized to canonical JSON and hashed (sha256), giving a stable,
filename-safe key that is identical across processes and restarts.

The cache is a bounded LRU guarded by one lock (the server hits it from
every worker thread) and optionally *persistent*: ``save()`` writes the
entries as JSON via a temp-file + :func:`os.replace` so a crash mid-save
never corrupts the previous generation, and ``ResultCache(path=...)``
warm-starts from whatever the file holds.  Only conclusive payloads
belong here — the engine never stores timeout verdicts, so a deadline
that expired once cannot mask a future answer.

Hit/miss traffic is counted as ``engine.cache.hits`` /
``engine.cache.misses`` in the metrics registry — deliberately *not*
under the ``cache.`` prefix, which :func:`repro.obs.metrics.cache_totals`
sums for the memo layer's ``perf:`` lines.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional, Union

from repro.obs import metrics as _metrics


def fingerprint_key(fingerprint: Dict[str, object]) -> str:
    """The canonical sha256 hex key of one scan-fingerprint dict."""
    canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """A bounded, thread-safe, optionally persistent payload cache.

    Values are the engine's JSON-serializable request payloads; they are
    treated as immutable once stored (the service serializes them
    straight to the wire), so ``get`` returns the stored object without
    copying.
    """

    def __init__(
        self,
        path: Union[str, Path, None] = None,
        maxsize: int = 1024,
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"result cache maxsize must be positive, got {maxsize}")
        self.path = None if path is None else Path(path)
        self.maxsize = maxsize
        self._data: "OrderedDict[str, dict]" = OrderedDict()
        self._lock = threading.RLock()
        registry = _metrics.registry()
        self._hits = registry.counter("engine.cache.hits")
        self._misses = registry.counter("engine.cache.misses")
        if self.path is not None:
            self.load()

    def get(self, key: str) -> Optional[dict]:
        """The cached payload for ``key``, or None; counts hit/miss."""
        with self._lock:
            payload = self._data.get(key)
            if payload is None:
                self._misses.inc()
                return None
            self._data.move_to_end(key)
            self._hits.inc()
            return payload

    def put(self, key: str, payload: dict) -> None:
        """Store a conclusive payload under its fingerprint key."""
        with self._lock:
            self._data[key] = payload
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    # ------------------------------------------------------------- persistence

    def load(self) -> int:
        """Warm-start from ``self.path``; returns entries loaded.

        A missing file is a cold start, not an error.  A corrupt or
        torn file is discarded wholesale (the cache is a pure
        accelerator — recomputing is always safe).
        """
        if self.path is None or not self.path.exists():
            return 0
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
            entries = raw["entries"]
        except (ValueError, KeyError, TypeError):
            return 0
        if not isinstance(entries, dict):
            return 0
        with self._lock:
            for key, payload in entries.items():
                if isinstance(key, str) and isinstance(payload, dict):
                    self._data[key] = payload
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
            return len(self._data)

    def save(self) -> Optional[Path]:
        """Persist the entries atomically; returns the path (or None).

        Writes to a sibling temp file and :func:`os.replace`-s it into
        place, so readers and crash recovery always see a complete
        generation.
        """
        if self.path is None:
            return None
        with self._lock:
            body = json.dumps(
                {"v": 1, "entries": dict(self._data)},
                sort_keys=True,
                separators=(",", ":"),
            )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(body + "\n", encoding="utf-8")
        os.replace(tmp, self.path)
        return self.path
