"""Lease-based shard ownership with heartbeats, TTLs and work stealing.

One lease file per shard (``leases/shard-00042.lease``) holds a single
JSON record naming the current owner.  All mutations happen inside a
short ``fcntl.flock``-ed read-modify-write, so concurrent workers on the
same machine (or a shared POSIX filesystem with sane flock semantics)
never interleave; *logical* ownership, though, lives in the record, not
the lock — a worker holds the flock only for microseconds at a time,
never across a scan.

The protocol:

* ``try_acquire`` claims a shard when its lease is absent, released, or
  *expired* — ``now - heartbeat > ttl``.  Claiming an expired lease from
  another owner is work stealing: the previous owner is presumed dead
  (crashed, OOM-killed) or wedged.  Each acquisition increments the
  record's ``generation``; the generation doubles as the fault-injection
  ``attempt`` and as the discriminator in journal segment names, so two
  owners of the same shard never co-write one file.
* ``heartbeat`` refreshes the timestamp *only if* the record still names
  this owner at this generation.  A ``False`` return means the lease was
  stolen; the worker must abandon the shard (its journal up to that
  point is kept — completed cells are completed, and the thief resumes
  from them).  A slow-but-alive worker losing its lease is therefore
  safe, merely wasteful: both owners' segments agree cell for cell, and
  the merge tolerates identical duplicates.
* ``release`` marks the record released after the shard's ``.done``
  marker is published, so the lease file never outlives its usefulness
  as a claim.  A worker interrupted or failing mid-shard releases too,
  so its rerun need not wait out the TTL; only a killed worker leaves
  its lease to expire.

Clocks: expiry compares one worker's ``clock()`` against another's
heartbeat timestamp, so wildly skewed clocks across machines can cause
premature steals.  That is safe (see above) but wasteful — keep TTLs
comfortably above both the slowest cell and the worst plausible skew.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Union

try:  # pragma: no cover - exercised only where fcntl is missing
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    _fcntl = None

DEFAULT_TTL = 30.0


def _flock(fd: int) -> None:
    if _fcntl is not None:
        _fcntl.flock(fd, _fcntl.LOCK_EX)


def _funlock(fd: int) -> None:
    if _fcntl is not None:
        _fcntl.flock(fd, _fcntl.LOCK_UN)


class LeaseRecord(NamedTuple):
    """The JSON record inside a lease file."""

    owner: str
    pid: int
    generation: int
    acquired_at: float
    heartbeat: float
    ttl: float
    released: bool = False

    def expired(self, now: float) -> bool:
        """True when the heartbeat is older than the TTL allows."""
        return (now - self.heartbeat) > self.ttl

    def claimable(self, now: float) -> bool:
        """True when a new owner may take this lease."""
        return self.released or self.expired(now)


def read_lease(path: Union[str, Path]) -> Optional[LeaseRecord]:
    """The record in a lease file, or None if absent/empty/torn.

    A torn record (the writer died inside the critical section before
    ``fsync``) reads as *no lease*: the shard is simply claimable, which
    is exactly what a dead claimant should leave behind.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return None
    if not raw.strip():
        return None
    try:
        payload = json.loads(raw.decode("utf-8"))
        return LeaseRecord(**payload)
    except (ValueError, TypeError):
        return None


class ShardLease:
    """This worker's handle on one shard's lease file."""

    def __init__(
        self,
        path: Union[str, Path],
        owner: str,
        ttl: float = DEFAULT_TTL,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if ttl <= 0:
            raise ValueError(f"lease ttl must be positive (got {ttl})")
        self.path = Path(path)
        self.owner = owner
        self.ttl = float(ttl)
        self.clock = clock
        #: Our record as of the last successful acquire/heartbeat; None
        #: when we do not (or no longer) hold the lease.
        self.record: Optional[LeaseRecord] = None
        #: How the last successful ``try_acquire`` got the shard:
        #: ``"fresh"`` (no previous lease), ``"reacquire"`` (our own or
        #: a released lease), or ``"steal"`` (another owner's unreleased
        #: lease, taken after expiry).  Telemetry distinguishes steals
        #: so the lease Gantt and steal counters are honest.
        self.last_acquire: Optional[str] = None

    @contextmanager
    def _locked(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            _flock(fd)
            try:
                yield fd
            finally:
                _funlock(fd)
        finally:
            os.close(fd)

    @staticmethod
    def _read(fd: int) -> Optional[LeaseRecord]:
        os.lseek(fd, 0, os.SEEK_SET)
        chunks = []
        while True:
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            chunks.append(chunk)
        raw = b"".join(chunks)
        if not raw.strip():
            return None
        try:
            return LeaseRecord(**json.loads(raw.decode("utf-8")))
        except (ValueError, TypeError):
            return None  # torn write by a dead claimant: treat as absent

    @staticmethod
    def _write(fd: int, record: LeaseRecord) -> None:
        payload = json.dumps(record._asdict(), sort_keys=True).encode("utf-8")
        os.lseek(fd, 0, os.SEEK_SET)
        os.ftruncate(fd, 0)
        os.write(fd, payload)
        os.fsync(fd)

    def try_acquire(self) -> Optional[LeaseRecord]:
        """Claim the shard if it is unowned, released, expired, or ours.

        Returns the new record on success (generation bumped past any
        previous claim), or None when another owner's lease is still
        live.  Metrics: every success counts ``fabric.shards.leased``;
        taking over an unreleased lease additionally counts
        ``fabric.shards.reclaimed``, and ``fabric.shards.stolen`` when
        that lease belonged to a *different* owner.
        """
        from repro.obs import metrics as _metrics

        with self._locked() as fd:
            current = self._read(fd)
            now = self.clock()
            if (
                current is not None
                and not current.claimable(now)
                and current.owner != self.owner
            ):
                return None
            generation = 0 if current is None else current.generation + 1
            record = LeaseRecord(
                owner=self.owner,
                pid=os.getpid(),
                generation=generation,
                acquired_at=now,
                heartbeat=now,
                ttl=self.ttl,
                released=False,
            )
            self._write(fd, record)
            registry = _metrics.registry()
            registry.counter("fabric.shards.leased").inc()
            if current is None:
                self.last_acquire = "fresh"
            else:
                self.last_acquire = "reacquire"
            if current is not None and not current.released:
                registry.counter("fabric.shards.reclaimed").inc()
                if current.owner != self.owner:
                    registry.counter("fabric.shards.stolen").inc()
                    self.last_acquire = "steal"
            self.record = record
            return record

    def heartbeat(self) -> bool:
        """Refresh our heartbeat; False means the lease is no longer ours.

        On False the handle forgets its record: the shard has been stolen
        (or the lease file vanished) and this worker must stop writing
        the shard's ``.done`` marker or releasing on its behalf.
        """
        if self.record is None:
            return False
        with self._locked() as fd:
            current = self._read(fd)
            if (
                current is None
                or current.owner != self.owner
                or current.generation != self.record.generation
                or current.released
            ):
                self.record = None
                return False
            updated = current._replace(heartbeat=self.clock())
            self._write(fd, updated)
            self.record = updated
            return True

    def release(self) -> None:
        """Mark the lease released (idempotent; no-op if not ours)."""
        if self.record is None:
            return
        with self._locked() as fd:
            current = self._read(fd)
            if (
                current is not None
                and current.owner == self.owner
                and current.generation == self.record.generation
            ):
                self._write(
                    fd,
                    current._replace(released=True, heartbeat=self.clock()),
                )
        self.record = None
