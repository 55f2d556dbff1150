"""Bounded LRU artifact cache with single-flight deduplication.

Artifacts are the exact response bodies the server sends (bytes), keyed
by the full parameter tuple that determines them —
``(dataset digest, endpoint, alpha, h, seed, variant, …)``.
Because every compute layer underneath is deterministic under a
fixed seed (the bit-identity contracts of PRs 1–6) and dataset
round-trips are lossless, a cache hit is *guaranteed* byte-identical to
recomputation — so a hot ``(alpha, h)`` cell is computed once and
served millions of times.

Single flight: when N requests for the same key arrive concurrently,
exactly one (the *leader*) computes; the rest (the *followers*) block
on the leader's event and receive the same object.  A leader's failure
propagates to its followers but is never cached, so a transient error
doesn't poison the key.

Disk spill: with ``spill_dir`` set, *bytes* artifacts evicted from the
in-memory LRU are written to a size-bounded on-disk tier (the shape of
sabnzbd's article cache) instead of being dropped.  A later lookup that
misses memory reloads from disk, verifies the artifact's SHA-256
against the digest recorded at spill time (a corrupted or truncated
file is discarded, never served), and promotes the value back into
memory.  The spill tier is itself LRU-bounded by total bytes.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

from repro.exceptions import ServerError


class _Flight:
    """In-flight computation shared by a leader and its followers."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = None
        self.error: "BaseException | None" = None


def _spill_name(key: Hashable) -> str:
    """Stable on-disk filename for a cache key."""
    material = key if isinstance(key, bytes) else repr(key).encode("utf-8")
    return hashlib.sha256(material).hexdigest() + ".art"


class ArtifactCache:
    """Thread-safe bounded LRU map with single-flight ``get_or_compute``.

    Parameters
    ----------
    capacity:
        Maximum in-memory entries.
    spill_dir:
        Optional directory for the disk-spill tier; ``None`` (default)
        disables spilling and evictions are simply dropped.
    spill_capacity_bytes:
        Total byte budget of the spill tier; the least recently spilled
        artifacts are deleted beyond it.
    """

    def __init__(
        self,
        capacity: int = 128,
        spill_dir: "str | None" = None,
        spill_capacity_bytes: int = 256 << 20,
    ) -> None:
        if capacity < 1:
            raise ServerError(f"capacity must be positive, got {capacity}")
        if spill_capacity_bytes < 0:
            raise ServerError(
                f"spill capacity must be non-negative, got {spill_capacity_bytes}"
            )
        self.capacity = capacity
        self.spill_dir = spill_dir
        self.spill_capacity_bytes = spill_capacity_bytes
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        #: key -> (filename, sha256 hex of the artifact bytes, size)
        self._spilled: "OrderedDict[Hashable, tuple[str, str, int]]" = OrderedDict()
        self._spill_bytes = 0
        self._inflight: dict[Hashable, _Flight] = {}
        #: tag -> keys carrying it, and the reverse map.  Tags group the
        #: artifacts derived from one dataset digest so a delta push can
        #: evict exactly the stale ones (:meth:`invalidate`).
        self._tags: dict[Hashable, set] = {}
        self._tag_of: dict[Hashable, Hashable] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.joined = 0  # followers served by another request's flight
        self.spills = 0        # artifacts written to the disk tier
        self.spill_hits = 0    # lookups served by reloading from disk
        self.spill_evictions = 0  # spilled artifacts dropped for space
        self.spill_corrupt = 0    # reloads rejected by digest verification
        self.invalidations = 0    # artifacts dropped by tag invalidation
        if spill_dir is not None:
            os.makedirs(spill_dir, exist_ok=True)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries or key in self._spilled

    # -- tag index (all methods called with the lock held) ------------------
    def _tag_locked(self, key: Hashable, tag: Hashable) -> None:
        if tag is None:
            return
        old = self._tag_of.get(key)
        if old == tag:
            return
        if old is not None:
            members = self._tags.get(old)
            if members is not None:
                members.discard(key)
                if not members:
                    del self._tags[old]
        self._tag_of[key] = tag
        self._tags.setdefault(tag, set()).add(key)

    def _untag_locked(self, key: Hashable) -> None:
        tag = self._tag_of.pop(key, None)
        if tag is not None:
            members = self._tags.get(tag)
            if members is not None:
                members.discard(key)
                if not members:
                    del self._tags[tag]

    # -- spill tier (all methods called with the lock held) -----------------
    def _evict_overflow_locked(self) -> None:
        while len(self._entries) > self.capacity:
            key, value = self._entries.popitem(last=False)
            self.evictions += 1
            if not self._spill_put_locked(key, value):
                self._untag_locked(key)  # gone from both tiers

    def _spill_put_locked(self, key: Hashable, value: Any) -> bool:
        if self.spill_dir is None or not isinstance(value, bytes):
            return False  # only byte artifacts have a canonical disk form
        name = _spill_name(key)
        try:
            with open(os.path.join(self.spill_dir, name), "wb") as fh:
                fh.write(value)
        except OSError:
            return False  # a full/broken spill disk degrades to plain eviction
        previous = self._spilled.pop(key, None)
        if previous is not None:
            self._spill_bytes -= previous[2]
        self._spilled[key] = (name, hashlib.sha256(value).hexdigest(), len(value))
        self._spill_bytes += len(value)
        self.spills += 1
        while self._spill_bytes > self.spill_capacity_bytes and self._spilled:
            evicted = next(iter(self._spilled))
            self._spill_drop_locked(evicted)
            self.spill_evictions += 1
            if evicted != key:
                self._untag_locked(evicted)
        return key in self._spilled

    def _spill_drop_locked(self, key: Hashable) -> None:
        name, _digest, size = self._spilled.pop(key)
        self._spill_bytes -= size
        try:
            os.unlink(os.path.join(self.spill_dir, name))
        except OSError:
            pass

    def _spill_load_locked(self, key: Hashable) -> "bytes | None":
        """Reload + verify + promote a spilled artifact (None on miss)."""
        record = self._spilled.get(key)
        if record is None:
            return None
        name, digest, _size = record
        try:
            with open(os.path.join(self.spill_dir, name), "rb") as fh:
                value = fh.read()
        except OSError:
            value = None
        if value is None or hashlib.sha256(value).hexdigest() != digest:
            # Lost or corrupted on disk: never serve it, forget it.
            self._spill_drop_locked(key)
            self._untag_locked(key)
            self.spill_corrupt += 1
            return None
        self._spill_drop_locked(key)
        self.spill_hits += 1
        self._entries[key] = value
        self._entries.move_to_end(key)
        self._evict_overflow_locked()
        return value

    # -- public API ---------------------------------------------------------
    def get(self, key: Hashable) -> Any:
        """Return the cached value or ``None`` (counts as hit/miss)."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            value = self._spill_load_locked(key)
            if value is not None:
                return value
            self.misses += 1
            return None

    def put(self, key: Hashable, value: Any, tag: Hashable = None) -> None:
        """Insert/refresh an entry, evicting the least recently used.

        ``tag`` (optional) groups the key for :meth:`invalidate` — the
        server tags every artifact with its dataset's content digest.
        """
        with self._lock:
            if key in self._spilled:
                self._spill_drop_locked(key)  # superseded by fresh value
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._tag_locked(key, tag)
            self._evict_overflow_locked()

    def invalidate(self, tag: Hashable) -> int:
        """Drop every artifact tagged ``tag`` from both tiers.

        Returns the number of artifacts dropped.  This is the targeted
        eviction path of a dataset delta push: only the keys derived
        from the superseded digest go, every other dataset's artifacts
        stay hot.
        """
        with self._lock:
            keys = self._tags.pop(tag, set())
            for key in keys:
                self._tag_of.pop(key, None)
                self._entries.pop(key, None)
                if key in self._spilled:
                    self._spill_drop_locked(key)
            self.invalidations += len(keys)
            return len(keys)

    def get_or_compute(
        self, key: Hashable, compute: Callable[[], Any], tag: Hashable = None
    ) -> tuple[Any, bool]:
        """Return ``(value, served_without_computing)`` for ``key``.

        Exactly one concurrent caller per key runs ``compute``; the
        value is cached and every other caller — concurrent followers
        and later requests alike — receives it without recomputation.
        """
        while True:
            with self._lock:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return self._entries[key], True
                spilled = self._spill_load_locked(key)
                if spilled is not None:
                    return spilled, True
                flight = self._inflight.get(key)
                if flight is None:
                    flight = _Flight()
                    self._inflight[key] = flight
                    break  # this caller leads
            # Follower: wait out the leader, then share its outcome.
            # A leader failure is re-raised with its original type, so
            # followers map to the same HTTP status the leader did
            # (e.g. AdmissionError -> 429, not a blanket 400/500).
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            with self._lock:
                self.joined += 1
            return flight.value, True

        try:
            value = compute()
        except BaseException as error:  # noqa: BLE001 - relayed to followers
            flight.error = error
            with self._lock:
                del self._inflight[key]
            flight.event.set()
            raise
        flight.value = value
        with self._lock:
            self.misses += 1
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._tag_locked(key, tag)
            self._evict_overflow_locked()
            del self._inflight[key]
        flight.event.set()
        return value, False

    def stats(self) -> dict:
        with self._lock:
            lookups = self.hits + self.joined + self.spill_hits + self.misses
            stats = {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "single_flight_joins": self.joined,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "tagged_keys": len(self._tag_of),
                "hit_rate": (
                    (self.hits + self.joined + self.spill_hits) / lookups
                    if lookups else 0.0
                ),
            }
            if self.spill_dir is not None:
                stats["spill"] = {
                    "entries": len(self._spilled),
                    "bytes": self._spill_bytes,
                    "capacity_bytes": self.spill_capacity_bytes,
                    "spills": self.spills,
                    "hits": self.spill_hits,
                    "evictions": self.spill_evictions,
                    "corrupt": self.spill_corrupt,
                }
            return stats

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            for key in list(self._spilled):
                self._spill_drop_locked(key)
            self._spill_bytes = 0
            self._tags.clear()
            self._tag_of.clear()
            self.hits = self.misses = self.evictions = self.joined = 0
            self.spills = self.spill_hits = 0
            self.spill_evictions = self.spill_corrupt = 0
            self.invalidations = 0
