"""LRU memoization for compliance rulings.

The engine is deterministic and side-effect free, and every input an
action's ruling depends on is captured by its fingerprint
(:mod:`repro.core.fingerprint`), so rulings are safe to share between
equal-fingerprint actions.  This module provides the bounded LRU map the
engine uses to do that, instrumented with the hit/miss/eviction counters
that ``repro bench`` reports.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict

from repro.core.fingerprint import ActionFingerprint
from repro.core.ruling import Ruling

#: Cache size used when a caller asks for caching without choosing a
#: bound.  Rulings are small frozen dataclasses; 4096 of them is a few
#: megabytes and covers the full fingerprint space of most workloads.
DEFAULT_CACHE_SIZE = 4096


@dataclasses.dataclass
class CacheStats:
    """Counters describing a :class:`RulingCache`'s behaviour.

    Attributes:
        hits: Lookups answered from the cache.
        misses: Lookups that fell through to a fresh evaluation.
        evictions: Entries discarded because the cache was full.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        """JSON-serializable view, as emitted in ``BENCH_engine.json``."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class RulingCache:
    """A bounded LRU map from action fingerprints to rulings.

    Lookups move entries to the most-recently-used end; inserts beyond
    ``maxsize`` evict the least-recently-used entry.  The cache never
    mutates rulings — they are frozen — so a hit returns the identical
    object a previous evaluation produced.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1: {maxsize}")
        self._maxsize = maxsize
        self._entries: OrderedDict[ActionFingerprint, Ruling] = OrderedDict()
        self._stats = CacheStats()

    @property
    def maxsize(self) -> int:
        """The bound on resident entries."""
        return self._maxsize

    @property
    def stats(self) -> CacheStats:
        """Live hit/miss/eviction counters."""
        return self._stats

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: ActionFingerprint) -> bool:
        return fingerprint in self._entries

    def get(self, fingerprint: ActionFingerprint) -> Ruling | None:
        """The cached ruling for a fingerprint, or ``None`` on a miss.

        A hit refreshes the entry's recency; both outcomes are counted.
        """
        ruling = self._entries.get(fingerprint)
        if ruling is None:
            self._stats.misses += 1
            return None
        self._entries.move_to_end(fingerprint)
        self._stats.hits += 1
        return ruling

    def put(self, fingerprint: ActionFingerprint, ruling: Ruling) -> None:
        """Insert a ruling, evicting the LRU entry if at capacity."""
        if fingerprint in self._entries:
            self._entries.move_to_end(fingerprint)
            self._entries[fingerprint] = ruling
            return
        if len(self._entries) >= self._maxsize:
            self._entries.popitem(last=False)
            self._stats.evictions += 1
        self._entries[fingerprint] = ruling

    def get_or_compute(self, items, fingerprint_of, compute) -> list:
        """Batched lookup: one ruling per item, computing on each miss.

        Functionally identical to a ``get``/``compute``/``put`` loop, but
        trimmed for the cold path: the fingerprint is hashed once per hit
        and twice per miss (``put`` alone re-hashes it twice more for the
        membership check and insert — redundant here, since the key was
        just observed absent and ``compute`` never touches this cache),
        dict/stat attribute lookups are hoisted out of the loop, and the
        counters are updated once per batch instead of once per item.

        Args:
            items: The things to resolve (the engine passes actions).
            fingerprint_of: Maps an item to its cache key.
            compute: Maps an item to its value on a miss; must be pure.

        Returns:
            The values, in item order — identical objects to what the
            ``get``/``put`` loop would produce, with identical final
            hit/miss/eviction counts.
        """
        entries = self._entries
        entry_getter = entries.get
        refresh = entries.move_to_end
        evict = entries.popitem
        maxsize = self._maxsize
        hits = misses = evictions = 0
        results = []
        append = results.append
        for item in items:
            fingerprint = fingerprint_of(item)
            value = entry_getter(fingerprint)
            if value is None:
                misses += 1
                value = compute(item)
                if len(entries) >= maxsize:
                    evict(last=False)
                    evictions += 1
                entries[fingerprint] = value
            else:
                hits += 1
                refresh(fingerprint)
            append(value)
        stats = self._stats
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        return results

    def clear(self) -> None:
        """Drop every entry; counters are left intact (use ``stats.reset``)."""
        self._entries.clear()
