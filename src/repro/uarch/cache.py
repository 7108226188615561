"""Set-associative cache model with LRU replacement and write-back.

Used for the DL1 and the unified L2 of Table 2.  The model is
functional-plus-latency: each access returns the total load-use latency
implied by where the data was found (DL1 hit = 3, L2 hit = 16,
memory = 16 + 60 cycles with the paper's parameters), and traffic
counters record line movements.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.uarch.config import CacheConfig


class Cache:
    """One cache level; ``next_level`` chains to the L2 / memory.

    Each set is a list of resident line numbers, least recently used
    first; one set holds the dirty resident lines of the whole cache.
    """

    def __init__(
        self,
        config: CacheConfig,
        next_level: Optional["Cache"] = None,
        memory_latency: int = 60,
        name: str = "cache",
    ):
        self.config = config
        self.name = name
        self.next_level = next_level
        self.memory_latency = memory_latency
        self.latency = config.latency
        self.line_size = config.line_size
        self.assoc = config.assoc
        self.num_sets = max(1, config.size // (config.line_size * config.assoc))
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self._dirty: Set[int] = set()
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.fills = 0

    def access(self, addr: int, is_write=False) -> int:
        """Access one address; returns the total latency in cycles.

        ``is_write`` may be any truthy value.
        """
        line = addr // self.line_size
        ways = self._sets[line % self.num_sets]
        if line in ways:
            self.hits += 1
            if ways[-1] != line:
                ways.remove(line)
                ways.append(line)
            if is_write:
                self._dirty.add(line)
            return self.latency
        # Miss: fetch from the next level (or memory).
        self.misses += 1
        self.fills += 1
        if self.next_level is not None:
            below = self.next_level.access(addr)
        else:
            below = self.memory_latency
        if len(ways) >= self.assoc:
            victim = ways.pop(0)
            if victim in self._dirty:
                # Write buffers absorb the writeback: no latency.
                self._dirty.remove(victim)
                self.writebacks += 1
        ways.append(line)
        if is_write:
            self._dirty.add(line)
        # Total load-use latency: this level's lookup plus the fill.
        return self.latency + below

    def probe(self, addr: int) -> bool:
        """True if ``addr`` is currently resident (no state change)."""
        line = addr // self.line_size
        return line in self._sets[line % self.num_sets]

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.misses / total


def build_hierarchy(
    dl1: CacheConfig, l2: CacheConfig, memory_latency: int
) -> Tuple[Cache, Cache]:
    """Build the DL1 -> L2 -> memory chain of Table 2."""
    level2 = Cache(l2, next_level=None, memory_latency=memory_latency, name="L2")
    level1 = Cache(dl1, next_level=level2, name="DL1")
    return level1, level2
