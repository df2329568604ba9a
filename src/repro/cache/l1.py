"""Per-SM L1 data cache.

Table I's GPU has a 32 KB L1D per SM.  The model is word-granular like the
L2 slice (one 32-byte DRAM word per entry), set-associative with LRU:

* loads: hit → satisfied locally after ``hit_latency`` (no NoC traffic);
  miss → forwarded, line installed when the reply returns.
* stores: write-through, no-allocate — forwarded unchanged (GPU L1s are
  typically write-through to keep coherence simple), updating the line's
  LRU position on a hit.
* PIM (cache-streaming) requests always bypass (Section III-A).

The L1 is disabled by default in :class:`repro.config.SystemConfig`: the
paper's contention effects live between the SMs and DRAM, and the workload
profiles' ``l2_reuse`` parameter is calibrated against the L2 alone.
Enable it (``l1_enabled=True``) for the L1 filtering study
(`examples/l1_filtering.py`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict

#: What a lookup sees in a set no word was ever installed into.
_EMPTY_SET: frozenset = frozenset()


@dataclass
class L1Stats:
    load_hits: int = 0
    load_misses: int = 0
    stores: int = 0
    installs: int = 0

    @property
    def accesses(self) -> int:
        return self.load_hits + self.load_misses

    @property
    def hit_rate(self) -> float:
        return self.load_hits / self.accesses if self.accesses else 0.0


class L1Cache:
    """One SM's L1D, word-granular, LRU."""

    def __init__(self, capacity_words: int, assoc: int = 4) -> None:
        if capacity_words < assoc:
            raise ValueError("capacity must hold at least one set")
        if assoc < 1:
            raise ValueError("associativity must be positive")
        self.assoc = assoc
        self.num_sets = max(1, capacity_words // assoc)
        # Set index -> OrderedDict of resident words (LRU first), created by
        # the set's first install.
        self._sets: Dict[int, OrderedDict] = {}
        self.stats = L1Stats()

    def _set_of(self, address: int):
        return self._sets.get(address % self.num_sets, _EMPTY_SET)

    def lookup_load(self, address: int) -> bool:
        """True on hit (the load is satisfied locally)."""
        tag_set = self._set_of(address)
        if address in tag_set:
            tag_set.move_to_end(address)
            self.stats.load_hits += 1
            return True
        self.stats.load_misses += 1
        return False

    def note_store(self, address: int) -> None:
        """Write-through: refresh LRU if present, never allocate."""
        self.stats.stores += 1
        tag_set = self._set_of(address)
        if address in tag_set:
            tag_set.move_to_end(address)

    def install(self, address: int) -> None:
        """Fill on load-reply return."""
        index = address % self.num_sets
        tag_set = self._sets.get(index)
        if tag_set is None:
            tag_set = self._sets[index] = OrderedDict()
        if address in tag_set:
            tag_set.move_to_end(address)
            return
        if len(tag_set) >= self.assoc:
            tag_set.popitem(last=False)
        tag_set[address] = True
        self.stats.installs += 1

    def contains(self, address: int) -> bool:
        return address in self._set_of(address)

    def reset(self) -> None:
        self._sets.clear()
        self.stats = L1Stats()
