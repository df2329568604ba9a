"""The L1 and L2 create a tag set on its first install.

Random load/store/install/contains sequences run against the caches and
against small reference models that allocate every set up front; both
must agree on every lookup result, the stats, the LRU order and dirty
bits of every set, and the victims written back.  Lookups and
``contains`` must never create a set.
"""

from collections import OrderedDict
from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.l1 import L1Cache, L1Stats
from repro.cache.l2 import L2Slice, L2Stats, LookupResult
from repro.request import Request, RequestType


class EagerL2:
    """Reference L2 slice: every set exists from the start."""

    def __init__(self, num_sets, assoc, mshrs):
        self.sets = [OrderedDict() for _ in range(num_sets)]
        self.assoc = assoc
        self.mshr_capacity = mshrs
        self.mshrs = {}  # line -> waiting request ids
        self.stats = L2Stats()

    def _count(self, counts, kid):
        counts[kid] = counts.get(kid, 0) + 1

    def lookup(self, is_load, line, kid, rid):
        tag_set = self.sets[line % len(self.sets)]
        self._count(self.stats.kernel_accesses, kid)
        if line in tag_set:
            tag_set.move_to_end(line)
            if is_load:
                self.stats.load_hits += 1
            else:
                tag_set[line] = True
                self.stats.store_hits += 1
            self._count(self.stats.kernel_hits, kid)
            return LookupResult.HIT
        if not is_load:
            self.stats.store_misses += 1
            return LookupResult.STORE_FORWARD
        if line in self.mshrs:
            self.mshrs[line].append(rid)
            self.stats.load_merges += 1
            self._count(self.stats.kernel_hits, kid)
            return LookupResult.MISS_SECONDARY
        if len(self.mshrs) >= self.mshr_capacity:
            self.stats.stalls += 1
            return LookupResult.BLOCKED
        self.mshrs[line] = [rid]
        self.stats.load_misses += 1
        return LookupResult.MISS_PRIMARY

    def install(self, line):
        waiting = self.mshrs.pop(line)
        tag_set = self.sets[line % len(self.sets)]
        victim = None
        if line not in tag_set:
            if len(tag_set) >= self.assoc:
                old, dirty = tag_set.popitem(last=False)
                if dirty:
                    victim = old
                    self.stats.writebacks += 1
            tag_set[line] = False
        return waiting, victim

    def tags(self):
        return {i: list(s.items()) for i, s in enumerate(self.sets) if s}


class EagerL1:
    """Reference L1: every set exists from the start."""

    def __init__(self, num_sets, assoc):
        self.sets = [OrderedDict() for _ in range(num_sets)]
        self.assoc = assoc
        self.stats = L1Stats()

    def _set(self, address):
        return self.sets[address % len(self.sets)]

    def lookup_load(self, address):
        tag_set = self._set(address)
        if address in tag_set:
            tag_set.move_to_end(address)
            self.stats.load_hits += 1
            return True
        self.stats.load_misses += 1
        return False

    def note_store(self, address):
        self.stats.stores += 1
        tag_set = self._set(address)
        if address in tag_set:
            tag_set.move_to_end(address)

    def install(self, address):
        tag_set = self._set(address)
        if address in tag_set:
            tag_set.move_to_end(address)
            return
        if len(tag_set) >= self.assoc:
            tag_set.popitem(last=False)
        tag_set[address] = True
        self.stats.installs += 1

    def tags(self):
        return {i: list(s) for i, s in enumerate(self.sets) if s}


def live_tags(cache):
    return {i: list(s.items()) for i, s in cache._sets.items() if s}


l2_ops = st.lists(
    st.tuples(
        st.sampled_from(("load", "store", "fill", "contains")),
        st.integers(0, 95),
        st.integers(0, 2),
    ),
    max_size=120,
)


@settings(max_examples=150, deadline=None)
@given(
    num_sets=st.sampled_from((1, 2, 4, 8)),
    assoc=st.integers(1, 4),
    line_bytes=st.sampled_from((1, 4)),
    mshrs=st.integers(1, 4),
    ops=l2_ops,
)
def test_l2_matches_eager_reference(num_sets, assoc, line_bytes, mshrs, ops):
    l2 = L2Slice(num_sets * assoc * line_bytes, assoc, line_bytes, mshrs)
    ref = EagerL2(num_sets, assoc, mshrs)
    pending = []  # primary-miss requests awaiting their fill, oldest first
    for op, address, kid in ops:
        sets_before = len(l2._sets)
        line = address // line_bytes
        if op in ("load", "store"):
            kind = RequestType.MEM_LOAD if op == "load" else RequestType.MEM_STORE
            request = Request(type=kind, address=address, kernel_id=kid)
            result = l2.lookup(request)
            assert result == ref.lookup(op == "load", line, kid, request.id)
            assert len(l2._sets) == sets_before
            if result == LookupResult.MISS_PRIMARY:
                pending.append(request)
        elif op == "contains":
            in_ref = line in ref.sets[line % num_sets]
            assert l2.contains(address) == in_ref
            assert len(l2._sets) == sets_before
        elif pending:
            fill = pending.pop(kid % len(pending))
            waiting, writeback = l2.install(fill)
            ref_waiting, victim = ref.install(fill.l2_line)
            assert [r.id for r in waiting] == ref_waiting
            if victim is None:
                assert writeback is None
            else:
                assert writeback.is_writeback
                assert writeback.address == victim * line_bytes
        assert asdict(l2.stats) == asdict(ref.stats)
        assert live_tags(l2) == ref.tags()
        assert set(l2._sets) <= {i for i, s in enumerate(ref.sets) if s}


@settings(max_examples=150, deadline=None)
@given(
    num_sets=st.sampled_from((1, 2, 4, 8)),
    assoc=st.integers(1, 4),
    ops=st.lists(
        st.tuples(
            st.sampled_from(("load", "store", "install", "contains")),
            st.integers(0, 63),
        ),
        max_size=120,
    ),
)
def test_l1_matches_eager_reference(num_sets, assoc, ops):
    l1 = L1Cache(capacity_words=num_sets * assoc, assoc=assoc)
    ref = EagerL1(num_sets, assoc)
    for op, address in ops:
        sets_before = len(l1._sets)
        if op == "load":
            assert l1.lookup_load(address) == ref.lookup_load(address)
        elif op == "store":
            l1.note_store(address)
            ref.note_store(address)
        elif op == "contains":
            assert l1.contains(address) == (address in ref.sets[address % num_sets])
        else:
            l1.install(address)
            ref.install(address)
        if op != "install":
            assert len(l1._sets) == sets_before
        assert asdict(l1.stats) == asdict(ref.stats)
        assert {i: list(s) for i, s in l1._sets.items() if s} == ref.tags()


def test_reset_drops_every_set():
    l2 = L2Slice(slice_bytes=16, assoc=2, line_bytes=1, mshr_capacity=2)
    request = Request(type=RequestType.MEM_LOAD, address=5)
    assert l2.lookup(request) == LookupResult.MISS_PRIMARY
    l2.install(request)
    assert l2.contains(5) and l2._sets
    l2.reset()
    assert not l2.contains(5) and not l2._sets
    l1 = L1Cache(capacity_words=8, assoc=2)
    l1.install(3)
    l1.reset()
    assert not l1.contains(3) and not l1._sets
