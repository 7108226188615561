"""Unit tests for predictors, caches, the frontend allocator and configs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.instructions import OpClass
from repro.trace.records import TraceRecord
from repro.uarch.bpred import GSharePredictor, PerfectPredictor, make_predictor
from repro.uarch.cache import Cache, build_hierarchy
from repro.uarch.config import (
    CacheConfig,
    MachineConfig,
    SVFConfig,
    table2_config,
)


def branch_record(pc, taken):
    return TraceRecord(
        index=0, pc=pc, op="bne", op_class=OpClass.BRANCH, srcs=(1,),
        dst=None, is_branch=True, is_conditional=True, taken=taken,
    )


class TestPredictors:
    def test_perfect_never_mispredicts(self):
        predictor = PerfectPredictor()
        assert predictor.predict(branch_record(0x1000, True))
        assert predictor.predict(branch_record(0x1000, False))

    def test_gshare_learns_a_bias(self):
        predictor = GSharePredictor()
        record = branch_record(0x1000, True)
        for _ in range(100):
            predictor.predict(record)
        assert predictor.predict(record)  # saturated taken

    def test_gshare_mispredicts_on_flip(self):
        predictor = GSharePredictor(history_bits=4, table_bits=6)
        for _ in range(10):
            predictor.predict(branch_record(0x1000, True))
        misses_before = predictor.mispredictions
        predictor.predict(branch_record(0x1000, False))
        assert predictor.mispredictions == misses_before + 1

    def test_gshare_ignores_unconditional(self):
        predictor = GSharePredictor()
        record = TraceRecord(
            index=0, pc=0x1000, op="br", op_class=OpClass.BRANCH, srcs=(),
            dst=None, is_branch=True, is_conditional=False, taken=True,
        )
        assert predictor.predict(record)
        assert predictor.lookups == 0

    def test_gshare_rate_on_alternating_pattern(self):
        predictor = GSharePredictor()
        for i in range(2000):
            predictor.predict(branch_record(0x1000, i % 2 == 0))
        # Alternation is perfectly history-predictable after warmup.
        assert predictor.misprediction_rate < 0.1

    def test_factory(self):
        assert isinstance(make_predictor("perfect"), PerfectPredictor)
        assert isinstance(make_predictor("gshare"), GSharePredictor)
        with pytest.raises(ValueError):
            make_predictor("tage")


class TestCache:
    def config(self, **kw):
        defaults = dict(size=1024, assoc=2, line_size=32, latency=3)
        defaults.update(kw)
        return CacheConfig(**defaults)

    def test_hit_latency(self):
        cache = Cache(self.config(), memory_latency=60)
        cache.access(0)  # compulsory miss
        assert cache.access(0) == 3
        assert cache.access(24) == 3  # same line

    def test_miss_latency_includes_memory(self):
        cache = Cache(self.config(), memory_latency=60)
        assert cache.access(0) == 63

    def test_hierarchy_latencies(self):
        dl1, l2 = build_hierarchy(
            CacheConfig(size=1024, assoc=2, latency=3),
            CacheConfig(size=8192, assoc=4, latency=16, line_size=64),
            memory_latency=60,
        )
        first = dl1.access(0)
        assert first == 3 + 16 + 60  # DL1 miss, L2 miss, memory
        assert dl1.access(0) == 3  # now resident
        # Evict from DL1 but not L2: conflict in DL1's set.
        way_stride = 1024 // 2
        dl1.access(way_stride)
        dl1.access(2 * way_stride)
        assert dl1.access(0) == 3 + 16  # back from L2

    def test_lru_replacement(self):
        cache = Cache(self.config(assoc=2, size=128, line_size=32),
                      memory_latency=60)
        # Set 0 holds lines 0 and 64 (2 sets of 2 ways, stride 64).
        cache.access(0)
        cache.access(64)
        cache.access(0)  # touch 0: 64 becomes LRU
        cache.access(128)  # evicts 64
        assert cache.probe(0)
        assert not cache.probe(64)

    def test_dirty_writeback_counted(self):
        cache = Cache(self.config(assoc=1, size=64, line_size=32),
                      memory_latency=60)
        cache.access(0, is_write=True)
        cache.access(64, is_write=False)  # evicts dirty line 0
        assert cache.writebacks == 1

    def test_miss_rate(self):
        cache = Cache(self.config(), memory_latency=60)
        cache.access(0)
        cache.access(0)
        assert cache.miss_rate == 0.5


class _ReferenceCache:
    """LRU write-back cache as a list of ``(tag, dirty)`` per set."""

    def __init__(self, config, next_level=None, memory_latency=60):
        self.config = config
        self.next_level = next_level
        self.memory_latency = memory_latency
        self.num_sets = max(1, config.size // (config.line_size * config.assoc))
        self.sets = {}
        self.hits = self.misses = self.fills = self.writebacks = 0

    def access(self, addr, is_write=False):
        line = addr // self.config.line_size
        tag = line // self.num_sets
        ways = self.sets.setdefault(line % self.num_sets, [])
        for position, (way_tag, dirty) in enumerate(ways):
            if way_tag == tag:
                self.hits += 1
                ways.pop(position)
                ways.append((tag, dirty or bool(is_write)))
                return self.config.latency
        self.misses += 1
        self.fills += 1
        if self.next_level is not None:
            below = self.next_level.access(addr)
        else:
            below = self.memory_latency
        if len(ways) >= self.config.assoc and ways.pop(0)[1]:
            self.writebacks += 1
        ways.append((tag, bool(is_write)))
        return self.config.latency + below


_COUNTERS = ("hits", "misses", "fills", "writebacks")
_STREAMS = st.lists(
    st.tuples(st.integers(0, 2047), st.booleans()), min_size=1, max_size=300
)


class TestCacheAgainstReference:
    """``Cache`` keeps set lists of line numbers plus one dirty set;
    it must behave exactly like the plain ``(tag, dirty)`` LRU lists."""

    @settings(max_examples=60, deadline=None)
    @given(_STREAMS, st.sampled_from([1, 2, 4]))
    def test_one_level(self, stream, assoc):
        config = CacheConfig(size=256, assoc=assoc, line_size=32, latency=3)
        cache = Cache(config, memory_latency=60)
        reference = _ReferenceCache(config, memory_latency=60)
        for addr, is_write in stream:
            assert cache.access(addr, is_write) == reference.access(
                addr, is_write
            )
        for name in _COUNTERS:
            assert getattr(cache, name) == getattr(reference, name), name

    @settings(max_examples=60, deadline=None)
    @given(_STREAMS, st.sampled_from([1, 2, 4]))
    def test_dl1_to_l2_chain(self, stream, assoc):
        dl1_config = CacheConfig(size=128, assoc=assoc, latency=3)
        l2_config = CacheConfig(size=512, assoc=2, line_size=64, latency=16)
        dl1, l2 = build_hierarchy(dl1_config, l2_config, memory_latency=60)
        ref_l2 = _ReferenceCache(l2_config, memory_latency=60)
        ref_dl1 = _ReferenceCache(dl1_config, next_level=ref_l2)
        for addr, is_write in stream:
            assert dl1.access(addr, is_write) == ref_dl1.access(
                addr, is_write
            )
        for ours, theirs in ((dl1, ref_dl1), (l2, ref_l2)):
            for name in _COUNTERS:
                assert getattr(ours, name) == getattr(theirs, name), name


def _in_order(floors, width):
    """The timing walk's in-order allocator: ``width`` units a cycle,
    each request at or after its floor and no earlier than the last."""
    cycles = []
    current, free = -1, 0
    for floor in floors:
        if floor > current:
            current, free = floor, width - 1
        elif free:
            free -= 1
        else:
            current, free = current + 1, width - 1
        cycles.append(current)
    return cycles


def _two_stage(fetch_floors, other_floors, depth, fetch_width, width):
    fetched = _in_order(fetch_floors, fetch_width)
    return _in_order(
        [max(cycle + depth, other)
         for cycle, other in zip(fetched, other_floors)],
        width,
    )


def _one_stage(fetch_floors, other_floors, depth, width):
    return _in_order(
        [max(floor + depth, other)
         for floor, other in zip(fetch_floors, other_floors)],
        width,
    )


class TestFetchFoldsIntoDispatch:
    """The walk has no fetch stage: at equal fetch and dispatch widths,
    allocating fetch and then dispatch gives the same dispatch cycles as
    one allocation over the fetch floor plus the frontend depth."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                 max_size=60),
        st.integers(0, 6),
        st.integers(1, 5),
    )
    def test_equal_widths_fold_exactly(self, floors, depth, width):
        fetch_floors = [fetch for fetch, _ in floors]
        other_floors = [other for _, other in floors]
        assert _two_stage(
            fetch_floors, other_floors, depth, width, width
        ) == _one_stage(fetch_floors, other_floors, depth, width)

    def test_unequal_widths_do_not_fold(self):
        # One fetch a cycle cannot feed two dispatches a cycle: the
        # second instruction dispatches a cycle later than the fold
        # claims, so a separate fetch width needs its own stage.
        assert _two_stage([0, 0], [0, 0], 0, 1, 2) == [0, 1]
        assert _one_stage([0, 0], [0, 0], 0, 2) == [0, 0]


class TestMachineConfig:
    def test_table2_widths(self):
        for width, ruu, lsq, ifq in ((4, 64, 32, 16), (8, 128, 64, 32),
                                     (16, 256, 128, 64)):
            config = table2_config(width)
            assert config.decode_width == width
            assert config.ruu_size == ruu
            assert config.lsq_size == lsq
            assert config.ifq_size == ifq

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            table2_config(32)

    def test_shared_memory_parameters(self):
        config = table2_config(8)
        assert config.dl1.size == 64 * 1024 and config.dl1.assoc == 4
        assert config.l2.size == 512 * 1024
        assert config.dl1.latency == 3
        assert config.store_forward_latency == 3
        assert config.memory_latency == 60

    def test_with_svf_returns_modified_copy(self):
        base = table2_config(16)
        modified = base.with_svf(mode="svf", ports=4)
        assert base.svf.mode == "none"
        assert modified.svf.mode == "svf"
        assert modified.svf.ports == 4
        assert modified.decode_width == base.decode_width

    def test_invalid_svf_mode(self):
        with pytest.raises(ValueError):
            SVFConfig(mode="magic")

    def test_with_overrides(self):
        config = table2_config(16, dl1_ports=1)
        assert config.dl1_ports == 1
        assert config.with_(dl1_ports=4).dl1_ports == 4
