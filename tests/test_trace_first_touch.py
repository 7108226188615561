"""Tests for the first-touch analysis.

Hand-built rows are packed into a trace and fed to
``consume_columns``, the walk every run executes.
"""

from hypothesis import given, settings, strategies as st

from repro.emulator.memory import STACK_BASE
from repro.isa.instructions import OpClass
from repro.isa.registers import SP
from repro.trace.first_touch import FirstTouchProfile

from tests.trace_records import TraceRecord, feed, pack


def rec(index, *, sp, load_at=None, store_at=None, sp_update=False):
    is_load = load_at is not None
    is_store = store_at is not None
    return TraceRecord(
        index=index, pc=0x1000 + 4 * index,
        op="ldq" if is_load else ("stq" if is_store else "lda"),
        op_class=OpClass.LOAD if is_load
        else (OpClass.STORE if is_store else OpClass.IALU),
        srcs=(), dst=(SP if sp_update else None),
        is_load=is_load, is_store=is_store,
        addr=(load_at if is_load else (store_at or 0)),
        size=8, base_reg=SP if (is_load or is_store) else None,
        sp_value=sp, sp_update=sp_update,
    )


def consume(profile, *records):
    """Feed ``records``, packed into one trace, to ``profile``."""
    profile.consume_columns(pack(records))


class TestSyntheticSequences:
    def test_store_first_after_allocation(self):
        profile = FirstTouchProfile()
        base = STACK_BASE
        consume(
            profile,
            rec(0, sp=base),
            rec(1, sp=base - 64, sp_update=True),
            rec(2, sp=base - 64, store_at=base - 64),
            rec(3, sp=base - 64, load_at=base - 64),
        )
        assert profile.stack_first_stores == 1
        assert profile.stack_first_loads == 0
        assert profile.stack_first_store_fraction == 1.0

    def test_load_first_counted(self):
        profile = FirstTouchProfile()
        base = STACK_BASE
        consume(
            profile,
            rec(0, sp=base),
            rec(1, sp=base - 64, sp_update=True),
            rec(2, sp=base - 64, load_at=base - 56),
        )
        assert profile.stack_first_loads == 1
        assert profile.stack_first_store_fraction == 0.0

    def test_deallocation_kills_untouched_words(self):
        profile = FirstTouchProfile()
        base = STACK_BASE
        consume(
            profile,
            rec(0, sp=base),
            rec(1, sp=base - 64, sp_update=True),
            rec(2, sp=base, sp_update=True),
            # Reallocate and touch: still counted as a fresh first touch.
            rec(3, sp=base - 64, sp_update=True),
            rec(4, sp=base - 64, store_at=base - 32),
        )
        assert profile.stack_first_stores == 1

    def test_non_stack_words_counted_separately(self):
        profile = FirstTouchProfile()
        base = STACK_BASE
        record = rec(1, sp=base, load_at=0x10000000)
        record.base_reg = 3
        consume(profile, rec(0, sp=base), record)
        assert profile.other_first_loads == 1
        assert profile.stack_first_loads == 0


class TestOnRealTraces:
    def test_stack_words_are_written_first(self, crafty_trace):
        """The paper's claim: stack first-touches are mostly stores."""
        profile = FirstTouchProfile()
        profile.consume_columns(crafty_trace)
        total = profile.stack_first_stores + profile.stack_first_loads
        assert total > 100
        assert profile.stack_first_store_fraction > 0.8

    def test_stack_beats_other_regions(self, eon_trace):
        profile = FirstTouchProfile()
        profile.consume_columns(eon_trace)
        assert (
            profile.stack_first_store_fraction
            >= profile.other_first_store_fraction
        )


def _profile_state(profile):
    return (
        profile.stack_first_stores,
        profile.stack_first_loads,
        profile.other_first_stores,
        profile.other_first_loads,
        profile._previous_sp,
        set(profile._pending),
        dict(profile._seen_other),
    )


#: One synthetic row: (kind, $sp, address).  ``$sp`` includes 0, which
#: makes the row-by-row reference re-seed its previous ``$sp`` from
#: the next row.
_row = st.tuples(
    st.sampled_from(["alu", "load", "store", "sp"]),
    st.sampled_from([0, STACK_BASE, STACK_BASE - 32, STACK_BASE - 64]),
    st.sampled_from([STACK_BASE - 64, STACK_BASE - 40, STACK_BASE - 8,
                     0x10000000, 0x10000008]),
)


class TestColumnWalk:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(_row, max_size=40), st.integers(1, 9))
    def test_skipping_rows_matches_append(self, rows, chunk):
        # The column walk visits only loads, stores and $sp updates,
        # yet must leave exactly the state the row-by-row reference
        # leaves, whole and in chunks.
        records = [
            rec(
                index,
                sp=sp,
                load_at=addr if kind == "load" else None,
                store_at=addr if kind == "store" else None,
                sp_update=kind == "sp",
            )
            for index, (kind, sp, addr) in enumerate(rows)
        ]
        reference = FirstTouchProfile()
        for record in records:
            feed(reference, record)
        trace = pack(records)
        whole = FirstTouchProfile()
        whole.consume_columns(trace)
        chunked = FirstTouchProfile()
        for lo in range(0, len(trace), chunk):
            chunked.consume_columns(trace, lo, min(lo + chunk, len(trace)))
        assert _profile_state(whole) == _profile_state(reference)
        assert _profile_state(chunked) == _profile_state(reference)
