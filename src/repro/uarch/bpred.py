"""Branch predictors for the trace-driven timing model.

The paper's headline experiments use a perfect predictor to isolate
memory-system effects (Section 4); the last column of Figure 5 uses
gshare.  Calls, returns and unconditional branches are assumed
correctly predicted under both schemes (BTB + return-address stack),
matching the usual SimpleScalar setup.
"""

from __future__ import annotations


class PerfectPredictor:
    """Never mispredicts."""

    def predict_bits(self, pc: int, is_conditional, taken) -> bool:
        """Return True: every branch is predicted correctly."""
        return True


class GSharePredictor:
    """Global-history XOR-indexed two-bit-counter predictor."""

    def __init__(self, history_bits: int = 12, table_bits: int = 12):
        self.history_bits = history_bits
        self.table_bits = table_bits
        self._history = 0
        self._history_mask = (1 << history_bits) - 1
        self._table_mask = (1 << table_bits) - 1
        self._counters = [2] * (1 << table_bits)
        self.lookups = 0
        self.mispredictions = 0

    def predict_bits(self, pc: int, is_conditional, taken) -> bool:
        """Predict one branch and update the state; True if correct.

        ``is_conditional``/``taken`` accept any truthy value (the
        timing walk passes raw flag bits).
        """
        if not is_conditional:
            return True
        self.lookups += 1
        index = ((pc >> 2) ^ self._history) & self._table_mask
        counter = self._counters[index]
        predicted_taken = counter >= 2
        taken = bool(taken)
        if taken and counter < 3:
            self._counters[index] = counter + 1
        elif not taken and counter > 0:
            self._counters[index] = counter - 1
        self._history = ((self._history << 1) | int(taken)) & self._history_mask
        correct = predicted_taken == taken
        if not correct:
            self.mispredictions += 1
        return correct

    @property
    def misprediction_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.mispredictions / self.lookups


#: Predictor names :func:`make_predictor` accepts.
PREDICTORS = ("perfect", "gshare")


def make_predictor(kind: str):
    """Factory used by the pipeline (one of :data:`PREDICTORS`)."""
    if kind == "perfect":
        return PerfectPredictor()
    if kind == "gshare":
        return GSharePredictor()
    raise ValueError(f"unknown predictor {kind!r}")
