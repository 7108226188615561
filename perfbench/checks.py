"""Per-operation output digests and the failure count behind them.

One operation is a report row (report-cold), a (program, machine)
result (timing-grid) or a (program, opt level) run (stack-traffic).
Each completed operation leaves a digest of every simulated statistic
it produced; an operation that raised leaves ``None``.  A change that
only speeds the simulator up must leave every digest bit-identical.

Digests are compared against the ones recorded in ``digests.json`` for
the default and held-out seeds, and otherwise against the first
repetition of the same run.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: ``run.py``'s default seed and the held-out seed, both recorded.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2718
RECORDED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

#: The marker the report engine writes into a row whose cell failed.
DEGRADED = "(degraded:"

Digests = Dict[str, Optional[str]]


def canonical(value):
    """A JSON-ready form of ``value`` that is stable across runs.

    A dataclass contributes its public fields only: ``_``-prefixed ones
    are a sink's working state, not statistics it publishes.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
            if not field.name.startswith("_")
        }
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, dict):
        return {str(canonical(key)): canonical(item)
                for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(canonical(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def digest(value) -> str:
    text = json.dumps(canonical(value), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def report_rows(text: str) -> Digests:
    """One digest per table row of a rendered report.

    Rows are the non-blank lines inside the report's code blocks, keyed
    by section title and position; a row carrying the engine's
    ``(degraded:`` annotation maps to ``None``.
    """
    rows: Digests = {}
    section = ""
    in_block = False
    position = 0
    for line in text.splitlines():
        if line.startswith("```"):
            in_block = not in_block
            position = 0
            continue
        if not in_block:
            if line.startswith("## "):
                section = line[3:]
            continue
        if not line.strip():
            continue
        key = f"{section}#{position}"
        position += 1
        rows[key] = None if DEGRADED in line else digest(line)
    return rows


def failed_operations(observed: Digests,
                      expected: Optional[Digests]) -> List[str]:
    """Operations that failed: raised, degraded, mismatched or missing."""
    failed = [op for op, value in observed.items()
              if value is None
              or (expected is not None and expected.get(op) != value)]
    if expected is not None:
        failed += [op for op in expected if op not in observed]
    return sorted(failed)


def load_recorded() -> Dict[str, Dict[str, Digests]]:
    """``{workload: {seed: digests}}`` as recorded, or empty."""
    if not DIGESTS_PATH.exists():
        return {}
    return json.loads(DIGESTS_PATH.read_text())


def recorded_for(workload: str, seed: int) -> Optional[Digests]:
    return load_recorded().get(workload, {}).get(str(seed))


def save_recorded(recorded: Dict[str, Dict[str, Digests]]) -> None:
    DIGESTS_PATH.write_text(
        json.dumps(recorded, indent=1, sort_keys=True) + "\n"
    )
