"""Dynamic-trace records, region classification and analyses."""

from repro.trace.analysis import (
    AccessDistribution,
    OffsetLocality,
    StackDepthProfile,
    consume_trace,
)
from repro.trace.columnar import ColumnarTrace
from repro.trace.records import TraceRecord
from repro.trace.serialization import (
    TraceFormatError,
    load_trace,
    save_trace,
    write_trace,
)
from repro.trace.regions import (
    AccessMethod,
    Region,
    STACK_REGION_FLOOR,
    classify_access,
    classify_address,
    is_stack_address,
)

__all__ = [
    "AccessDistribution",
    "AccessMethod",
    "ColumnarTrace",
    "OffsetLocality",
    "Region",
    "STACK_REGION_FLOOR",
    "StackDepthProfile",
    "TraceFormatError",
    "TraceRecord",
    "classify_access",
    "classify_address",
    "consume_trace",
    "is_stack_address",
    "load_trace",
    "save_trace",
    "write_trace",
]
