"""Simulation substrate: the shared-memory network model, synchronous and
asynchronous schedulers with pluggable daemons, columnar register storage
with bit accounting, and transient-fault injection."""

from .bulk import BulkBatch, ColumnarBulkOps, drive_batch
from .columnar import ColumnStore, ColumnarNodeContext
from .network import ALARM, Network, NodeContext, Protocol, first_alarm
from .registers import (KIND_NAT, KIND_OPAQUE, KIND_STR, KIND_TUPLE,
                        CompiledSchema, RegisterSchema, RegisterView,
                        bit_size, compile_schema, is_ghost, nat_value,
                        register_bits)
from .npcolumnar import (NumpyColumnStore, NumpyFallbackWarning,
                         numpy_or_none)
from .schedulers import (STORAGE_COLUMNAR, STORAGE_DEFAULT, STORAGE_DICT,
                         STORAGE_KINDS, STORAGE_NUMPY,
                         AsynchronousScheduler,
                         ConflictFreeDaemon, Daemon, LocalityBatchDaemon,
                         PermutationDaemon, RandomDaemon, RoundRobinDaemon,
                         SlowNodesDaemon, SynchronousScheduler,
                         TiledConflictFreeDaemon)
from .faults import FAULT_MARK, FaultInjector, detection_distance
from .churn import (ChurnEvent, ChurnReport, ChurnScript, clear_alarms,
                    run_with_churn)
from .snapshot import (SnapshotError, capture_network, capture_run_state,
                       capture_scheduler, decode_snapshot, encode_snapshot,
                       restore_network, restore_run_state,
                       restore_scheduler)

__all__ = [
    "ALARM", "Network", "NodeContext", "Protocol", "first_alarm",
    "BulkBatch", "ColumnarBulkOps", "drive_batch",
    "ColumnStore", "ColumnarNodeContext",
    "KIND_NAT", "KIND_OPAQUE", "KIND_STR", "KIND_TUPLE",
    "CompiledSchema", "RegisterSchema", "RegisterView",
    "bit_size", "compile_schema", "is_ghost", "nat_value", "register_bits",
    "NumpyColumnStore", "NumpyFallbackWarning", "numpy_or_none",
    "STORAGE_COLUMNAR", "STORAGE_DEFAULT", "STORAGE_DICT", "STORAGE_KINDS",
    "STORAGE_NUMPY",
    "AsynchronousScheduler", "ConflictFreeDaemon", "Daemon",
    "LocalityBatchDaemon", "PermutationDaemon", "RandomDaemon",
    "RoundRobinDaemon", "SlowNodesDaemon", "SynchronousScheduler",
    "TiledConflictFreeDaemon",
    "FAULT_MARK", "FaultInjector", "detection_distance",
    "ChurnEvent", "ChurnReport", "ChurnScript", "clear_alarms",
    "run_with_churn",
    "SnapshotError", "capture_network", "capture_run_state",
    "capture_scheduler", "decode_snapshot", "encode_snapshot",
    "restore_network", "restore_run_state", "restore_scheduler",
]
