"""Fault-tolerant experiment execution (see docs/resilience.md).

The subsystem has four layers, composed by :class:`CellExecutor`:

* retries and deadlines (:mod:`repro.resilience.executor`),
* atomic checkpoint/resume (:mod:`repro.resilience.checkpoint`),
* deterministic fault injection (:mod:`repro.resilience.faults`),
* process-isolated parallel execution (:mod:`repro.resilience.pool`).

Every experiment harness in :mod:`repro.experiments` accepts an executor;
``repro experiment`` exposes it via ``--resume`` / ``--max-retries`` /
``--cell-timeout`` / ``--checkpoint`` / ``--backend`` / ``--workers``.
"""

from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    inspect_checkpoint,
    prune_checkpoints,
)
from repro.resilience.executor import (
    BACKEND_INPROC,
    BACKEND_PROCESS,
    BACKENDS,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    STATUSES,
    CellExecutor,
    CellOutcome,
    RetryPolicy,
    call_with_deadline,
)
from repro.resilience.faults import (
    CrashFault,
    Fault,
    FaultPlan,
    HangFault,
    InjectedFault,
    PermanentFault,
    SlowFault,
    TransientFault,
    interrupt_on_call,
    seeded_transients,
)
from repro.resilience.pool import (
    CellSpec,
    WorkerPool,
    register_cell,
    resolve_cell,
)
from repro.resilience.shm import (
    DatasetRef,
    attach_dataset,
    dataset_content_hash,
    publish_dataset,
    published_segments,
    release,
)

__all__ = [
    "CellExecutor",
    "CellOutcome",
    "RetryPolicy",
    "call_with_deadline",
    "STATUS_OK",
    "STATUS_FAILED",
    "STATUS_TIMEOUT",
    "STATUSES",
    "BACKEND_INPROC",
    "BACKEND_PROCESS",
    "BACKENDS",
    "Checkpoint",
    "CHECKPOINT_VERSION",
    "inspect_checkpoint",
    "prune_checkpoints",
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "TransientFault",
    "PermanentFault",
    "SlowFault",
    "CrashFault",
    "HangFault",
    "interrupt_on_call",
    "seeded_transients",
    "CellSpec",
    "WorkerPool",
    "register_cell",
    "resolve_cell",
    "DatasetRef",
    "attach_dataset",
    "dataset_content_hash",
    "publish_dataset",
    "published_segments",
    "release",
]
