"""stream_adult: ``StreamService.ingest`` on the paper's Adult schema.

The stream has the Adult-like schema (13 columns, 6 protected attributes,
1,920 leaf cells) with tau_c=0.5 and k=30, and starts empty.  Each batch
holds 1,000 deltas: 90% inserts of ``load_adult`` rows, 5% deletes and 5%
relabels of live rows, all drawn from the run's seed.  Batches are built
before their ``ingest`` call is timed.
"""

from __future__ import annotations

import itertools
import shutil
import time

import numpy as np

import repro.stream.engine as engine
from harness import Layers, Outcome, keep_going
from repro.core.hierarchy import Hierarchy
from repro.core.ibs import identify_ibs
from repro.data.synth.adult import load_adult
from repro.stream.deltas import DeleteDelta, InsertDelta, RelabelDelta
from repro.stream.engine import StreamAuditor
from repro.stream.journal import DeltaLog, StreamConfig
from repro.stream.monitor import DriftMonitor
from repro.stream.service import StreamService

BATCH = 1_000
SMOKE_BATCH = 100
#: Rows prepared for inserts; a run that uses them up ends its window early.
POOL_ROWS = 150_000
SMOKE_POOL_ROWS = 2_000
P_DELETE, P_RELABEL = 0.05, 0.05
TAU_C, K = 0.5, 30

_dirs = itertools.count()


class State:
    def __init__(self, seed, directory, service, rows, labels, batch):
        self.rng = np.random.default_rng(seed)
        self.directory = directory
        self.service = service
        self.rows = rows
        self.labels = labels
        self.batch = batch
        self.used = 0
        self.alive: list[int] = []
        self.next_id = 0
        self.n_deltas = 0
        self.n_batches = 0


def setup(seed: int, workdir, smoke: bool, traced: bool) -> State:
    source = load_adult(n_rows=SMOKE_POOL_ROWS if smoke else POOL_ROWS, seed=seed)
    categorical = [col.is_categorical for col in source.schema]
    columns = [source.column(name).tolist() for name in source.schema.names]
    rows = [
        tuple(int(v) if cat else float(v) for v, cat in zip(values, categorical))
        for values in zip(*columns)
    ]
    config = StreamConfig(
        schema=source.schema, protected=source.protected, tau_c=TAU_C, k=K
    )
    directory = workdir / f"stream-{next(_dirs)}"
    service = StreamService.create(directory, config)
    return State(
        seed, directory, service, rows, source.y.tolist(),
        SMOKE_BATCH if smoke else BATCH,
    )


def teardown(state: State) -> None:
    state.service.close()
    shutil.rmtree(state.directory, ignore_errors=True)


def _next_batch(state: State) -> list | None:
    rng, alive = state.rng, state.alive
    deltas = []
    for roll in rng.random(state.batch):
        if roll < P_DELETE and alive:
            deltas.append(DeleteDelta(row=alive.pop(int(rng.integers(len(alive))))))
        elif roll < P_DELETE + P_RELABEL and alive:
            row = alive[int(rng.integers(len(alive)))]
            deltas.append(RelabelDelta(row=row, label=int(rng.integers(2))))
        else:
            if state.used == len(state.rows):
                return None
            deltas.append(
                InsertDelta(values=state.rows[state.used], label=state.labels[state.used])
            )
            state.used += 1
            alive.append(state.next_id)
            state.next_id += 1
    return deltas


def patch_write_path(layers: Layers) -> None:
    """Time the write path's layers; shared with the gateway's server."""
    layers.patch(StreamAuditor, "validate_batch", "stream.engine.validate_batch")
    layers.patch(DeltaLog, "append_batch", "stream.journal.append_batch")
    layers.patch(StreamAuditor, "apply_batch", "stream.engine.apply_batch")
    layers.patch(Hierarchy, "apply_count_delta", "core.hierarchy.apply_count_delta")
    # The dirty-region re-score is a private step of apply_batch; timing it
    # is what shows its share of ingest.
    layers.patch(StreamAuditor, "_rescore", "stream.engine.rescore")
    layers.patch(engine, "region_report", "core.ibs.region_report")
    layers.patch(DriftMonitor, "observe", "stream.monitor.observe")


def measure(state: State, seconds: float, layers: Layers) -> Outcome:
    patch_write_path(layers)
    op_seconds: list[float] = []
    started = time.perf_counter()
    last = 0.0
    try:
        while not op_seconds or keep_going(started, seconds, last):
            deltas = _next_batch(state)
            if deltas is None:
                break
            batch_id = f"b{state.n_batches:06d}"
            t0 = time.perf_counter()
            state.service.ingest([(batch_id, deltas)])
            last = time.perf_counter() - t0
            op_seconds.append(last)
            state.n_batches += 1
            state.n_deltas += len(deltas)
    finally:
        layers.unpatch()
    window = time.perf_counter() - started
    busy = sum(op_seconds)
    applied = state.service.auditor.n_batches
    return Outcome(
        op_seconds=op_seconds,
        work_units=state.n_deltas,
        work_seconds=busy,
        window_s=window,
        attempted=state.n_batches,
        failed=state.n_batches - applied,
        op_name="batch_p50_ms",
        op_unit="ms",
        extras=[
            ("ingest_deltas_per_s", state.n_deltas / busy, "1/s",
             f"{state.n_deltas} deltas in {state.n_batches} batches"),
        ],
    )


def check(state: State, outcome: Outcome) -> list[tuple[str, bool, str]]:
    auditor = state.service.auditor
    config = auditor.config
    live = auditor.reports()
    scratch = identify_ibs(
        auditor.state.materialize(), config.tau_c, T=config.T, k=config.k
    )
    digest = auditor.digest()
    state.service.close()
    log, _ = DeltaLog.recover(state.directory)
    try:
        replayed = StreamAuditor.from_journal(log).digest()
    finally:
        log.close()
    return [
        ("auditor.reports() == identify_ibs(state.materialize())",
         live == scratch, f"{len(live)} vs {len(scratch)} regions"),
        ("journal replay reaches the live digest", replayed == digest,
         f"{replayed[:12]} vs {digest[:12]}"),
        ("every batch applied", auditor.n_batches == state.n_batches,
         f"{auditor.n_batches} of {state.n_batches}"),
    ]


def layer_metrics(state: State, outcome: Outcome, layers: Layers) -> dict:
    n = max(state.n_batches, 1)
    out = {
        f"{name}_s": layers.seconds(name) / n
        for name in (
            "stream.engine.validate_batch", "stream.journal.append_batch",
            "stream.engine.apply_batch", "core.hierarchy.apply_count_delta",
            "stream.monitor.observe", "core.ibs.region_report",
        )
    }
    out["core.ibs.region_report_calls"] = layers.calls("core.ibs.region_report") / n
    out["stream.rescore_share"] = (
        layers.seconds("stream.engine.rescore") / outcome.work_seconds
    )
    out["stream.journal.bytes_per_delta"] = (
        state.service.log.generation_bytes() / max(state.n_deltas, 1)
    )
    return out
