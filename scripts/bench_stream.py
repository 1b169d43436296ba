"""Measure streaming-audit throughput and per-batch cost independence.

Ingests a seeded ~90/5/5 insert/delete/relabel workload in fixed-size
micro-batches through a real :class:`~repro.stream.service.StreamService`
(journal fsyncs included) until ``rows`` cumulative rows have been
inserted, and records:

* ``deltas_per_sec`` — total deltas over total wall seconds of
  ``ingest`` (journal append + incremental re-score);
* ``batch_p50_seconds`` / ``batch_p95_seconds`` — per-batch latency
  percentiles across the whole run;
* ``late_over_early_p95`` — the p95 of the final decile of batches over
  the p95 of the first decile.  The tentpole's cost claim is that a
  batch's price depends on the batch, not on how many rows the stream
  has accumulated, so this ratio must stay near 1 even as the state
  grows from 0 to a million rows.

Produced and gated by ``scripts/bench.py`` (workload ``stream``).
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

BATCH_ROWS = 1_000
SEED = 11

#: Workload mix: inserts grow the stream to the target; a sprinkle of
#: deletes and relabels keeps every delta kind on the hot path.
P_DELETE = 0.05
P_RELABEL = 0.05


def make_config():
    from repro.data.schema import Column, Schema
    from repro.stream.journal import StreamConfig

    schema = Schema(
        [
            Column("age", "categorical", ("<30", ">=30")),
            Column("race", "categorical", ("a", "b", "c")),
            Column("sex", "categorical", ("f", "m")),
            Column("score", "numeric"),
        ]
    )
    return StreamConfig(
        schema=schema, protected=("age", "race", "sex"), tau_c=0.1, k=30
    )


def make_batch(rng, alive, next_id, n_inserts):
    """One micro-batch with ``n_inserts`` inserts plus delete/relabel noise."""
    from repro.stream.deltas import DeleteDelta, InsertDelta, RelabelDelta

    deltas = []
    for __ in range(n_inserts):
        cell = (
            int(rng.integers(0, 2)),
            int(rng.integers(0, 3)),
            int(rng.integers(0, 2)),
        )
        p_pos = 0.75 if cell[1] == 0 else 0.45  # planted race=a skew
        label = int(rng.random() < p_pos)
        roll = rng.random()
        if roll < P_DELETE and alive:
            victim = alive.pop(int(rng.integers(0, len(alive))))
            deltas.append(DeleteDelta(row=victim))
        elif roll < P_DELETE + P_RELABEL and alive:
            row = alive[int(rng.integers(0, len(alive)))]
            deltas.append(RelabelDelta(row=row, label=label))
        else:
            deltas.append(
                InsertDelta(values=(*cell, float(rng.random())), label=label)
            )
            alive.append(next_id)
            next_id += 1
    return deltas, next_id


def run(rows: int) -> dict:
    """Stream ``rows`` cumulative rows; returns the throughput/latency record."""
    from repro.stream.service import StreamService

    print(f"streaming {rows:,} rows in {BATCH_ROWS:,}-delta batches", flush=True)
    rng = np.random.default_rng(SEED)
    n_batches = rows // BATCH_ROWS
    batch_seconds: list[float] = []
    n_deltas = 0
    with tempfile.TemporaryDirectory(prefix="repro-bench-stream-") as tmp:
        service = StreamService.create(
            os.path.join(tmp, "stream"), make_config()
        )
        try:
            alive: list[int] = []
            next_id = 0
            for b in range(n_batches):
                deltas, next_id = make_batch(rng, alive, next_id, BATCH_ROWS)
                n_deltas += len(deltas)
                start = time.perf_counter()
                service.ingest([(f"b{b:06d}", deltas)])
                batch_seconds.append(time.perf_counter() - start)
                if (b + 1) % max(1, n_batches // 10) == 0:
                    done = sum(batch_seconds)
                    print(
                        f"  batch {b + 1}/{n_batches}: "
                        f"{n_deltas / done:,.0f} deltas/s so far",
                        flush=True,
                    )
            n_alive = service.auditor.state.n_alive
            n_biased = len(service.auditor.reports())
        finally:
            service.close()

    arr = np.asarray(batch_seconds)
    decile = max(1, len(arr) // 10)
    early_p95 = float(np.percentile(arr[:decile], 95))
    late_p95 = float(np.percentile(arr[-decile:], 95))
    return {
        "rows": rows,
        "batch_rows": BATCH_ROWS,
        "n_batches": n_batches,
        "n_deltas": n_deltas,
        "n_alive": n_alive,
        "n_biased": n_biased,
        "total_seconds": round(float(arr.sum()), 3),
        "deltas_per_sec": round(n_deltas / float(arr.sum()), 1),
        "batch_p50_seconds": round(float(np.percentile(arr, 50)), 6),
        "batch_p95_seconds": round(float(np.percentile(arr, 95)), 6),
        "late_over_early_p95": round(late_p95 / early_p95, 3),
        "cpu_count": os.cpu_count() or 1,
    }
