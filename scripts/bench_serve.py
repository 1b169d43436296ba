"""Measure gateway ingest throughput vs direct StreamService, and shed latency.

Three phases, one seeded workload:

* **direct** — the same micro-batches ingested straight into a
  :class:`~repro.stream.service.StreamService` (journal fsyncs included);
  the comparator that isolates what the HTTP front costs;
* **gateway** — the batches POSTed through a real
  :class:`~repro.serve.gateway.AuditGateway` on localhost by one producer:
  ``gateway_deltas_per_sec`` / ``gateway_rps``, and their ratio to the
  direct run as ``gateway_over_direct``;
* **overload** — more producers than admission slots hammer a small
  gateway; every batch still lands (the client retries 429s on jittered
  backoff), and the record keeps the p95 wall time of a successful ingest
  *including* its shed-and-retry rounds (``shed_p95_seconds``) plus how
  many requests were shed (``shed_requests`` — zero would mean the phase
  never actually exercised admission control).

Produced and gated by ``scripts/bench.py`` (workload ``serve``).
"""

from __future__ import annotations

import os
import tempfile
import threading
import time

import numpy as np

BATCH_ROWS = 500
SEED = 13

#: Overload phase: producers vs admission slots, and batches per producer.
OVERLOAD_PRODUCERS = 8
OVERLOAD_ADMISSION = 2
OVERLOAD_BATCHES_EACH = 25
OVERLOAD_BATCH_ROWS = 50


def make_config():
    from repro.data.schema import Column, Schema
    from repro.stream.journal import StreamConfig

    schema = Schema(
        [
            Column("age", "categorical", ("<30", ">=30")),
            Column("race", "categorical", ("a", "b", "c")),
            Column("sex", "categorical", ("f", "m")),
        ]
    )
    return StreamConfig(
        schema=schema, protected=("age", "race", "sex"), tau_c=0.1, k=30
    )


def make_batches(rows: int, batch_rows: int, seed: int = SEED):
    """Seeded insert-only micro-batches (order-independent: multi-producer safe)."""
    from repro.stream.deltas import InsertDelta

    rng = np.random.default_rng(seed)
    batches = []
    for b in range(rows // batch_rows):
        deltas = []
        for __ in range(batch_rows):
            cell = (
                int(rng.integers(0, 2)),
                int(rng.integers(0, 3)),
                int(rng.integers(0, 2)),
            )
            p_pos = 0.75 if cell[1] == 0 else 0.45
            deltas.append(
                InsertDelta(values=cell, label=int(rng.random() < p_pos))
            )
        batches.append((f"b{b:06d}", deltas))
    return batches


def bench_direct(tmp: str, batches) -> float:
    """Deltas/sec straight into the StreamService — no HTTP."""
    from repro.stream.service import StreamService

    service = StreamService.create(os.path.join(tmp, "direct"), make_config())
    try:
        start = time.perf_counter()
        service.ingest(batches)
        elapsed = time.perf_counter() - start
    finally:
        service.close()
    return sum(len(d) for __, d in batches) / elapsed


def start_gateway(tmp: str, name: str, admission_limit: int = 8):
    from repro.serve.gateway import AuditGateway, GatewayConfig
    from repro.stream.service import StreamService

    service = StreamService.create(os.path.join(tmp, name), make_config())
    gateway = AuditGateway(
        service, config=GatewayConfig(admission_limit=admission_limit)
    )
    gateway.start()
    return gateway


def bench_gateway(tmp: str, batches) -> tuple[float, float]:
    """(deltas/sec, requests/sec) through the HTTP front, one producer."""
    from repro.serve.client import GatewayClient

    gateway = start_gateway(tmp, "gateway")
    try:
        host, port = gateway.address
        client = GatewayClient(host, port)
        start = time.perf_counter()
        for batch_id, deltas in batches:
            client.ingest(batch_id, deltas)
        elapsed = time.perf_counter() - start
    finally:
        gateway.stop()
    n_deltas = sum(len(d) for __, d in batches)
    return n_deltas / elapsed, len(batches) / elapsed


def bench_overload(tmp: str) -> dict:
    """p95 successful-ingest wall time with producers >> admission slots."""
    from repro.resilience import RetryPolicy
    from repro.serve.client import GatewayClient

    gateway = start_gateway(
        tmp, "overload", admission_limit=OVERLOAD_ADMISSION
    )
    latencies: list[list[float]] = [[] for __ in range(OVERLOAD_PRODUCERS)]
    try:
        host, port = gateway.address

        def producer(p: int) -> None:
            # Constant-delay jittered polling: geometric backoff would blow
            # past the bench budget once contention forces many retries.
            client = GatewayClient(
                host, port,
                retry=RetryPolicy(
                    max_attempts=500, base_delay=0.005,
                    backoff_factor=1.0, jitter=0.5, seed=p,
                ),
            )
            rows = OVERLOAD_BATCHES_EACH * OVERLOAD_BATCH_ROWS
            for batch_id, deltas in make_batches(
                rows, OVERLOAD_BATCH_ROWS, seed=100 + p
            ):
                start = time.perf_counter()
                client.ingest(f"p{p}-{batch_id}", deltas)
                latencies[p].append(time.perf_counter() - start)

        threads = [
            threading.Thread(target=producer, args=(p,), daemon=True)
            for p in range(OVERLOAD_PRODUCERS)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        shed = gateway._shed
        acked = gateway._acked
    finally:
        gateway.stop()
    flat = np.asarray([s for per in latencies for s in per])
    return {
        "producers": OVERLOAD_PRODUCERS,
        "admission_limit": OVERLOAD_ADMISSION,
        "acked_under_load": int(acked),
        "shed_requests": int(shed),
        "shed_p50_seconds": round(float(np.percentile(flat, 50)), 6),
        "shed_p95_seconds": round(float(np.percentile(flat, 95)), 6),
        "overload_seconds": round(elapsed, 3),
    }


def run(rows: int) -> dict:
    """Direct, gateway and overload phases; returns the serving record."""
    print(
        f"serving {rows:,} rows in {BATCH_ROWS:,}-delta batches "
        "through the gateway",
        flush=True,
    )
    batches = make_batches(rows, BATCH_ROWS)
    n_deltas = sum(len(d) for __, d in batches)
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        print(f"  direct: {n_deltas:,} deltas ...", flush=True)
        direct = bench_direct(tmp, batches)
        print(f"  direct: {direct:,.0f} deltas/s", flush=True)
        gateway_dps, gateway_rps = bench_gateway(tmp, batches)
        print(
            f"  gateway: {gateway_dps:,.0f} deltas/s "
            f"({gateway_rps:,.1f} req/s)",
            flush=True,
        )
        overload = bench_overload(tmp)
        print(
            f"  overload: {overload['shed_requests']} shed, "
            f"p95 {overload['shed_p95_seconds']}s",
            flush=True,
        )
    return {
        "rows": rows,
        "batch_rows": BATCH_ROWS,
        "n_deltas": n_deltas,
        "direct_deltas_per_sec": round(direct, 1),
        "gateway_deltas_per_sec": round(gateway_dps, 1),
        "gateway_rps": round(gateway_rps, 2),
        "gateway_over_direct": round(gateway_dps / direct, 4),
        **overload,
        "cpu_count": os.cpu_count() or 1,
    }
