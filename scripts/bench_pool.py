"""Measure the worker pool's parallel speedup on a Fig. 9a sweep.

Runs the same identification-vs-attributes sweep on the process backend at
each worker count in the grid and records, per count:

* **cold** seconds — first sweep on a fresh executor, paying worker spawn
  and the one-time shared-memory dataset publish;
* **warm** seconds — best of ``WARM_REPEATS`` repeats of the same sweep on
  the now-warm pool (workers alive, dataset already attached), sampled in
  rounds interleaved across the worker grid so a box-speed drift cannot
  land on one side of the ratio; the minimum is what the speedup ratio
  and the regression gate are computed from, since on a single core the
  ratio lives within scheduler noise of 1.0;
* a **spawn / ship / compute** time breakdown summed from the merged obs
  traces (driver-side ``pool.spawn`` / ``pool.ship`` spans, worker-side
  ``pool.cell_compute`` spans absorbed into the driver tracer);
* ``bytes_shipped`` — total pickled task bytes that crossed the pipe
  during the warm sweep.  With the zero-copy dataset plane this is a few
  KB of :class:`~repro.resilience.shm.DatasetRef` handles, not the data.

Produced and gated by ``scripts/bench.py`` (workload ``pool``).
"""

from __future__ import annotations

import os
import time

BENCH_ATTR_GRID = (2, 3, 4, 5, 6)
# Best-of-6: each warm sweep is well under a second, and on a 1-CPU box
# a best-of-3 minimum still carries enough scheduler noise to push the
# 4-vs-1 ratio outside its absolute gate on a bad draw.
WARM_REPEATS = 6

#: Driver/worker span names summed into the breakdown columns.
SPAN_SPAWN = "pool.spawn"
SPAN_SHIP = "pool.ship"
SPAN_COMPUTE = "pool.cell_compute"
COUNTER_SHIPPED = "pool.bytes_shipped"


def worker_grid(cpu_count: int) -> tuple[int, ...]:
    """The worker counts to bench: {1, 4}, extended when CPUs allow."""
    grid = [1, 4]
    if cpu_count >= 8:
        grid.append(8)
    return tuple(grid)


def _span_seconds(tracer, name: str) -> float:
    """Total wall seconds of every span called ``name`` in ``tracer``."""
    return sum(s.wall for s in tracer.spans if s.name == name)


def _run_sweep(executor, rows: int, attr_grid: tuple[int, ...], tracer) -> float:
    """One traced Fig. 9a sweep on ``executor``; returns wall seconds."""
    from repro.experiments.scalability import identification_vs_attrs
    from repro.obs import tracing

    with tracing(tracer):
        start = time.perf_counter()
        result = identification_vs_attrs(
            n_rows=rows, attr_grid=attr_grid, executor=executor
        )
        elapsed = time.perf_counter() - start
    bad = [p for p in result.points if p.status != "ok"]
    if bad:
        raise SystemExit(f"error: sweep cells failed during the bench: {bad}")
    return elapsed


def timed_sweeps(
    grid: tuple[int, ...], rows: int, attr_grid: tuple[int, ...]
) -> dict[str, dict]:
    """Cold + warm sweeps at every worker count, with trace breakdowns.

    All pools stay alive together and the warm repeats run in interleaved
    rounds (1-worker sweep, 4-worker sweep, repeat): timing each count in
    its own block lets a mid-run slowdown of the shared box land entirely
    on one side of the speedup ratio the gate divides out.  Idle pools
    only block on their task pipes, so they do not perturb whichever
    sweep is being timed.
    """
    from repro.obs import Tracer
    from repro.resilience import BACKEND_PROCESS, CellExecutor

    executors = {
        workers: CellExecutor(backend=BACKEND_PROCESS, max_workers=workers)
        for workers in grid
    }
    cold: dict[int, float] = {}
    cold_tracers: dict[int, object] = {}
    warm: dict[int, float] = {}
    warm_tracers: dict[int, object] = {}
    try:
        # Cold passes: each pays spawn + the one-time shared-memory
        # publish.  Their tracers are where the pool.spawn spans land
        # (workers persist afterwards).
        for workers, executor in executors.items():
            tracer = Tracer()
            cold[workers] = _run_sweep(executor, rows, attr_grid, tracer)
            cold_tracers[workers] = tracer
        # Warm rounds on the now-warm pools: the best one per count is
        # what the speedup gate measures, and its tracer feeds the
        # breakdown columns.
        for _ in range(WARM_REPEATS):
            for workers, executor in executors.items():
                tracer = Tracer()
                elapsed = _run_sweep(executor, rows, attr_grid, tracer)
                if workers not in warm or elapsed < warm[workers]:
                    warm[workers], warm_tracers[workers] = elapsed, tracer
    finally:
        for executor in executors.values():
            executor.close()
    rows_out: dict[str, dict] = {}
    for workers in grid:
        totals = warm_tracers[workers].metric_totals()
        rows_out[str(workers)] = {
            "cold_seconds": round(cold[workers], 3),
            "seconds": round(warm[workers], 3),
            "breakdown": {
                "spawn": round(
                    _span_seconds(cold_tracers[workers], SPAN_SPAWN), 4
                ),
                "ship": round(
                    _span_seconds(warm_tracers[workers], SPAN_SHIP), 4
                ),
                "compute": round(
                    _span_seconds(warm_tracers[workers], SPAN_COMPUTE), 4
                ),
            },
            "bytes_shipped": int(totals.get(COUNTER_SHIPPED, 0)),
        }
    return rows_out


def run(rows: int) -> dict:
    """Cold + warm sweeps at every grid point; returns the speedup record."""
    cpu_count = os.cpu_count() or 1
    grid = worker_grid(cpu_count)
    per_workers = timed_sweeps(grid, rows, BENCH_ATTR_GRID)
    for workers in grid:
        row = per_workers[str(workers)]
        b = row["breakdown"]
        print(
            f"workers={workers}: cold {row['cold_seconds']:.2f}s  "
            f"warm {row['seconds']:.2f}s  "
            f"(spawn {b['spawn']:.2f}s  ship {b['ship']:.3f}s  "
            f"compute {b['compute']:.2f}s  "
            f"shipped {row['bytes_shipped']} bytes)",
            flush=True,
        )
    speedup = per_workers["1"]["seconds"] / max(per_workers["4"]["seconds"], 1e-9)
    print(f"speedup (1 -> 4 workers, warm): {speedup:.2f}x", flush=True)
    return {
        "kind": "pool",
        "experiment": "fig9a",
        "rows": rows,
        "attr_grid": list(BENCH_ATTR_GRID),
        "cpu_count": cpu_count,
        "workers": per_workers,
        "seconds": {w: row["seconds"] for w, row in per_workers.items()},
        "speedup_workers4_vs_1": round(speedup, 3),
    }
