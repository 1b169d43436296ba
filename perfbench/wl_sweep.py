"""fig9_sweep: the Fig. 9 scalability sweep through a warm 2-worker pool.

One sweep has three phases, each one ``run_specs`` call on the same
process-backend ``CellExecutor``:

* ``counts``: ``sharded_region_counts`` over a 2,000,000-row Adult-like
  ``Registry`` store in 250,000-row shards, one cell per shard;
* ``identify``: ``identification_vs_attrs`` with the optimized and
  vectorized engines at 4, 5 and 6 protected attributes;
* ``remedy``: ``remedy_vs_attrs`` with preferential sampling at 4, 5 and 6.

The grid stops at 6 attributes: at 8, one sweep is two long single-thread
cells (~10 s), a 15-second run holds one sweep, and which vCPU runs those
cells moved the figure by up to 1.6x from run to run.  At 6, a run holds
about ten sweeps and its median is steady.

Set-up materializes the store, spawns the workers and publishes the sweep
dataset to shared memory (a one-cell warm-up sweep), so the timed sweeps
run warm.
"""

from __future__ import annotations

import itertools
import shutil
import time

import numpy as np

from harness import Layers, Outcome, keep_going
from repro.core.ibs import METHOD_OPTIMIZED, METHOD_VECTORIZED
from repro.core.samplers import PREFERENTIAL
from repro.data.store import Registry, synth_chunks
from repro.data.synth.adult import SCALABILITY_PROTECTED, load_adult
from repro.experiments.scalability import (
    identification_vs_attrs,
    remedy_vs_attrs,
    sharded_region_counts,
)
from repro.resilience import BACKEND_PROCESS, CellExecutor

STORE_ROWS, SHARD_ROWS, SWEEP_ROWS = 2_000_000, 250_000, 45_222
SMOKE_STORE_ROWS, SMOKE_SHARD_ROWS, SMOKE_SWEEP_ROWS = 20_000, 5_000, 2_000
ATTR_GRID = (4, 5, 6)
WORKERS = 2
PHASES = ("counts", "identify", "remedy")

_dirs = itertools.count()


class State:
    def __init__(self, seed, root, store, executor, sweep_rows):
        self.seed = seed
        self.root = root
        self.store = store
        self.executor = executor
        self.sweep_rows = sweep_rows
        self.phase = PHASES[0]
        self.sweeps: list[dict] = []


def setup(seed: int, workdir, smoke: bool, traced: bool) -> State:
    store_rows, shard_rows, sweep_rows = (
        (SMOKE_STORE_ROWS, SMOKE_SHARD_ROWS, SMOKE_SWEEP_ROWS)
        if smoke
        else (STORE_ROWS, SHARD_ROWS, SWEEP_ROWS)
    )
    root = workdir / f"registry-{next(_dirs)}"
    store = Registry(root).materialize(
        "adult",
        chunks=synth_chunks(load_adult, store_rows, shard_rows, seed),
        shard_rows=shard_rows,
    )
    executor = CellExecutor(backend=BACKEND_PROCESS, max_workers=WORKERS)
    try:
        sharded_region_counts(store, SCALABILITY_PROTECTED, executor=executor)
        identification_vs_attrs(
            n_rows=sweep_rows, attr_grid=(2,), methods=(METHOD_OPTIMIZED,),
            seed=seed, executor=executor,
        )
    except BaseException:
        executor.close()  # reap the workers before the error propagates
        raise
    return State(seed, root, store, executor, sweep_rows)


def teardown(state: State) -> None:
    state.executor.close()
    shutil.rmtree(state.root, ignore_errors=True)


def _cell_seconds(outcome) -> float:
    value = outcome.value
    return float(value["seconds"] if isinstance(value, dict) else value.seconds)


def _sweep(state: State) -> dict:
    """One timed sweep; returns its results and where its outcomes start."""
    ex = state.executor
    marks = [len(ex.outcomes)]
    state.phase = "counts"
    pos, neg, _ = sharded_region_counts(
        state.store, SCALABILITY_PROTECTED, executor=ex
    )
    marks.append(len(ex.outcomes))
    state.phase = "identify"
    ident = identification_vs_attrs(
        n_rows=state.sweep_rows, attr_grid=ATTR_GRID,
        methods=(METHOD_OPTIMIZED, METHOD_VECTORIZED),
        seed=state.seed, executor=ex,
    )
    marks.append(len(ex.outcomes))
    state.phase = "remedy"
    remedy = remedy_vs_attrs(
        n_rows=state.sweep_rows, attr_grid=ATTR_GRID,
        techniques=(PREFERENTIAL,), seed=state.seed, executor=ex,
    )
    marks.append(len(ex.outcomes))
    return {"pos": pos, "neg": neg, "ident": ident, "remedy": remedy, "marks": marks}


def _harvest(state: State, sweep: dict) -> None:
    """Keep what the checks need of a sweep's cell outcomes, then drop them.

    The executor keeps every outcome for its whole life (~7 MB of count
    lists per sweep here); without this the list would grow with every
    sweep the window holds.
    """
    ex, marks = state.executor, sweep.pop("marks")
    sweep["cells"] = {
        phase: [
            (o.key, o.ok, _cell_seconds(o) if o.ok else 0.0)
            for o in ex.outcomes[marks[i]:marks[i + 1]]
        ]
        for i, phase in enumerate(PHASES)
    }
    del ex.outcomes[:]
    state.sweeps.append(sweep)


def measure(state: State, seconds: float, layers: Layers) -> Outcome:
    layers.patch(
        CellExecutor, "run_specs",
        lambda: f"resilience.executor.run_specs.{state.phase}",
    )
    op_seconds: list[float] = []
    started = time.perf_counter()
    last = 0.0
    try:
        while not op_seconds or keep_going(started, seconds, last):
            t0 = time.perf_counter()
            sweep = _sweep(state)
            last = time.perf_counter() - t0
            op_seconds.append(last)
            _harvest(state, sweep)
    finally:
        layers.unpatch()
    window = time.perf_counter() - started
    n_cells = sum(len(c) for s in state.sweeps for c in s["cells"].values())
    failed = sum(
        not ok for s in state.sweeps for c in s["cells"].values() for _, ok, _ in c
    )
    return Outcome(
        op_seconds=op_seconds,
        work_units=n_cells,
        work_seconds=sum(op_seconds),
        window_s=window,
        attempted=n_cells,
        failed=failed,
        op_name="sweep_s",
        op_unit="s",
    )


def check(state: State, outcome: Outcome) -> list[tuple[str, bool, str]]:
    pos, neg, _ = state.store.region_counts(SCALABILITY_PROTECTED)
    checks = []
    for i, s in enumerate(state.sweeps):
        bad = [key for c in s["cells"].values() for key, ok, _ in c if not ok]
        bad += [
            (p.x, p.label, p.status)
            for p in s["ident"].points + s["remedy"].points
            if p.status != "ok"
        ]
        checks.append((f"sweep {i}: every cell ok", not bad, repr(bad)))
        checks.append(
            (
                f"sweep {i}: pooled sharded counts == in-process region_counts",
                np.array_equal(s["pos"], pos) and np.array_equal(s["neg"], neg),
                f"{int(s['pos'].sum() + s['neg'].sum())} rows counted",
            )
        )
        sizes: dict[float, dict[str, int]] = {}
        for p in s["ident"].points:
            sizes.setdefault(p.x, {})[p.label] = p.detail
        same = all(len(set(by.values())) == 1 and len(by) == 2 for by in sizes.values())
        checks.append(
            (f"sweep {i}: both engines report the same IBS sizes", same, repr(sizes))
        )
    return checks


def layer_metrics(state: State, outcome: Outcome, layers: Layers) -> dict:
    n = len(state.sweeps)
    compute = {phase: 0.0 for phase in PHASES}
    overhead = 0.0
    for s in state.sweeps:
        for phase in PHASES:
            secs = [sec for _, ok, sec in s["cells"][phase] if ok]
            compute[phase] += sum(secs)
            overhead -= max(secs, default=0.0)
    run_specs = {
        phase: layers.seconds(f"resilience.executor.run_specs.{phase}")
        for phase in PHASES
    }
    overhead += sum(run_specs.values())
    out = {
        f"resilience.executor.run_specs_s.{phase}": run_specs[phase] / n
        for phase in PHASES
    }
    out["resilience.cell_compute_s"] = sum(compute.values()) / n
    out["resilience.pool_overhead_s"] = overhead / n
    out["data.store.shard_region_counts_s"] = compute["counts"] / n
    out["core.ibs.identify_ibs_s"] = compute["identify"] / n
    out["core.remedy.remedy_dataset_s"] = compute["remedy"] / n
    out["core.remedy.regions_remedied"] = (
        sum(p.detail for s in state.sweeps for p in s["remedy"].points) / n
    )
    # The worker cells report their own seconds; add them to the table so
    # it shows where the pool's time went.
    for phase, name in zip(
        PHASES,
        ("data.store.shard_region_counts", "core.ibs.identify_ibs",
         "core.remedy.remedy_dataset"),
    ):
        calls = sum(len(s["cells"][phase]) for s in state.sweeps)
        layers.add(f"{name} (workers)", compute[phase], calls=calls, self_seconds=0.0)
    return out
