"""Chaos smoke: the process backend must survive crashes, hangs, and kills.

``make chaos`` (and the CI ``chaos`` stage) runs a small robustness sweep
on the *process* backend while a :class:`~repro.resilience.faults.FaultPlan`
murders the workers: one cell's worker dies via ``os._exit``, one SIGKILLs
itself mid-cell, and one wedges past the deadline so the parent hard-kills
it.  The sweep must still complete every cell — via respawn + retry — and
its table must be byte-identical to a clean in-process run's.

The sweep runs against the zero-copy shared-memory dataset plane
(:mod:`repro.resilience.shm`), so every murdered worker dies holding an
attached segment; the harness asserts the dataset really was published,
and that after :meth:`~repro.resilience.executor.CellExecutor.close` no
``repro-shm-*`` segment is left in ``/dev/shm`` — a SIGKILLed worker must
neither corrupt nor leak a segment.

A second check SIGKILLs the *driver* mid-sweep: the CLI runs a
checkpointed parallel sweep in a subprocess, the harness kills it once the
checkpoint holds some-but-not-all cells, and a ``--resume`` rerun must
reproduce the uninterrupted run's stdout byte for byte.  The killed driver
never runs its atexit sweep, so this also proves the resource-tracker
backstop: its published segments must still vanish from ``/dev/shm``.

Run directly::

    PYTHONPATH=src python -m repro.resilience.chaos
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.crashpoint import CRASH_EXIT, CRASH_SIGKILL
from repro.data.synth import load_compas
from repro.errors import InternalError
from repro.experiments.robustness import RobustnessResult, run_seed_sweep
from repro.resilience.drill import Scenario, kill_when, run, run_suite
from repro.resilience.executor import BACKEND_PROCESS, CellExecutor, RetryPolicy
from repro.resilience.faults import CrashFault, FaultPlan, HangFault
from repro.resilience.shm import SEGMENT_PREFIX, published_segments

CHAOS_ROWS = 800
CHAOS_WORKERS = 2
CHAOS_SEEDS = (0, 1, 2, 3, 4)
#: Cells faulted by the chaos plan (seed -> how its worker dies).
FAULTED_SEEDS = (0, 1, 2)
#: Per-cell deadline: generous against a loaded 1-core box (real cells run
#: in a couple of seconds) yet bounding the hang-cell wait.
CHAOS_DEADLINE = 30.0
#: Ceiling on one CLI sweep subprocess of the driver-kill drill.
CLI_TIMEOUT = 300.0


def chaos_plan() -> FaultPlan:
    """One of each worker death: exit-crash, SIGKILL-crash, past-deadline hang."""
    return FaultPlan(
        cells={
            ("robustness", "0"): CrashFault(times=1, mode=CRASH_EXIT),
            ("robustness", "1"): CrashFault(times=1, mode=CRASH_SIGKILL),
            ("robustness", "2"): HangFault(seconds=10 * CHAOS_DEADLINE, times=1),
        }
    )


def run_chaos(tmp: Path) -> None:
    """Run the murdered sweep, check its invariants, print the table.

    Raises :class:`~repro.errors.InternalError` when a resilience invariant
    is violated — a lost cell despite retries, a faulted cell that did not
    need a second attempt, no observed worker deaths, or a chaos table
    diverging from the clean serial one.
    """
    data = load_compas(CHAOS_ROWS, seed=11)
    executor = CellExecutor(
        policy=RetryPolicy(max_attempts=3, retry_timeouts=True),
        deadline=CHAOS_DEADLINE,
        faults=chaos_plan(),
        backend=BACKEND_PROCESS,
        max_workers=CHAOS_WORKERS,
    )
    try:
        chaotic = run_seed_sweep(
            data, "ProPublica", seeds=CHAOS_SEEDS, executor=executor
        )
        _check(chaotic, executor, CHAOS_SEEDS)
        if not published_segments():
            raise InternalError(
                "chaos sweep published no shared-memory segment; the faults "
                "never exercised the zero-copy dataset plane"
            )
    finally:
        executor.close()
    if published_segments():
        raise InternalError(
            "executor.close() left segments published: "
            f"{published_segments()}"
        )
    _assert_no_shm_leaks("worker-chaos sweep + executor.close()")

    clean = run_seed_sweep(data, "ProPublica", seeds=CHAOS_SEEDS)
    if chaotic.table() != clean.table():
        raise InternalError(
            "chaos sweep table diverges from the clean in-process sweep table"
        )
    print(chaotic.table())


def _check(
    result: RobustnessResult, executor: CellExecutor, seeds: tuple[int, ...]
) -> None:
    if result.failures:
        raise InternalError(
            f"chaos sweep lost cells despite retries: {result.failures}"
        )
    if len(result.outcomes) != len(seeds):
        raise InternalError(
            f"chaos sweep completed {len(result.outcomes)} of {len(seeds)} cells"
        )
    faulted = {("robustness", str(seed)) for seed in FAULTED_SEEDS}
    for outcome in executor.outcomes:
        want = 2 if outcome.key in faulted else 1
        if outcome.attempts != want:
            raise InternalError(
                f"cell {outcome.key} took {outcome.attempts} attempts, "
                f"expected {want}: each chaos fault should force exactly one "
                "respawn + retry and clean cells none"
            )


def _leaked_segments() -> list[str]:
    """``repro-shm-*`` names currently present in ``/dev/shm``."""
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():  # pragma: no cover - non-POSIX-shm platform
        return []
    return sorted(
        p.name for p in shm_dir.iterdir() if p.name.startswith(SEGMENT_PREFIX)
    )


def _assert_no_shm_leaks(context: str, timeout: float = 10.0) -> None:
    """Fail unless every shared-dataset segment vanishes within ``timeout``.

    The wait loop covers the asynchronous reclaim paths: the resource
    tracker unlinks a SIGKILLed driver's segments only once it notices the
    death, and orphaned workers may briefly outlive their driver.
    """
    deadline = time.monotonic() + timeout
    while True:
        leaked = _leaked_segments()
        if not leaked:
            return
        if time.monotonic() > deadline:
            raise InternalError(
                f"shared-memory segments leaked after {context}: {leaked}"
            )
        time.sleep(0.05)


# -- driver-kill / resume check ---------------------------------------------------

def _cli_command(checkpoint: Path, resume: bool) -> list[str]:
    cmd = [
        sys.executable, "-m", "repro", "experiment", "robustness",
        "--rows", str(CHAOS_ROWS), "--models", "dt",
        "--backend", "process", "--workers", str(CHAOS_WORKERS),
        "--checkpoint", str(checkpoint),
    ]
    if resume:
        cmd.append("--resume")
    return cmd


def _checkpoint_cells(path: Path) -> int:
    try:
        return len(json.loads(path.read_text()).get("cells", {}))
    except (OSError, ValueError):
        return 0


def run_driver_kill(tmp: Path) -> None:
    """SIGKILL a checkpointed CLI sweep mid-run; ``--resume`` must reproduce it.

    The driver is killed with ``SIGKILL`` (no cleanup handlers run) once
    the checkpoint holds at least one completed cell, proving the atomic
    per-cell flush: whatever was committed survives, the resumed run redoes
    only the rest, and the final stdout is byte-identical to an
    uninterrupted run's.
    """
    n_cells = len(CHAOS_SEEDS)
    clean = run(
        _cli_command(tmp / "clean.json", resume=False), timeout=CLI_TIMEOUT
    )
    killed_ckpt = tmp / "killed.json"
    kill_when(
        _cli_command(killed_ckpt, resume=False),
        lambda: 1 <= _checkpoint_cells(killed_ckpt) < n_cells,
        timeout=CLI_TIMEOUT,
    )
    survived = _checkpoint_cells(killed_ckpt)
    if not 1 <= survived < n_cells:
        raise InternalError(
            f"driver kill landed outside the sweep: checkpoint holds "
            f"{survived} of {n_cells} cells (the run was too fast or "
            "never flushed); nothing was proven"
        )
    resumed = run(_cli_command(killed_ckpt, resume=True), timeout=CLI_TIMEOUT)
    if resumed.stdout != clean.stdout:
        raise InternalError(
            "resumed sweep stdout diverges from the uninterrupted run"
        )
    # The SIGKILLed driver never ran its atexit sweep; its segments must
    # have been reclaimed by the shared resource tracker (and the clean +
    # resumed runs must have swept their own on exit).
    _assert_no_shm_leaks("driver SIGKILL + resume")


SCENARIOS = (
    Scenario(
        "worker-chaos", run_chaos, None,
        f"{len(CHAOS_SEEDS)} cells completed on {CHAOS_WORKERS} workers under "
        "injected os._exit, SIGKILL, and past-deadline hang against "
        "shared-memory datasets; table matches the clean serial run byte for "
        "byte; /dev/shm clean after close",
    ),
    Scenario(
        "driver-kill", run_driver_kill, None,
        "driver SIGKILLed mid-sweep; --resume reproduced the uninterrupted "
        "stdout byte for byte; no leaked shared segments",
    ),
)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(run_suite("chaos", SCENARIOS))
