"""Chaos drills for the streaming auditor: crash-safe ingestion, proven.

``make stream-chaos`` (and the CI ``stream-chaos`` stage) batters the
stream write path and asserts the recovery contract: however the driver
dies mid-ingestion, a restart must replay the journal to **byte-identical
audited state** — same watermark, same region reports, same alarm set,
same digest — as a run that was never interrupted.

The kills land at the ``stream.journalled`` crash point (the victim batch
is fsynced in the journal but not yet applied), armed per subprocess via
``REPRO_CRASHPOINT`` (see docs/resilience.md, "Crash points and drills"):

* **crash-exit** — the driver ``os._exit``\\ s right after the fsynced
  append; the restart must dedup the journalled batch, not double-apply;
* **crash-sigkill** — same window, death by signal (no Python cleanup);
* **hang + external SIGKILL** — the driver wedges between append and
  apply; the harness SIGKILLs it from outside once the armed batch is on
  disk (the "operator kills a stuck ingester" drill);
* **torn tail** — the final journal record is truncated mid-line on disk;
  recovery must clip exactly the torn record and re-ingest it;
* **compaction** — a generation flip happens mid-stream, then the driver
  is killed; replay across the rebase must still match, and no orphan
  segments may survive recovery.

Run directly::

    PYTHONPATH=src python -m repro.stream.chaos
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from repro.crashpoint import CRASH_EXIT, CRASH_SIGKILL, HANG
from repro.data.io import atomic_write_json
from repro.errors import InternalError
from repro.resilience.drill import (
    DRILL_TIMEOUT,
    Scenario,
    arm,
    exit_status,
    kill_when,
    run,
    run_suite,
)
from repro.stream.journal import _SEGMENT_RE, CURRENT_FILE

N_BATCHES = 40
DELTAS_PER_BATCH = 50
WORKLOAD_SEED = 7
#: Batch the drills arm; mid-stream so both sides are non-trivial.
VICTIM_BATCH = "b0020"
#: The crash window every stream drill arms: journalled, not yet applied.
SITE = "stream.journalled"


@dataclass(frozen=True)
class Workload:
    """The shared inputs of every stream and gateway drill."""

    tmp: Path
    schema: Path
    batches: Path
    #: ``stream replay`` stdout of the uninterrupted ingest: the oracle.
    clean: bytes


# -- workload generation ----------------------------------------------------------

def write_workload(directory: Path) -> tuple[Path, Path]:
    """Write the schema + batches files the scenarios share.

    The workload is seeded and id-stable: mostly inserts over three
    protected attributes plus a numeric feature, with deletes and relabels
    aimed at rows known to be alive, so every batch is valid and the only
    nondeterminism left for the byte-compare to catch is the harness's.
    """
    schema_path = directory / "schema.json"
    atomic_write_json(
        schema_path,
        {
            "columns": [
                {"name": "age", "kind": "categorical", "domain": ["<30", ">=30"]},
                {
                    "name": "race",
                    "kind": "categorical",
                    "domain": ["a", "b", "c"],
                },
                {"name": "sex", "kind": "categorical", "domain": ["f", "m"]},
                {"name": "score", "kind": "numeric"},
            ],
            "protected": ["age", "race", "sex"],
        },
    )
    rng = np.random.default_rng(WORKLOAD_SEED)
    batches_path = directory / "batches.jsonl"
    alive: list[int] = []
    next_row = 0
    lines = []
    for b in range(N_BATCHES):
        deltas = []
        for _ in range(DELTAS_PER_BATCH):
            roll = float(rng.random())
            if roll < 0.85 or len(alive) < 10:
                values = [
                    int(rng.integers(2)),
                    int(rng.integers(3)),
                    int(rng.integers(2)),
                    round(float(rng.random()), 6),
                ]
                # Skew labels by cell so regions actually cross tau_c.
                label = 1 if rng.random() < (0.2 + 0.6 * (values[1] == 0)) else 0
                deltas.append(["i", values, label])
                alive.append(next_row)
                next_row += 1
            elif roll < 0.93:
                row = alive.pop(int(rng.integers(len(alive))))
                deltas.append(["d", row])
            else:
                row = alive[int(rng.integers(len(alive)))]
                deltas.append(["r", row, int(rng.integers(2))])
        lines.append(json.dumps({"id": f"b{b:04d}", "deltas": deltas}))
    batches_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return schema_path, batches_path


# -- subprocess drivers -----------------------------------------------------------

def _stream_cmd(*tail: str) -> list[str]:
    return [sys.executable, "-m", "repro", "stream", *tail]


def _init(stream_dir: Path, schema: Path, segment_bytes: int = 8192) -> None:
    run(
        _stream_cmd(
            "init", str(stream_dir), "--schema", str(schema),
            "--tau-c", "0.1", "--k", "10",
            "--segment-bytes", str(segment_bytes),
        )
    )


def _ingest(stream_dir: Path, batches: Path) -> list[str]:
    return _stream_cmd("ingest", str(stream_dir), str(batches))


def _replay_stdout(stream_dir: Path) -> bytes:
    return run(_stream_cmd("replay", str(stream_dir))).stdout


def _assert_no_orphans(stream_dir: Path, context: str) -> None:
    """Every segment on disk must belong to the CURRENT generation."""
    generation = json.loads((stream_dir / CURRENT_FILE).read_text())["generation"]
    stray = [
        p.name
        for p in stream_dir.iterdir()
        if (m := _SEGMENT_RE.match(p.name)) and int(m.group(1)) != generation
    ]
    if stray:
        raise InternalError(
            f"orphan segments survived recovery after {context}: {stray}"
        )


def _assert_recovered(
    stream_dir: Path, clean_stdout: bytes, context: str
) -> None:
    resumed = _replay_stdout(stream_dir)
    if resumed != clean_stdout:
        raise InternalError(
            f"replay after {context} diverges from the uninterrupted run"
        )
    _assert_no_orphans(stream_dir, context)


def _crash_ingest(stream_dir: Path, batches: Path, mode: str, context: str) -> None:
    """Ingest with the victim batch armed to crash; it must die that way."""
    proc = run(
        _ingest(stream_dir, batches), arm(SITE, VICTIM_BATCH, mode), check=False
    )
    if proc.returncode != exit_status(mode):
        raise InternalError(
            f"armed {context} exited {proc.returncode}, "
            f"expected {exit_status(mode)}"
        )


def prepare(tmp: Path) -> Workload:
    """Write the workload and capture the uninterrupted run's replay."""
    schema, batches = write_workload(tmp)
    stream_dir = tmp / "clean"
    _init(stream_dir, schema)
    run(_ingest(stream_dir, batches))
    clean = _replay_stdout(stream_dir)
    if b"digest" not in clean:
        raise InternalError("clean replay printed no state digest")
    return Workload(tmp, schema, batches, clean)


# -- scenarios --------------------------------------------------------------------

def run_crash(w: Workload, mode: str) -> None:
    """Kill the ingester at the armed batch; restart must converge."""
    context = f"{mode} crash at {SITE}"
    stream_dir = w.tmp / f"crash-{mode}"
    _init(stream_dir, w.schema)
    _crash_ingest(stream_dir, w.batches, mode, context)
    run(_ingest(stream_dir, w.batches))
    _assert_recovered(stream_dir, w.clean, context)


def _journal_holds_batch(stream_dir: Path, batch_id: str) -> bool:
    needle = f'"id":"{batch_id}"'.encode()
    for path in stream_dir.iterdir():
        if _SEGMENT_RE.match(path.name) and needle in path.read_bytes():
            return True
    return False


def run_hang_kill(w: Workload) -> None:
    """Wedge the driver between append and apply, SIGKILL it from outside."""
    stream_dir = w.tmp / "hang-kill"
    _init(stream_dir, w.schema)
    kill_when(
        _ingest(stream_dir, w.batches),
        lambda: _journal_holds_batch(stream_dir, VICTIM_BATCH),
        arm(SITE, VICTIM_BATCH, HANG, seconds=10 * DRILL_TIMEOUT),
    )
    run(_ingest(stream_dir, w.batches))
    _assert_recovered(stream_dir, w.clean, "hang + external SIGKILL")


def run_torn_tail(w: Workload) -> None:
    """Chop the last journal record mid-line; recovery must clip and re-ingest."""
    stream_dir = w.tmp / "torn"
    _init(stream_dir, w.schema)
    run(_ingest(stream_dir, w.batches))
    segments = sorted(
        p for p in stream_dir.iterdir() if _SEGMENT_RE.match(p.name)
    )
    last = segments[-1]
    data = last.read_bytes()
    cut = data.rstrip(b"\n").rfind(b"\n")
    # Keep a partial final line: a classic torn append.  (A single-record
    # final segment degenerates to a torn-at-zero, equally valid.)
    keep = cut + 1 + (len(data) - cut) // 2 if cut >= 0 else len(data) // 2
    last.write_bytes(data[:keep])
    run(_ingest(stream_dir, w.batches))
    _assert_recovered(stream_dir, w.clean, "torn final record")


def run_compaction_crash(w: Workload) -> None:
    """Compact mid-stream, then crash; replay across the rebase must match.

    Both the oracle and the victim compact after the same batch prefix, so
    their journals rebase at the same seq and the byte-compare stays exact.
    """
    all_lines = w.batches.read_text(encoding="utf-8").splitlines()
    first = w.tmp / "first-half.jsonl"
    second = w.tmp / "second-half.jsonl"
    first.write_text("\n".join(all_lines[: N_BATCHES // 2]) + "\n")
    second.write_text("\n".join(all_lines[N_BATCHES // 2:]) + "\n")

    def compacted(name: str) -> Path:
        stream_dir = w.tmp / name
        _init(stream_dir, w.schema)
        run(_ingest(stream_dir, first))
        run(_stream_cmd("compact", str(stream_dir)))
        return stream_dir

    oracle_dir = compacted("compact-clean")
    run(_ingest(oracle_dir, second))
    oracle = _replay_stdout(oracle_dir)

    victim_dir = compacted("compact-crash")
    _crash_ingest(victim_dir, second, CRASH_EXIT, "crash after compaction")
    run(_ingest(victim_dir, second))
    _assert_recovered(victim_dir, oracle, "crash after compaction")


SCENARIOS = (
    Scenario(
        "crash-exit", partial(run_crash, mode=CRASH_EXIT), SITE,
        "os._exit between journal and apply recovered to the clean replay "
        "byte for byte",
    ),
    Scenario(
        "crash-sigkill", partial(run_crash, mode=CRASH_SIGKILL), SITE,
        "SIGKILL between journal and apply recovered to the clean replay "
        "byte for byte",
    ),
    Scenario(
        "hang-kill", run_hang_kill, SITE,
        "hung driver SIGKILLed between append and apply; restart converged "
        "with no orphan segments",
    ),
    Scenario(
        "torn-tail", run_torn_tail, None,
        "torn final record clipped on recovery and re-ingested; replay "
        "matches the clean run",
    ),
    Scenario(
        "compaction-crash", run_compaction_crash, SITE,
        "crash after a generation flip replayed across the rebase to the "
        "oracle's bytes; old generation fully swept",
    ),
)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(run_suite("stream-chaos", SCENARIOS, prepare))
