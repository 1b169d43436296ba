"""Chaos smoke for the audit gateway: crash-safe serving, proven end to end.

``make serve-chaos`` (and the CI ``serve-chaos`` stage) batters the whole
serving stack — gateway subprocess, retrying client, registry fetch tier,
remedy-on-drift — and asserts the contract the docs promise:

* **mid-ingest SIGKILL / crash-exit** — the gateway is armed (via
  ``REPRO_CRASHPOINT`` at the stream's own ``stream.journalled`` crash
  point, which ``repro serve`` reaches exactly like ``repro stream
  ingest``) to die between journalling and applying the victim batch,
  mid-HTTP-request.  The producer's retry loop restarts the server on the
  same port and re-sends the same batch id; the journalled-but-unacked
  batch dedups (``duplicate: true``), every one of the 40 batches ends up
  acked exactly once, and the final ``repro stream replay`` is
  byte-identical to a direct, uninterrupted ``repro stream ingest`` of the
  same workload — the gateway adds no bytes of divergence.  Zero
  acknowledged-but-lost batches: an ack is only ever written after the
  batch is fsynced *and* applied.
* **mid-fetch SIGKILL** — the ``serve.fetch_mid_body`` crash point makes
  the gateway kill itself halfway through a shard file's body.  The client
  sees a short read (typed :class:`~repro.errors.TransportError`), leaves
  only a ``.tmp-*`` sibling behind, and a retry against the restarted
  server installs the store with every sha256 verified, no ``.tmp-*``
  leftovers, and no stale leases on either side.
* **remedy-on-drift across a crash** — two ``--remedy`` gateways ingest
  the same workload; one is SIGKILLed at a victim batch and restarted.
  Automated remedy batches are journalled under deterministic ids
  (``remedy-w<watermark>``), so both journals replay to the same digest,
  byte for byte — recovery replays every automated action identically and
  no partial remedy is ever visible.
* **graceful drain** — SIGTERM makes the server refuse new work, finish
  in-flight requests, flush and close the journal, and exit 0 printing
  ``drained``; the directory replays clean afterwards.

Run directly::

    PYTHONPATH=src python -m repro.serve.chaos
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
from functools import partial
from pathlib import Path

from repro.crashpoint import CRASH_EXIT, CRASH_SIGKILL
from repro.data.store.format import (
    LABELS_FILE,
    manifest_digest,
    read_manifest,
    shard_dir_name,
)
from repro.data.store.registry import TMP_PREFIX, Registry
from repro.errors import InternalError, TransportError
from repro.resilience import RetryPolicy
from repro.resilience.drill import (
    DRILL_TIMEOUT,
    Scenario,
    arm,
    drill_env,
    exit_status,
    run,
    run_suite,
)
from repro.serve.client import GatewayClient
from repro.serve.remedy import REMEDY_APPLIED
from repro.stream.chaos import (
    N_BATCHES,
    SITE,
    VICTIM_BATCH,
    Workload,
    _assert_no_orphans,
    _init,
    _replay_stdout,
    prepare,
)
from repro.stream.service import read_batches_file

#: Fast, deterministic client policy: the harness drives its own
#: restart-and-retry loop, so per-request retries stay short.
_RETRY = RetryPolicy(max_attempts=2, base_delay=0.01)

FETCH_DATASET = "chaosset"
#: Shard file the mid-fetch kill is armed on (every shard has labels).
FETCH_VICTIM_FILE = f"{shard_dir_name(1)}/{LABELS_FILE}"
FETCH_SITE = "serve.fetch_mid_body"


# -- server management ------------------------------------------------------------

def _start_server(
    stream_dir: Path,
    *extra_args: str,
    port: int = 0,
    armed: dict | None = None,
) -> tuple[subprocess.Popen, int]:
    """Launch ``repro serve`` and block until its ready line arrives."""
    cmd = [
        sys.executable, "-m", "repro", "serve", str(stream_dir),
        "--port", str(port), *extra_args,
    ]
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=drill_env(armed),
    )
    ready = proc.stdout.readline()
    if not ready:
        proc.wait(timeout=DRILL_TIMEOUT)
        raise InternalError(
            f"server on {stream_dir} died before its ready line "
            f"(exit {proc.returncode}): "
            f"{proc.stderr.read().decode(errors='replace')}"
        )
    return proc, int(json.loads(ready)["port"])


def _reap(proc: subprocess.Popen, want_code: int, context: str) -> None:
    """Collect a killed server and check it died the armed way."""
    proc.wait(timeout=DRILL_TIMEOUT)
    proc.stdout.close()
    proc.stderr.close()
    if proc.returncode != want_code:
        raise InternalError(
            f"{context}: server exited {proc.returncode}, expected {want_code}"
        )


def _drain(proc: subprocess.Popen, context: str) -> bytes:
    """SIGTERM the server; it must drain, close the journal, and exit 0."""
    proc.send_signal(signal.SIGTERM)
    out, err = proc.communicate(timeout=DRILL_TIMEOUT)
    if proc.returncode != 0:
        raise InternalError(
            f"{context}: drain exited {proc.returncode}: "
            f"{err.decode(errors='replace')}"
        )
    if b"drained" not in out:
        raise InternalError(f"{context}: drained server never said 'drained'")
    return out


def _client(port: int) -> GatewayClient:
    return GatewayClient("127.0.0.1", port, retry=_RETRY)


def _ingest_converge(
    stream_dir: Path,
    batches: list,
    proc: subprocess.Popen,
    port: int,
    want_code: int,
    context: str,
    *extra_args: str,
) -> tuple[subprocess.Popen, dict, int]:
    """Drive every batch through the gateway, restarting it on death.

    Returns the live server, the acks by batch id, and how many times the
    server had to be restarted (the armed plans fire exactly once).
    """
    acked: dict[str, dict] = {}
    restarts = 0
    for batch_id, deltas in batches:
        while True:
            try:
                acked[batch_id] = _client(port).ingest(batch_id, deltas)
                break
            except TransportError:
                if proc.poll() is None:
                    proc.kill()
                    raise InternalError(
                        f"{context}: transport fault on {batch_id!r} but the "
                        "server is still alive"
                    )
                _reap(proc, want_code, context)
                restarts += 1
                # Same port, chaos disarmed: the producer's view of "the"
                # gateway endpoint never changes across the crash.
                proc, port = _start_server(stream_dir, *extra_args, port=port)
    return proc, acked, restarts


# -- scenarios --------------------------------------------------------------------

def run_gateway_crash(w: Workload, mode: str) -> None:
    """Kill the serving gateway mid-ingest; the retry loop must converge."""
    context = f"gateway {mode} at {SITE}"
    stream_dir = w.tmp / f"gw-{mode}"
    _init(stream_dir, w.schema)
    batches = read_batches_file(w.batches)
    proc, port = _start_server(
        stream_dir, armed=arm(SITE, VICTIM_BATCH, mode)
    )
    proc, acked, restarts = _ingest_converge(
        stream_dir, batches, proc, port, exit_status(mode), context
    )
    _drain(proc, context)
    if restarts != 1:
        raise InternalError(f"{context}: armed crash fired {restarts} times")
    if len(acked) != N_BATCHES:
        raise InternalError(
            f"{context}: {len(acked)} of {N_BATCHES} batches acked"
        )
    if not acked[VICTIM_BATCH]["duplicate"]:
        raise InternalError(
            f"{context}: journalled victim batch was not deduped on retry"
        )
    if _replay_stdout(stream_dir) != w.clean:
        raise InternalError(
            f"{context}: replay diverges from the direct stream ingest"
        )
    _assert_no_orphans(stream_dir, context)


def run_fetch_crash(w: Workload) -> None:
    """Kill the gateway halfway through a shard body; retry must install."""
    context = "mid-fetch SIGKILL"
    source_root = w.tmp / "registry"
    run(
        [
            sys.executable, "-m", "repro", "data", "materialize",
            FETCH_DATASET, "--root", str(source_root),
            "--rows", "3000", "--shard-rows", "1000", "--seed", "5",
        ]
    )
    source_digest = manifest_digest(read_manifest(source_root / FETCH_DATASET))
    stream_dir = w.tmp / "fetch-stream"
    _init(stream_dir, w.schema)
    dest_root = w.tmp / "fetched"
    proc, port = _start_server(
        stream_dir, "--registry", str(source_root),
        armed=arm(FETCH_SITE, FETCH_VICTIM_FILE, CRASH_SIGKILL),
    )
    try:
        _client(port).fetch_dataset(FETCH_DATASET, dest_root)
    except TransportError:
        pass
    else:
        proc.kill()
        raise InternalError(f"{context}: armed fetch kill never fired")
    _reap(proc, exit_status(CRASH_SIGKILL), context)
    leftovers = [p.name for p in dest_root.iterdir() if p.name.startswith(TMP_PREFIX)]
    if not leftovers:
        raise InternalError(
            f"{context}: interrupted fetch left no .tmp-* staging dir — the "
            "kill landed outside the download window"
        )
    proc, port = _start_server(
        stream_dir, "--registry", str(source_root), port=port
    )
    installed = _client(port).fetch_dataset(FETCH_DATASET, dest_root)
    _drain(proc, context)
    if manifest_digest(read_manifest(installed)) != source_digest:
        raise InternalError(f"{context}: installed manifest digest diverges")
    stale = [p.name for p in dest_root.iterdir() if p.name.startswith(TMP_PREFIX)]
    if stale:
        raise InternalError(f"{context}: .tmp-* leftovers after install: {stale}")
    if Registry(source_root).live_leases(FETCH_DATASET):
        raise InternalError(f"{context}: stale live lease on the source store")
    Registry(dest_root).verify(FETCH_DATASET)


def run_remedy_crash(w: Workload) -> None:
    """SIGKILL a --remedy gateway mid-ingest; digests must still converge."""
    context = "remedy crash"
    batches = read_batches_file(w.batches)

    clean_dir = w.tmp / "remedy-clean"
    _init(clean_dir, w.schema)
    proc, port = _start_server(clean_dir, "--remedy")
    acks = []
    for batch_id, deltas in batches:
        acks.append(_client(port).ingest(batch_id, deltas))
    clean_health = _client(port).health()
    _drain(proc, context)
    applied = [
        a for a in acks if a.get("remedy", {}).get("status") == REMEDY_APPLIED
    ]
    if not applied:
        raise InternalError(
            f"{context}: the workload triggered no automated remedy"
        )
    # Victim: the last batch that raised no new alarm, so the crash cannot
    # eat a remedy trigger — the convergence oracle stays exact.
    quiet = [
        bid
        for (bid, _), ack in zip(batches, acks)
        if ack["alarms_raised"] == 0
    ]
    if not quiet:
        raise InternalError(f"{context}: every batch raised an alarm edge")
    victim = quiet[-1]
    clean_replay = _replay_stdout(clean_dir)

    chaos_dir = w.tmp / "remedy-chaos"
    _init(chaos_dir, w.schema)
    proc, port = _start_server(
        chaos_dir, "--remedy", armed=arm(SITE, victim, CRASH_SIGKILL)
    )
    proc, acked, restarts = _ingest_converge(
        chaos_dir, batches, proc, port, exit_status(CRASH_SIGKILL), context,
        "--remedy",
    )
    chaos_health = _client(port).health()
    _drain(proc, context)
    if restarts != 1:
        raise InternalError(f"{context}: armed crash fired {restarts} times")
    if chaos_health["stream"]["digest"] != clean_health["stream"]["digest"]:
        raise InternalError(
            f"{context}: digests diverge across the crash "
            f"({chaos_health['stream']['digest']} vs "
            f"{clean_health['stream']['digest']})"
        )
    if _replay_stdout(chaos_dir) != clean_replay:
        raise InternalError(
            f"{context}: replay (including remedy batches) diverges from the "
            "uninterrupted --remedy run"
        )
    n_remedies = sum(
        1 for a in acked.values() if a.get("remedy", {}).get("status") == REMEDY_APPLIED
    )
    if n_remedies != len(applied):
        raise InternalError(
            f"{context}: {n_remedies} remedies across the crash vs "
            f"{len(applied)} in the clean run"
        )


def run_drain(w: Workload) -> None:
    """SIGTERM mid-life: drain cleanly, refuse new work, replay clean."""
    context = "graceful drain"
    stream_dir = w.tmp / "drain"
    _init(stream_dir, w.schema)
    proc, port = _start_server(stream_dir)
    for batch_id, deltas in read_batches_file(w.batches):
        _client(port).ingest(batch_id, deltas)
    _drain(proc, context)
    try:
        _client(port).health()
    except TransportError:
        pass
    else:
        raise InternalError(f"{context}: drained server still answers")
    if _replay_stdout(stream_dir) != w.clean:
        raise InternalError(
            f"{context}: replay after drain diverges from direct ingest"
        )
    _assert_no_orphans(stream_dir, context)


SCENARIOS = (
    Scenario(
        "gateway-sigkill", partial(run_gateway_crash, mode=CRASH_SIGKILL), SITE,
        "SIGKILL mid-ingest recovered; every batch acked once, victim "
        "deduped, replay byte-identical to direct ingest, no orphan segments",
    ),
    Scenario(
        "gateway-exit", partial(run_gateway_crash, mode=CRASH_EXIT), SITE,
        "os._exit mid-ingest recovered; every batch acked once, victim "
        "deduped, replay byte-identical to direct ingest, no orphan segments",
    ),
    Scenario(
        "fetch-crash", run_fetch_crash, FETCH_SITE,
        "SIGKILL mid-fetch left only a .tmp-* staging dir; retry installed "
        "the store sha256-verified with no leftovers and no stale leases",
    ),
    Scenario(
        "remedy-crash", run_remedy_crash, SITE,
        "SIGKILLed --remedy gateway converged to the uninterrupted run's "
        "digest; automated remedies replayed byte-identically",
    ),
    Scenario(
        "drain", run_drain, None,
        "SIGTERM drained cleanly (exit 0), the port went quiet, and the "
        "journal replays clean",
    ),
)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(run_suite("serve-chaos", SCENARIOS, prepare))
