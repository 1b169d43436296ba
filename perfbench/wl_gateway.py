"""gateway_mixed: an ``AuditGateway`` under mixed ingest and fetch load.

The gateway runs in its own spawned process (:func:`serve`).  It fronts a
stream on the 3-attribute, 12-cell schema of ``scripts/bench_serve.py`` and
a registry holding a 200,000-row Adult-like store.  Two client threads of
this process drive it in a closed loop, each sending its next request only
after the previous one returned:

* the producer POSTs 500-delta insert batches and times send -> ack;
* the reader runs ``fetch_dataset`` (client-side sha256 verify) into a
  fresh directory, then ``GET /health``.

In a traced run the gateway process patches the names the gateway imports
and the write path's entry points before it starts serving, and sends its
layer table back through a pipe once a SIGTERM drain has finished.
"""

from __future__ import annotations

import itertools
import os
import shutil
import signal
import threading
import time

import multiprocessing

import numpy as np

import repro.data.store.registry as registry_mod
import repro.serve.client as client_mod
import repro.serve.gateway as gateway_mod
from harness import Layers, NullLayers, Outcome
from repro.data.schema import Column, Schema
from repro.data.store import (
    Registry,
    manifest_digest,
    read_manifest,
    verify_store,
)
from repro.data.synth.adult import load_adult
from repro.errors import StoreError
from repro.serve.client import GatewayClient
from repro.serve.gateway import AuditGateway
from repro.stream.deltas import InsertDelta
from repro.stream.journal import StreamConfig
from repro.stream.service import StreamService
from wl_stream import patch_write_path

STORE_ROWS, STORE_SHARD_ROWS, BATCH = 200_000, 50_000, 500
SMOKE_STORE_ROWS, SMOKE_STORE_SHARD_ROWS, SMOKE_BATCH = 5_000, 2_500, 50
DATASET = "adult"
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0

_dirs = itertools.count()


def stream_config():
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


def serve(stream_dir: str, registry_root: str, traced: bool, conn) -> None:
    """Gateway process: serve until SIGTERM, then send the layer table."""
    layers = Layers() if traced else NullLayers()
    patch_write_path(layers)
    layers.patch(gateway_mod, "deltas_from_records", "stream.deltas.deltas_from_records")
    layers.patch(gateway_mod, "read_manifest", "data.store.read_manifest")
    layers.patch(StreamService, "submit", "stream.service.submit")
    layers.patch(StreamService, "drain", "stream.service.drain")
    service = StreamService.create(stream_dir, stream_config())
    gateway = AuditGateway(service, registry=Registry(registry_root))
    # run() installs this handler too; a SIGTERM that lands before it does
    # must still drain rather than kill.
    signal.signal(signal.SIGTERM, lambda *_: gateway.request_drain())
    conn.send(gateway.address)
    gateway.run()  # returns once a SIGTERM drain has closed the service
    conn.send(
        {"records": layers.records, "acked": gateway._acked, "shed": gateway._shed}
    )
    conn.close()


class State:
    def __init__(
        self, seed, traced, root, proc, conn, address, batch, store_bytes, digest
    ):
        self.seed = seed
        self.traced = traced
        self.root = root
        self.proc = proc
        self.conn = conn
        self.address = address
        self.batch = batch
        self.store_bytes = store_bytes
        self.digest = digest
        self.final: dict | None = None
        self.acks: list[float] = []
        self.responses: list[dict] = []
        self.fetches: list[tuple[float, str]] = []
        self.health: dict = {}
        self.retries = 0
        self.n_ops = 0
        self.n_failed = 0
        self.sent = 0
        self.errors: list[BaseException] = []


def setup(seed: int, workdir, smoke: bool, traced: bool) -> State:
    rows, shard_rows = (
        (SMOKE_STORE_ROWS, SMOKE_STORE_SHARD_ROWS) if smoke
        else (STORE_ROWS, STORE_SHARD_ROWS)
    )
    root = workdir / f"gateway-{next(_dirs)}"
    registry = Registry(root / "registry")
    store = registry.materialize(
        DATASET, load_adult(n_rows=rows, seed=seed), shard_rows=shard_rows
    )
    store_bytes = sum(
        meta["nbytes"] for shard in store.manifest["shards"]
        for meta in shard["files"].values()
    )
    ctx = multiprocessing.get_context("spawn")
    conn, child_conn = ctx.Pipe()
    proc = ctx.Process(
        target=serve,
        args=(str(root / "stream"), str(registry.root), traced, child_conn),
    )
    proc.start()
    child_conn.close()
    if not conn.poll(START_TIMEOUT_S):
        proc.kill()
        proc.join()
        raise RuntimeError("gateway process did not report its address")
    address = conn.recv()
    return State(
        seed, traced, root, proc, conn, address, SMOKE_BATCH if smoke else BATCH,
        store_bytes, manifest_digest(store.manifest),
    )


def _stop_server(state: State) -> None:
    """SIGTERM drain; collect the gateway's final table; reap the process."""
    if state.proc.exitcode is None and state.proc.pid is not None:
        os.kill(state.proc.pid, signal.SIGTERM)
        try:
            if state.conn.poll(STOP_TIMEOUT_S):
                state.final = state.conn.recv()
        except EOFError:
            pass  # died without a table; check() reports it on a traced run
        state.proc.join(STOP_TIMEOUT_S)
    if state.proc.is_alive():
        state.proc.kill()
        state.proc.join()
    state.conn.close()


def teardown(state: State) -> None:
    if state.proc.exitcode is None:
        _stop_server(state)
    shutil.rmtree(state.root, ignore_errors=True)


class CountingClient(GatewayClient):
    """Counts retried requests, so an operation that needed one shows as failed."""

    retries = 0

    def request(self, *args, **kwargs):
        self.retries -= 1  # the first attempt is not a retry
        return super().request(*args, **kwargs)

    def _request_once(self, *args, **kwargs):
        self.retries += 1
        return super()._request_once(*args, **kwargs)


def _batch(seed: int, b: int, n: int):
    rng = np.random.default_rng([seed, b])
    cells = np.stack(
        [rng.integers(0, 2, n), rng.integers(0, 3, n), rng.integers(0, 2, n)],
        axis=1,
    ).tolist()
    labels = rng.random(n) < np.where(np.asarray(cells)[:, 1] == 0, 0.75, 0.45)
    return [
        InsertDelta(values=tuple(cell), label=int(label))
        for cell, label in zip(cells, labels)
    ]


def measure(state: State, seconds: float, layers: Layers) -> Outcome:
    layers.patch(client_mod.GatewayClient, "fetch_dataset", "serve.client.fetch_dataset")
    layers.patch(client_mod, "file_sha256", "data.store.file_sha256")
    layers.patch(registry_mod, "file_sha256", "data.store.file_sha256")
    host, port = state.address
    stop = threading.Event()
    lock = threading.Lock()
    errors = state.errors

    def run_op(client, op):
        before = client.retries
        try:
            result = op()
        except Exception as exc:  # a failed operation; the check reports it
            with lock:
                errors.append(exc)
                state.n_ops += 1
                state.n_failed += 1
            return None
        retried = client.retries - before
        with lock:
            state.n_ops += 1
            state.retries += retried
            state.n_failed += retried > 0
        return result

    def producer():
        client = CountingClient(host, port)
        b = 0
        while not stop.is_set():
            deltas = _batch(state.seed, b, state.batch)
            batch_id = f"b{b:06d}"
            t0 = time.perf_counter()
            resp = run_op(client, lambda: client.ingest(batch_id, deltas))
            elapsed = time.perf_counter() - t0
            if resp is not None:
                state.acks.append(elapsed)
                state.responses.append(resp)
            b += 1
        state.sent = b

    def reader():
        client = CountingClient(host, port)
        i = 0
        while not stop.is_set():
            dest = state.root / f"fetch-{i}"
            t0 = time.perf_counter()
            path = run_op(client, lambda: client.fetch_dataset(DATASET, dest))
            elapsed = time.perf_counter() - t0
            if path is not None:
                state.fetches.append((elapsed, str(path)))
            run_op(client, client.health)
            i += 1

    threads = [threading.Thread(target=producer), threading.Thread(target=reader)]
    started = time.perf_counter()
    try:
        for t in threads:
            t.start()
        time.sleep(seconds)
        stop.set()
        for t in threads:
            t.join()
    finally:
        stop.set()
        layers.unpatch()
    window = time.perf_counter() - started
    state.health = CountingClient(host, port).health()
    _stop_server(state)

    acks = state.acks
    fetch_s = sum(s for s, _ in state.fetches)
    extras = [
        ("ingest_deltas_per_s", len(acks) * state.batch / sum(acks), "1/s",
         f"{len(acks)} acks of {state.batch} deltas"),
    ]
    if state.fetches:
        extras.append(
            ("fetch_mib_per_s",
             len(state.fetches) * state.store_bytes / fetch_s / 2**20, "MiB/s",
             f"{len(state.fetches)} verified fetches")
        )
    return Outcome(
        op_seconds=acks,
        work_units=len(acks) * state.batch,
        work_seconds=sum(acks),
        window_s=window,
        attempted=state.n_ops,
        failed=state.n_failed,
        op_name="ack_p50_ms",
        op_unit="ms",
        extras=extras,
    )


def check(state: State, outcome: Outcome) -> list[tuple[str, bool, str]]:
    stream = state.health.get("stream", {})
    sent = state.sent
    checks = [
        ("no operation raised", not state.errors, repr(state.errors[:3])),
        ("every batch acked once", len(state.responses) == sent
         and len({r["batch"] for r in state.responses}) == sent,
         f"{len(state.responses)} acks for {sent} batches"),
        ("server watermark == batches sent",
         stream.get("watermark") == sent and stream.get("n_batches") == sent,
         f"watermark {stream.get('watermark')}, {sent} sent"),
        ("server holds every delta sent",
         stream.get("n_alive") == sent * state.batch,
         f"{stream.get('n_alive')} rows"),
    ]
    if state.traced:
        checks.append(
            ("gateway sent its layer table after the drain",
             state.final is not None, f"exit code {state.proc.exitcode}")
        )
    bad = []
    for _, path in state.fetches:
        try:
            verify_store(path)
            if manifest_digest(read_manifest(path)) != state.digest:
                bad.append((path, "manifest digest differs"))
        except StoreError as exc:
            bad.append((path, repr(exc)))
    checks.append(
        ("every fetched copy verifies at the registry's digest",
         bool(state.fetches) and not bad,
         f"{len(state.fetches)} copies; {bad[:3]}")
    )
    return checks


def layer_metrics(state: State, outcome: Outcome, layers: Layers) -> dict:
    server = Layers()
    if state.final is not None:
        server.merge(state.final["records"])
    acks = max(len(state.acks), 1)
    fetches = max(len(state.fetches), 1)
    out = {
        f"{name}_s": server.seconds(name) / acks
        for name in (
            "stream.engine.validate_batch", "stream.journal.append_batch",
            "stream.engine.apply_batch", "core.hierarchy.apply_count_delta",
            "stream.monitor.observe", "core.ibs.region_report",
            "stream.deltas.deltas_from_records",
        )
    }
    out["core.ibs.region_report_calls"] = server.calls("core.ibs.region_report") / acks
    out["stream.rescore_share"] = (
        server.seconds("stream.engine.rescore") / outcome.work_seconds
    )
    journal = state.root / "stream"
    out["stream.journal.bytes_per_delta"] = sum(
        f.stat().st_size for f in journal.rglob("*") if f.is_file()
    ) / max(outcome.work_units, 1)
    server_side = sum(
        server.seconds(name)
        for name in ("stream.deltas.deltas_from_records",
                     "stream.service.submit", "stream.service.drain")
    )
    out["serve.http_overhead_ms"] = (
        (outcome.work_seconds - server_side) / acks * 1000.0
    )
    out["serve.client.retries"] = state.retries
    out["serve.shed"] = state.final["shed"] if state.final else state.health.get(
        "shed_requests", 0
    )
    out["data.store.read_manifest_s"] = server.seconds("data.store.read_manifest") / fetches
    out["data.store.read_manifest_calls"] = server.calls("data.store.read_manifest") / fetches
    out["serve.client.fetch_dataset_s"] = layers.seconds("serve.client.fetch_dataset") / fetches
    out["data.store.file_sha256_s"] = layers.seconds("data.store.file_sha256") / fetches
    out["bench.unattributed_share"] = (
        (outcome.work_seconds - server_side) / outcome.work_seconds
    )
    for name, rec in server.records.items():
        layers.add(f"{name} (gateway)", rec[1], calls=int(rec[0]), self_seconds=0.0)
    return out
