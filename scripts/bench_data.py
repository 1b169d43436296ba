"""Measure sharded vs in-memory ``region_counts`` cost and peak RSS.

For each ``rows`` scale the script materialises an Adult-like store with
:func:`repro.data.store.write_store` (chunked through
:func:`repro.data.store.synth_chunks`, so the parent never holds the full
table either), verifies it, then runs two **child subprocesses** so each
variant's peak RSS is attributed to exactly one measurement:

* ``sharded`` — opens the store with
  :class:`~repro.data.store.ShardedDataset` and reduces
  ``region_counts`` over the six protected attributes shard by shard;
* ``memory`` — calls ``to_dataset()`` first (the whole table lands in RAM,
  which is the point) and counts on the materialised
  :class:`~repro.data.dataset.Dataset`.

Each child reports wall seconds for the count, its process-lifetime peak
RSS (``resource.getrusage``), and a sha256 digest of the ``(pos, neg)``
count arrays — the parent refuses to write a record unless the sharded and
in-memory digests match, so the benchmark doubles as a full-scale parity
check.

Produced and gated by ``scripts/bench.py`` (workload ``data``).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SHARD_ROWS = 250_000
SEED = 5
GENERATOR = "adult"


def peak_rss_mb() -> float:
    """Process-lifetime peak resident set, in MiB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def counts_digest(pos, neg) -> str:
    """Order-stable fingerprint of a ``region_counts`` result pair."""
    digest = hashlib.sha256()
    digest.update(pos.tobytes())
    digest.update(neg.tobytes())
    return digest.hexdigest()


def run_child(mode: str, store: str, attrs: tuple[str, ...]) -> dict:
    """One measurement in its own process; returns the child's JSON record."""
    from repro.data.dataset import Dataset
    from repro.data.store import ShardedDataset

    sharded = ShardedDataset.open(store)
    if mode == "memory":
        table: Dataset | ShardedDataset = sharded.to_dataset()
    else:
        table = sharded
    start = time.perf_counter()
    pos, neg, shape = table.region_counts(attrs)
    seconds = time.perf_counter() - start
    return {
        "mode": mode,
        "rows": len(table),
        "seconds": round(seconds, 4),
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "n_regions": int(pos.size),
        "shape": list(shape),
        "digest": counts_digest(pos, neg),
    }


def measure(mode: str, store: Path, attrs: tuple[str, ...]) -> dict:
    """Run one variant in a child subprocess and parse its record."""
    argv = [
        sys.executable, str(Path(__file__).resolve()),
        mode, str(store), ",".join(attrs),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise SystemExit(
            f"error: {mode} child failed (exit {proc.returncode}): "
            f"{proc.stderr}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def bench_point(rows: int, workdir: Path) -> dict:
    """Materialise one scale, measure both variants, cross-check parity."""
    from repro.data.store import synth_chunks, verify_store, write_store
    from repro.data.synth.adult import PROTECTED, load_adult

    store = workdir / f"{GENERATOR}-{rows}"
    start = time.perf_counter()
    write_store(
        store,
        synth_chunks(load_adult, rows, SHARD_ROWS, SEED),
        SHARD_ROWS,
        source={"generator": GENERATOR, "rows": rows, "seed": SEED},
    )
    materialize_seconds = time.perf_counter() - start
    report = verify_store(store)
    print(
        f"  materialized {rows:,} rows in {report['n_shards']} shard(s) "
        f"({materialize_seconds:.1f}s, {report['bytes_checked'] / 2**20:,.0f} MiB)",
        flush=True,
    )

    sharded = measure("sharded", store, PROTECTED)
    print(
        f"  sharded:  {sharded['seconds']:.3f}s  "
        f"peak RSS {sharded['peak_rss_mb']:,.0f} MiB",
        flush=True,
    )
    memory = measure("memory", store, PROTECTED)
    print(
        f"  memory:   {memory['seconds']:.3f}s  "
        f"peak RSS {memory['peak_rss_mb']:,.0f} MiB",
        flush=True,
    )
    if sharded["digest"] != memory["digest"]:
        raise SystemExit(
            f"error: sharded and in-memory region counts diverge at "
            f"{rows:,} rows: {sharded['digest'][:16]}... vs "
            f"{memory['digest'][:16]}..."
        )
    return {
        "rows": rows,
        "n_shards": report["n_shards"],
        "store_mib": round(report["bytes_checked"] / 2**20, 1),
        "materialize_seconds": round(materialize_seconds, 3),
        "sharded_seconds": sharded["seconds"],
        "sharded_peak_rss_mb": sharded["peak_rss_mb"],
        "memory_seconds": memory["seconds"],
        "memory_peak_rss_mb": memory["peak_rss_mb"],
        "rss_ratio": round(memory["peak_rss_mb"] / sharded["peak_rss_mb"], 2),
        "digest": sharded["digest"],
    }


def run(rows: tuple[int, ...]) -> dict:
    """Measure every scale in ``rows``; returns the sharded-vs-memory record."""
    points = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-data-") as tmp:
        for scale in rows:
            print(f"rows={scale:,}:", flush=True)
            points.append(bench_point(scale, Path(tmp)))
    return {
        "generator": GENERATOR,
        "shard_rows": SHARD_ROWS,
        "attrs": 6,
        "cpu_count": os.cpu_count() or 1,
        "points": points,
    }


if __name__ == "__main__":
    # Child mode for ``measure``: MODE STORE ATTRS (comma-separated).
    mode, store, attrs = sys.argv[1:]
    print(json.dumps(run_child(mode, store, tuple(attrs.split(",")))))
