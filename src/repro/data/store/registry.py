"""Dataset registry: a cache directory of named, verified sharded stores.

The registry owns a root directory whose immediate children are store
directories (see :mod:`repro.data.store.format`).  It provides the four
``repro data`` CLI verbs:

* **materialize** — write a store from an in-memory dataset or a chunked
  synthetic generator, crash-safely: everything lands in a ``.tmp-*`` sibling
  first and is renamed into place only after the manifest (written last) is
  durable.  A process SIGKILLed mid-write leaves a ``.tmp-*`` orphan that
  ``list``/``verify`` never see and ``prune`` sweeps.
* **list** — enumerate entries with their manifests.
* **verify** — re-hash every shard file against the manifest; any mismatch
  raises :class:`~repro.errors.StoreCorruptionError` naming the shard file.
* **prune** — delete entries, refusing (without ``force``) any entry leased
  by a live process; always sweeps ``.tmp-*`` orphans and stale leases.

Leases are the refcount: ``Registry.open(name, lease=True)`` drops a pid
file under ``<entry>/.leases/`` which ``ShardedDataset.close()`` removes;
liveness is probed with ``os.kill(pid, 0)`` so leases from crashed processes
do not pin an entry forever.
"""

from __future__ import annotations

import os
import re
import shutil
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.crashpoint import crashpoint
from repro.data.dataset import Dataset
from repro.data.store.format import (
    LABELS_FILE,
    MANIFEST_NAME,
    build_manifest,
    column_file_name,
    file_sha256,
    read_manifest,
    save_array,
    shard_dir_name,
    write_manifest,
)
from repro.data.store.sharded import ShardedDataset, _require_shard_rows
from repro.errors import StoreCorruptionError, StoreError

TMP_PREFIX = ".tmp-"
LEASE_DIR = ".leases"
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

_lease_seq = 0


def default_root() -> Path:
    """Registry root: ``$REPRO_DATA_ROOT`` or ``~/.cache/repro/datasets``."""
    env = os.environ.get("REPRO_DATA_ROOT")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "datasets"


def iter_chunks(
    dataset: "Dataset | ShardedDataset", shard_rows: int
) -> Iterator[Dataset]:
    """Slice any dataset into materialisation chunks of ``shard_rows``."""
    _require_shard_rows(shard_rows)
    for start in range(0, dataset.n_rows, shard_rows):
        stop = min(start + shard_rows, dataset.n_rows)
        chunk = dataset.take(np.arange(start, stop, dtype=np.int64))
        if isinstance(chunk, ShardedDataset):
            chunk = chunk.to_dataset()
        yield chunk


def synth_chunks(
    generator: Callable[..., Dataset],
    total_rows: int,
    shard_rows: int,
    seed: int,
) -> Iterator[Dataset]:
    """Generate a large synthetic dataset one shard-sized chunk at a time.

    ``generator(n_rows=..., seed=...)`` is called once per shard with a
    distinct derived seed, so a 10⁷-row store never exists in memory as a
    whole — the dataset is *defined* shard-wise, which is exactly what makes
    it reproducible chunk by chunk.
    """
    _require_shard_rows(shard_rows)
    for i, start in enumerate(range(0, total_rows, shard_rows)):
        n = min(shard_rows, total_rows - start)
        yield generator(n_rows=n, seed=seed + i)


def write_store(
    path: str | Path,
    chunks: Iterable[Dataset],
    shard_rows: int,
    *,
    source: dict | None = None,
    overwrite: bool = False,
) -> dict:
    """Write a store directory at ``path`` from an iterable of chunk datasets.

    Each chunk becomes exactly one shard.  All chunks must share the first
    chunk's schema and protected set.  Returns the manifest.  The write is
    crash-safe: files land in a ``.tmp-*`` sibling, the manifest is written
    last, and the directory is renamed into place atomically.
    """
    _require_shard_rows(shard_rows)
    path = Path(path)
    if path.exists() and not overwrite:
        raise StoreError(f"store {path} already exists (use overwrite)")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"{TMP_PREFIX}{path.name}-{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()
    schema = None
    protected: tuple[str, ...] = ()
    entries: list[dict] = []
    start = 0
    for i, chunk in enumerate(chunks):
        if schema is None:
            schema, protected = chunk.schema, chunk.protected
        elif chunk.schema != schema or chunk.protected != protected:
            shutil.rmtree(tmp)
            raise StoreError(
                f"chunk {i} has a different schema/protected set than chunk 0"
            )
        shard_dir = tmp / shard_dir_name(i)
        shard_dir.mkdir()
        files: dict[str, dict] = {}
        for ci, name in enumerate(schema.names):
            fname = column_file_name(ci)
            fpath = shard_dir / fname
            save_array(fpath, chunk.column(name))
            files[fname] = {
                "sha256": file_sha256(fpath),
                "nbytes": fpath.stat().st_size,
            }
        ypath = shard_dir / LABELS_FILE
        save_array(ypath, chunk.y)
        files[LABELS_FILE] = {
            "sha256": file_sha256(ypath),
            "nbytes": ypath.stat().st_size,
        }
        entries.append(
            {
                "dir": shard_dir_name(i),
                "start": start,
                "stop": start + chunk.n_rows,
                "files": files,
            }
        )
        start += chunk.n_rows
        # Shard i is on disk, the manifest is not: a crash here must leave
        # only a .tmp-* orphan that list/verify never see.
        crashpoint("store.after_shard", i)
    if schema is None:
        shutil.rmtree(tmp)
        raise StoreError("cannot materialize a store from zero chunks")
    manifest = build_manifest(schema, protected, entries, shard_rows, source)
    write_manifest(tmp, manifest)
    if overwrite and path.exists():
        shutil.rmtree(path)
    os.rename(tmp, path)
    return manifest


def verify_store(path: str | Path) -> dict:
    """Re-hash every file of the store at ``path`` against its manifest.

    Returns ``{"path", "n_rows", "n_shards", "files_checked",
    "bytes_checked"}`` on success; raises
    :class:`~repro.errors.StoreCorruptionError` naming the first offending
    shard file (missing, wrong size, or sha256 mismatch).
    """
    path = Path(path)
    manifest = read_manifest(path)
    files_checked = 0
    bytes_checked = 0
    for entry in manifest["shards"]:
        shard_dir = path / entry["dir"]
        for fname, meta in entry["files"].items():
            fpath = shard_dir / fname
            label = f"{entry['dir']}/{fname}"
            if not fpath.is_file():
                raise StoreCorruptionError(
                    f"{path}: shard file {label} is missing"
                )
            size = fpath.stat().st_size
            if size != meta["nbytes"]:
                raise StoreCorruptionError(
                    f"{path}: shard file {label} has {size} bytes, "
                    f"manifest records {meta['nbytes']}"
                )
            digest = file_sha256(fpath)
            if digest != meta["sha256"]:
                raise StoreCorruptionError(
                    f"{path}: shard file {label} sha256 mismatch "
                    f"(manifest {meta['sha256'][:12]}..., file {digest[:12]}...)"
                )
            files_checked += 1
            bytes_checked += size
    return {
        "path": str(path),
        "n_rows": manifest["n_rows"],
        "n_shards": len(manifest["shards"]),
        "files_checked": files_checked,
        "bytes_checked": bytes_checked,
    }


class Registry:
    """A named cache of sharded dataset stores under one root directory."""

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_root()

    # -- naming ---------------------------------------------------------------
    def path_of(self, name: str) -> Path:
        """Filesystem path of entry ``name`` (validates the name)."""
        if not _NAME_RE.match(name):
            raise StoreError(
                f"invalid dataset name {name!r}: must match "
                f"{_NAME_RE.pattern}"
            )
        return self.root / name

    def names(self) -> list[str]:
        """Sorted names of complete entries (a manifest marks completeness)."""
        if not self.root.is_dir():
            return []
        return sorted(
            child.name
            for child in self.root.iterdir()
            if child.is_dir()
            and not child.name.startswith(".")
            and (child / MANIFEST_NAME).is_file()
        )

    def entries(self) -> list[tuple[str, dict]]:
        """``(name, manifest)`` for every complete entry."""
        return [(name, read_manifest(self.root / name)) for name in self.names()]

    def tmp_dirs(self) -> list[Path]:
        """Orphaned ``.tmp-*`` directories from interrupted materialisations."""
        if not self.root.is_dir():
            return []
        return sorted(
            child
            for child in self.root.iterdir()
            if child.is_dir() and child.name.startswith(TMP_PREFIX)
        )

    # -- materialise / open ---------------------------------------------------
    def materialize(
        self,
        name: str,
        dataset: "Dataset | ShardedDataset | None" = None,
        *,
        chunks: Iterable[Dataset] | None = None,
        shard_rows: int,
        source: dict | None = None,
        overwrite: bool = False,
    ) -> ShardedDataset:
        """Write entry ``name`` from ``dataset`` or a chunk iterator; open it.

        Exactly one of ``dataset``/``chunks`` must be given.
        """
        if (dataset is None) == (chunks is None):
            raise StoreError("materialize needs exactly one of dataset= or chunks=")
        if dataset is not None:
            chunks = iter_chunks(dataset, shard_rows)
        path = self.path_of(name)
        write_store(
            path, chunks, shard_rows, source=source, overwrite=overwrite
        )
        return ShardedDataset.open(path)

    def open(self, name: str, *, lease: bool = False) -> ShardedDataset:
        """Open entry ``name``; with ``lease=True`` the handle pins the entry
        against ``prune`` until ``close()`` (or the process dies)."""
        path = self.path_of(name)
        dataset = ShardedDataset.open(path)
        if lease:
            dataset._lease = self.acquire_lease(name)
        return dataset

    # -- verification ---------------------------------------------------------
    def verify(self, name: str) -> dict:
        """Verify one entry (see :func:`verify_store`); adds ``"name"``."""
        report = verify_store(self.path_of(name))
        report["name"] = name
        return report

    def verify_all(self) -> list[dict]:
        """Verify every entry, raising on the first corruption."""
        return [self.verify(name) for name in self.names()]

    # -- leases (refcounts) ---------------------------------------------------
    def acquire_lease(self, name: str) -> Path:
        """Create a pid lease file under the entry; returns its path."""
        global _lease_seq
        lease_dir = self.path_of(name) / LEASE_DIR
        lease_dir.mkdir(exist_ok=True)
        _lease_seq += 1
        lease = lease_dir / f"{os.getpid()}-{_lease_seq}.lease"
        lease.write_text(str(os.getpid()))
        return lease

    def leases(self, name: str) -> list[tuple[int, bool]]:
        """``(pid, alive)`` for each lease file on entry ``name``."""
        lease_dir = self.path_of(name) / LEASE_DIR
        if not lease_dir.is_dir():
            return []
        out = []
        for child in sorted(lease_dir.iterdir()):
            if not child.name.endswith(".lease"):
                continue
            try:
                pid = int(child.read_text().strip())
            except (OSError, ValueError):
                continue
            out.append((pid, _pid_alive(pid)))
        return out

    def live_leases(self, name: str) -> list[int]:
        """Pids of live processes currently leasing entry ``name``."""
        return [pid for pid, alive in self.leases(name) if alive]

    # -- prune ----------------------------------------------------------------
    def prune(
        self,
        names: Iterable[str] | None = None,
        *,
        force: bool = False,
        dry_run: bool = False,
    ) -> dict:
        """Delete entries (all by default) plus ``.tmp-*`` orphans.

        Entries leased by a live process are kept unless ``force``; stale
        lease files (dead pids) never pin an entry.  Returns
        ``{"removed": [...], "kept": {name: [pids]}, "swept": [...]}``.
        """
        targets = list(names) if names is not None else self.names()
        removed: list[str] = []
        kept: dict[str, list[int]] = {}
        for name in targets:
            path = self.path_of(name)
            if not (path / MANIFEST_NAME).is_file():
                raise StoreError(f"no dataset named {name!r} under {self.root}")
            live = self.live_leases(name)
            if live and not force:
                kept[name] = live
                continue
            if not dry_run:
                shutil.rmtree(path)
            removed.append(name)
        swept = []
        for tmp in self.tmp_dirs():
            if not dry_run:
                shutil.rmtree(tmp)
            swept.append(tmp.name)
        return {"removed": removed, "kept": kept, "swept": swept}


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe (signal 0; EPERM still means alive)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


__all__ = [
    "Registry",
    "default_root",
    "write_store",
    "verify_store",
    "iter_chunks",
    "synth_chunks",
    "TMP_PREFIX",
    "LEASE_DIR",
]
