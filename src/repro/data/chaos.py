"""Chaos smoke for the sharded dataset plane: verified storage, proven.

``make data-chaos`` (and the CI ``data-verify`` stage) attacks the store
write and read paths and asserts the registry's two contracts:

* **corruption is loud and named** — flip one byte (or truncate) any shard
  file of a verified store and ``repro data verify`` must fail with a typed
  :class:`~repro.errors.StoreCorruptionError` (CLI exit 2) whose message
  names the offending shard file;
* **materialisation is all-or-nothing** — SIGKILL a ``repro data
  materialize`` subprocess between shard writes (armed at the
  ``store.after_shard`` crash point in :mod:`repro.data.store.registry`)
  and the registry must show **no partial entry**: ``list``/``verify``
  never see the torso, ``prune`` sweeps the orphaned ``.tmp-*`` directory,
  and re-materialising the same name succeeds and verifies.

Plus the refcount drill: an entry leased by a live process survives
``prune`` until the lease is released (or ``--force``).

Run directly::

    PYTHONPATH=src python -m repro.data.chaos
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.crashpoint import CRASH_SIGKILL
from repro.data.store.registry import Registry
from repro.errors import InternalError, StoreCorruptionError
from repro.resilience.drill import Scenario, arm, exit_status, run, run_suite

ROWS = 20_000
SHARD_ROWS = 4_000
VICTIM_SHARD = 2
SITE = "store.after_shard"


def _data_cmd(*tail: str) -> list[str]:
    return [sys.executable, "-m", "repro", "data", *tail]


def _materialize(root: Path, name: str, armed: dict | None = None,
                 check: bool = True):
    return run(
        _data_cmd(
            "materialize", name, "--root", str(root),
            "--rows", str(ROWS), "--shard-rows", str(SHARD_ROWS),
        ),
        armed,
        check=check,
    )


# -- scenarios --------------------------------------------------------------------

def run_corruption(root: Path) -> None:
    """Flip one byte in a shard; verify must fail loudly, naming the shard."""
    _materialize(root, "flip")
    run(_data_cmd("verify", "flip", "--root", str(root)))

    victim = root / "flip" / f"shard-{VICTIM_SHARD:05d}" / "c0000.npy"
    blob = bytearray(victim.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    victim.write_bytes(bytes(blob))

    # CLI contract: exit 2, stderr names the shard file.
    proc = run(_data_cmd("verify", "flip", "--root", str(root)), check=False)
    stderr = proc.stderr.decode(errors="replace")
    if proc.returncode != 2:
        raise InternalError(
            f"verify of a bit-flipped shard exited {proc.returncode}, "
            f"expected 2; stderr: {stderr}"
        )
    needle = f"shard-{VICTIM_SHARD:05d}/c0000.npy"
    if needle not in stderr or "sha256 mismatch" not in stderr:
        raise InternalError(
            f"verify error does not name the corrupt shard {needle!r}: {stderr}"
        )

    # Typed contract: the in-process API raises StoreCorruptionError.
    try:
        Registry(root).verify("flip")
    except StoreCorruptionError as exc:
        if needle not in str(exc):
            raise InternalError(
                f"StoreCorruptionError does not name {needle!r}: {exc}"
            ) from exc
    else:
        raise InternalError(
            "Registry.verify accepted a bit-flipped shard file"
        )

    # Truncation is a distinct detector (size precedes hashing) — same story.
    victim.write_bytes(victim.read_bytes()[:-16])
    try:
        Registry(root).verify("flip")
    except StoreCorruptionError as exc:
        if needle not in str(exc):
            raise InternalError(
                f"truncation error does not name {needle!r}: {exc}"
            ) from exc
    else:
        raise InternalError("Registry.verify accepted a truncated shard file")
    run(_data_cmd("prune", "flip", "--root", str(root)))


def run_torn_materialize(root: Path) -> None:
    """SIGKILL materialize between shards; no partial entry may surface."""
    proc = _materialize(
        root, "torn", arm(SITE, VICTIM_SHARD, CRASH_SIGKILL), check=False
    )
    if proc.returncode != exit_status(CRASH_SIGKILL):
        raise InternalError(
            f"armed materialize exited {proc.returncode}, expected "
            f"{exit_status(CRASH_SIGKILL)} (SIGKILL)"
        )

    registry = Registry(root)
    if "torn" in registry.names():
        raise InternalError(
            "a SIGKILLed materialize left a partial entry visible in list()"
        )
    orphans = registry.tmp_dirs()
    if not orphans:
        raise InternalError(
            "the SIGKILLed materialize left no .tmp-* directory — the kill "
            "window was never entered"
        )
    # verify-all must not see the torso either.
    run(_data_cmd("verify", "--root", str(root)))

    swept = registry.prune()["swept"]
    if not swept:
        raise InternalError("prune failed to sweep the orphaned .tmp-* dir")
    if registry.tmp_dirs():
        raise InternalError("orphaned .tmp-* dirs survived prune")

    # The name is reusable: a clean re-materialize must succeed and verify.
    _materialize(root, "torn")
    report = Registry(root).verify("torn")
    if report["n_rows"] != ROWS:
        raise InternalError(
            f"re-materialized store has {report['n_rows']} rows, "
            f"expected {ROWS}"
        )
    run(_data_cmd("prune", "torn", "--root", str(root)))


def run_lease_protection(root: Path) -> None:
    """A live lease pins an entry against prune; releasing it unpins."""
    _materialize(root, "leased")
    registry = Registry(root)
    handle = registry.open("leased", lease=True)
    try:
        report = registry.prune(["leased"])
        if report["removed"] or "leased" not in report["kept"]:
            raise InternalError(
                f"prune deleted a leased entry: {report}"
            )
    finally:
        handle.close()
    report = registry.prune(["leased"])
    if report["removed"] != ["leased"]:
        raise InternalError(
            f"prune kept an unleased entry after close(): {report}"
        )


SCENARIOS = (
    Scenario(
        "corruption", run_corruption, None,
        "bit flip and truncation both failed verify with a typed error "
        "naming the corrupt shard file (CLI exit 2)",
    ),
    Scenario(
        "torn-materialize", run_torn_materialize, SITE,
        "SIGKILLed materialize left no partial entry; prune swept the "
        ".tmp-* orphan and the name re-materialized clean",
    ),
    Scenario(
        "lease-protection", run_lease_protection, None,
        "a live lease pinned its entry through prune; close() released it "
        "for deletion",
    ),
)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(
        run_suite("data-chaos", SCENARIOS, lambda tmp: tmp / "registry")
    )
