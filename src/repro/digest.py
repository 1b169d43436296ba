"""Canonical JSON and sha256: the one encoding behind every durable hash.

Journal chains and batch manifests, store schema and manifest digests,
the auditor's state digest, checkpoint run ids, trace ``config_hash``
values and the analyzer's cache keys are written to disk or compared
across processes, so each must stay byte-identical from one version to
the next; ``tests/test_digest_golden.py`` pins them.  This module is a
leaf (stdlib only) so any layer can import it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

_CHUNK_BYTES = 1 << 20


def canonical_json(obj: object) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace) for hashing."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(data: str | bytes) -> str:
    """Hex sha256 of ``data``; a string is hashed as its UTF-8 bytes."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def fingerprint(obj: object) -> str:
    """Stable 16-hex-digit fingerprint of a parameter mapping.

    Serialised as sorted-key JSON with the default separators, and values
    JSON cannot encode fall back to ``str``, so the same parameters always
    hash the same and key order never matters.
    """
    return sha256_hex(json.dumps(obj, sort_keys=True, default=str))[:16]


def file_sha256(path: str | Path) -> str:
    """Streaming sha256 of a file's bytes (never loads the file whole)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(_CHUNK_BYTES):
            digest.update(block)
    return digest.hexdigest()
