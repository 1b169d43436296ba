"""Run manifests: the machine-readable fingerprint of one run.

A :class:`RunManifest` records *what produced an artefact*: the command,
its full parameter set, a stable ``config_hash`` over those parameters,
the seed, the interpreter/library versions, and the run's metric totals
(from the ambient :class:`~repro.obs.trace.Tracer`, when one is active).
The CLI attaches a manifest to every ``--trace`` file (as the trailing
``manifest`` JSONL record) and writes a ``<artefact>.manifest.json``
sidecar next to every experiment checkpoint, so a result file can always
be traced back to the exact configuration that produced it.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.data.io import atomic_write_json
from repro.digest import fingerprint
from repro.errors import ObsError
from repro.obs.trace import Tracer

MANIFEST_VERSION = 1


def collect_versions() -> dict[str, str]:
    """Interpreter and numeric-stack versions pinned into every manifest."""
    import numpy
    import scipy

    import repro

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro": repro.__version__,
    }


@dataclass(frozen=True)
class RunManifest:
    """Provenance record attached to a run's artefacts."""

    command: str
    params: Mapping[str, object]
    config_hash: str
    seed: int | None
    versions: Mapping[str, str]
    metrics: Mapping[str, float] = field(default_factory=dict)
    n_spans: int = 0
    n_events: int = 0
    version: int = MANIFEST_VERSION

    def to_dict(self) -> dict:
        """The manifest as a JSON-ready dict."""
        return {
            "version": self.version,
            "command": self.command,
            "params": dict(self.params),
            "config_hash": self.config_hash,
            "seed": self.seed,
            "versions": dict(self.versions),
            "metrics": dict(self.metrics),
            "n_spans": self.n_spans,
            "n_events": self.n_events,
        }


def manifest_from_dict(payload: object) -> RunManifest:
    """Rebuild a :class:`RunManifest` from :meth:`RunManifest.to_dict`."""
    if not isinstance(payload, dict):
        raise ObsError(f"malformed manifest payload: {payload!r}")
    try:
        return RunManifest(
            command=str(payload["command"]),
            params=dict(payload["params"]),
            config_hash=str(payload["config_hash"]),
            seed=None if payload["seed"] is None else int(payload["seed"]),
            versions=dict(payload["versions"]),
            metrics=dict(payload.get("metrics", {})),
            n_spans=int(payload.get("n_spans", 0)),
            n_events=int(payload.get("n_events", 0)),
            version=int(payload.get("version", MANIFEST_VERSION)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ObsError(f"malformed manifest payload: {payload!r}") from exc


def build_manifest(
    command: str,
    params: Mapping[str, object],
    seed: int | None = None,
    tracer: Tracer | None = None,
) -> RunManifest:
    """Assemble a manifest for ``command`` run with ``params``.

    When ``tracer`` is given, its metric totals and span/event counts are
    folded in, so the manifest summarises what the run actually did — not
    just what it was asked to do.
    """
    return RunManifest(
        command=command,
        params=dict(params),
        config_hash=fingerprint(dict(params)),
        seed=seed,
        versions=collect_versions(),
        metrics=tracer.metric_totals() if tracer is not None else {},
        n_spans=len(tracer.spans) if tracer is not None else 0,
        n_events=len(tracer.events) if tracer is not None else 0,
    )


def write_manifest(manifest: RunManifest, path: str | Path) -> None:
    """Atomically write ``manifest`` as a standalone JSON sidecar."""
    atomic_write_json(path, manifest.to_dict())


def read_manifest(path: str | Path) -> RunManifest:
    """Read a sidecar written by :func:`write_manifest`."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ObsError(f"cannot read manifest {path}: {exc}") from exc
    return manifest_from_dict(payload)


def manifest_path_for(artifact: str | Path) -> Path:
    """Conventional sidecar location for an artefact's manifest."""
    artifact = Path(artifact)
    return artifact.with_name(artifact.name + ".manifest.json")
