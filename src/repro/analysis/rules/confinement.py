"""R008, R015, R016 — APIs confined to one package.

Some primitives are safe only behind the package built around them:

* **R008** — ``signal.alarm``/``setitimer``, ``os.fork``/``forkpty``,
  ``multiprocessing.Process`` and ``multiprocessing.shared_memory``
  belong to :mod:`repro.resilience`, whose pool and deadline helpers
  add crash classification, hard-kill deadlines, single-writer
  checkpointing and shared-memory refcounting;
* **R015** — raw memory-mapped loads, ``open_memmap`` and hand-built
  manifest paths belong to :mod:`repro.data.store`, whose readers refuse
  pickles, raise typed ``StoreError``\\ s and keep the sha256 ledger;
* **R016** — ``socket``, ``http.client``, ``http.server`` and
  ``urllib.request`` belong to :mod:`repro.serve`, whose client and
  gateway add typed transport errors, deterministic retries and
  verified fetches.

Each rule is one row: the home package as consecutive path parts, the
forbidden dotted targets with their sanctioned replacements, and
optionally calls that are forbidden only with a keyword
(``numpy.load(..., mmap_mode=...)``) and exact string literals
(``"manifest.json"``).  Outside the home package, every finding is
reported once:

* an import naming a forbidden target, or anything beneath one, is
  reported at the import, and the names it binds are not followed;
* every other import's bindings are resolved with
  :func:`~repro.analysis.project.import_bindings`, and a ``Name``/
  ``Attribute`` chain reaching exactly a forbidden target is reported
  there — in ``http.client.HTTPConnection`` only the inner
  ``http.client`` matches.
"""

from __future__ import annotations

import ast
from typing import Iterable, Mapping

from repro.analysis.engine import FileContext, Finding, Rule, SEVERITY_ERROR
from repro.analysis.project import _dotted, import_bindings, rebind
from repro.data.store import MANIFEST_NAME

#: Home of the raw process, signal and shared-memory primitives.
PROCESS_SUBPACKAGE = "resilience"

#: Home of raw shard and manifest I/O: ``.../data/store/...``.
STORE_PACKAGE_PARTS = ("data", "store")

#: Home of raw sockets and HTTP primitives.
SERVE_SUBPACKAGE = "serve"


class ConfinementRule(Rule):
    """Flag uses of a row's confined APIs outside its home package."""

    severity = SEVERITY_ERROR
    interests = (ast.Attribute, ast.Call, ast.Constant)
    #: consecutive path parts of the one package allowed the APIs.
    home: tuple[str, ...] = ()
    #: why the APIs are confined; shared by every message of the row.
    reason: str = ""
    #: forbidden dotted target -> sanctioned replacement.
    targets: Mapping[str, str] = {}
    #: (callee, keyword) -> replacement, for calls confined only with the keyword.
    keyword_calls: Mapping[tuple[str, str], str] = {}
    #: exact string literal -> replacement.
    literals: Mapping[str, str] = {}

    def begin_file(self, ctx: FileContext) -> None:
        """Report confined imports and bind every other import's names."""
        self._active = not ctx.in_package(*self.home)
        self._bindings: dict[str, str] = {}
        self._import_findings: list[Finding] = []
        if not self._active:
            return
        for binding in import_bindings(ctx.tree):
            replacement = self._confined(binding.imported)
            if replacement is None:
                self._bindings[binding.local] = binding.target
            else:
                self._import_findings.append(
                    self._flag(
                        ctx, binding.node, f"import of {binding.imported}", replacement
                    )
                )

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        if not self._active:
            return
        if isinstance(node, ast.Attribute):
            dotted = rebind(_dotted(node), self._bindings.get)
            if dotted in self.targets:
                yield self._flag(ctx, node, f"use of {dotted}", self.targets[dotted])
        elif isinstance(node, ast.Call):
            callee = rebind(_dotted(node.func), self._bindings.get)
            for kw in node.keywords:
                replacement = self.keyword_calls.get((callee, kw.arg))
                if replacement is not None:
                    yield self._flag(
                        ctx, node, f"{callee} with {kw.arg}", replacement
                    )
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            replacement = self.literals.get(node.value)
            if replacement is not None:
                yield self._flag(
                    ctx, node, f"hand-built {node.value!r} path", replacement
                )

    def end_file(self, ctx: FileContext) -> Iterable[Finding]:
        return self._import_findings

    def _confined(self, dotted: str) -> str | None:
        """The replacement for ``dotted`` if it is or lies beneath a target."""
        for target, replacement in self.targets.items():
            if dotted == target or dotted.startswith(target + "."):
                return replacement
        return None

    def _flag(
        self, ctx: FileContext, node: ast.AST, what: str, replacement: str
    ) -> Finding:
        home = ".".join(("repro", *self.home))
        return self.finding(
            ctx,
            node,
            f"{what} outside {home}; {self.reason} — use {replacement} instead",
        )


class ProcessPrimitiveRule(ConfinementRule):
    """Flag raw SIGALRM / fork / Process / shared memory outside ``repro.resilience``."""

    rule_id = "R008"
    description = (
        "process, signal, and shared-memory primitives (signal.alarm, "
        "os.fork, multiprocessing.Process, multiprocessing.shared_memory) "
        "are reserved for repro.resilience"
    )
    home = (PROCESS_SUBPACKAGE,)
    reason = (
        "raw process primitives bypass the pool's crash classification, "
        "hard-kill deadlines and shared-memory refcounting"
    )
    targets = {
        "signal.alarm": "repro.resilience.call_with_deadline",
        "signal.setitimer": "repro.resilience.call_with_deadline",
        "os.fork": "repro.resilience.WorkerPool",
        "os.forkpty": "repro.resilience.WorkerPool",
        "multiprocessing.Process": "repro.resilience.WorkerPool",
        "multiprocessing.shared_memory": (
            "repro.resilience.shm.publish_dataset / attach_dataset"
        ),
    }


class StoreIoRule(ConfinementRule):
    """Flag raw mmap loads and hand-rolled manifests outside the store."""

    rule_id = "R015"
    description = (
        "raw shard/manifest I/O (np.load with mmap_mode, open_memmap, "
        "hand-built manifest.json paths) is reserved for repro.data.store"
    )
    home = STORE_PACKAGE_PARTS
    reason = (
        "raw shard and manifest I/O skips the store's typed StoreError, "
        "format-version check and sha256 ledger"
    )
    targets = {
        "numpy.lib.format.open_memmap": "repro.data.store.format.load_array",
    }
    keyword_calls = {
        ("numpy.load", "mmap_mode"): "repro.data.store.format.load_array",
    }
    literals = {
        MANIFEST_NAME: "read_manifest / write_store / Registry from repro.data.store",
    }


class NetIoRule(ConfinementRule):
    """Flag raw socket/HTTP usage outside ``repro.serve``."""

    rule_id = "R016"
    description = (
        "network primitives (socket, http.client, http.server, "
        "urllib.request) are reserved for repro.serve — use GatewayClient "
        "and AuditGateway"
    )
    home = (SERVE_SUBPACKAGE,)
    reason = (
        "raw network I/O bypasses the typed transport errors, retry "
        "policy, and integrity checks"
    )
    targets = {
        "socket": "repro.serve.GatewayClient / AuditGateway",
        "http.client": "repro.serve.GatewayClient",
        "http.server": "repro.serve.AuditGateway",
        "urllib.request": "repro.serve.GatewayClient",
    }
