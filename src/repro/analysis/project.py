"""Whole-program project model: modules, symbols, imports, call graph.

The per-file engine (:mod:`repro.analysis.engine`) sees one file at a
time; this module parses every analysed file once into serialisable
:class:`ModuleFacts` (imports, module-level defs, per-function call
sites and primitive effects, ``register_cell`` registrations, cell-key
expressions, branch conditions) and assembles them into a
:class:`ProjectModel`:

* a **module graph** — project-internal import edges (top-level imports
  only; function-level imports are the sanctioned cycle-breaking idiom
  and never create an R013 edge);
* a **symbol table** — module-level functions/classes/bindings plus each
  package's ``__all__`` export surface, with re-export chasing so
  ``repro.core.identify_ibs`` resolves through ``core/__init__`` to the
  defining module;
* an approximate **call graph** — direct calls plus attribute calls
  resolved through the import bindings (``np.random.rand`` with
  ``import numpy as np`` resolves to ``numpy.random.rand``;
  ``obs.span`` with ``from repro.obs import trace as obs`` resolves to
  ``repro.obs.trace:span``).

Everything here is pure data extraction — no execution, deterministic
output regardless of input file ordering — and every ``ModuleFacts`` is
JSON round-trippable so the incremental cache
(:mod:`repro.analysis.cache`) can persist it per file hash.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from repro.analysis.engine import module_all, suppressed_rules_by_line

#: Pseudo-function id for statements executed at module import time.
MODULE_SCOPE = "<module>"

#: Marker inserted into qualnames of function-nested defs (mirrors runtime).
LOCALS_MARKER = "<locals>"

#: Methods whose call on a module-level binding counts as mutating it.
MUTATING_METHODS = frozenset(
    {
        "append", "add", "update", "setdefault", "pop", "clear", "extend",
        "insert", "remove", "discard", "popitem", "appendleft",
    }
)


@dataclass(frozen=True, order=True)
class CallSite:
    """One syntactic call (or reference) with its raw dotted name."""

    name: str
    line: int
    col: int

    def to_dict(self) -> dict:
        """Plain-JSON representation."""
        return {"name": self.name, "line": self.line, "col": self.col}

    @classmethod
    def from_dict(cls, d: Mapping) -> "CallSite":
        """Inverse of :meth:`to_dict`."""
        return cls(name=str(d["name"]), line=int(d["line"]), col=int(d["col"]))


@dataclass(frozen=True)
class ParamFacts:
    """One parameter of a function: name plus the shape of its default."""

    name: str
    #: "required" | "constant" | "name" | anything else = suspicious kind.
    default_kind: str
    line: int
    col: int

    def to_dict(self) -> dict:
        """Plain-JSON representation."""
        return {
            "name": self.name,
            "default_kind": self.default_kind,
            "line": self.line,
            "col": self.col,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "ParamFacts":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=str(d["name"]),
            default_kind=str(d["default_kind"]),
            line=int(d["line"]),
            col=int(d["col"]),
        )


@dataclass(frozen=True)
class FunctionFacts:
    """Per-function syntactic facts (nested-def bodies are folded in).

    ``calls`` covers the full subtree including nested defs, so taint
    propagation over-approximates: defining a nested helper is treated
    as (potentially) calling it.  Nested defs additionally appear as
    their own ``FunctionFacts`` (qualname containing ``<locals>``) so
    rules like R010 can see decorators on them.
    """

    qualname: str
    line: int
    col: int
    in_class: str | None = None
    is_nested: bool = False
    params: tuple[ParamFacts, ...] = ()
    calls: tuple[CallSite, ...] = ()
    global_writes: tuple[CallSite, ...] = ()
    branch_calls: tuple[CallSite, ...] = ()
    branch_names: tuple[CallSite, ...] = ()
    assigned_calls: tuple[tuple[str, str], ...] = ()
    decorators: tuple[CallSite, ...] = ()
    cell_ids: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """Plain-JSON representation."""
        return {
            "qualname": self.qualname,
            "line": self.line,
            "col": self.col,
            "in_class": self.in_class,
            "is_nested": self.is_nested,
            "params": [p.to_dict() for p in self.params],
            "calls": [c.to_dict() for c in self.calls],
            "global_writes": [c.to_dict() for c in self.global_writes],
            "branch_calls": [c.to_dict() for c in self.branch_calls],
            "branch_names": [c.to_dict() for c in self.branch_names],
            "assigned_calls": [list(pair) for pair in self.assigned_calls],
            "decorators": [c.to_dict() for c in self.decorators],
            "cell_ids": list(self.cell_ids),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "FunctionFacts":
        """Inverse of :meth:`to_dict`."""
        return cls(
            qualname=str(d["qualname"]),
            line=int(d["line"]),
            col=int(d["col"]),
            in_class=d.get("in_class"),
            is_nested=bool(d.get("is_nested", False)),
            params=tuple(ParamFacts.from_dict(p) for p in d.get("params", ())),
            calls=tuple(CallSite.from_dict(c) for c in d.get("calls", ())),
            global_writes=tuple(
                CallSite.from_dict(c) for c in d.get("global_writes", ())
            ),
            branch_calls=tuple(
                CallSite.from_dict(c) for c in d.get("branch_calls", ())
            ),
            branch_names=tuple(
                CallSite.from_dict(c) for c in d.get("branch_names", ())
            ),
            assigned_calls=tuple(
                (str(a), str(b)) for a, b in d.get("assigned_calls", ())
            ),
            decorators=tuple(
                CallSite.from_dict(c) for c in d.get("decorators", ())
            ),
            cell_ids=tuple(str(c) for c in d.get("cell_ids", ())),
        )


@dataclass(frozen=True)
class KeyExpr:
    """A checkpoint-key expression at a ``CellSpec``/``run_cell`` site."""

    line: int
    col: int
    calls: tuple[CallSite, ...] = ()

    def to_dict(self) -> dict:
        """Plain-JSON representation."""
        return {
            "line": self.line,
            "col": self.col,
            "calls": [c.to_dict() for c in self.calls],
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "KeyExpr":
        """Inverse of :meth:`to_dict`."""
        return cls(
            line=int(d["line"]),
            col=int(d["col"]),
            calls=tuple(CallSite.from_dict(c) for c in d.get("calls", ())),
        )


@dataclass(frozen=True)
class ModuleFacts:
    """Everything the whole-program passes need from one file."""

    path: str
    module: str
    sha256: str = ""
    is_package_init: bool = False
    #: local name -> absolute dotted target ("numpy.random", "repro.core.ibs.identify_ibs").
    bindings: tuple[tuple[str, str], ...] = ()
    #: raw dotted import targets at module top level, for R013 (name, line).
    import_lines: tuple[CallSite, ...] = ()
    functions: tuple[FunctionFacts, ...] = ()
    #: module-level binding names (defs, classes, assignments, imports).
    module_bindings: tuple[str, ...] = ()
    all_exports: tuple[str, ...] | None = None
    key_exprs: tuple[KeyExpr, ...] = ()
    #: every Name id / attribute name loaded anywhere in the module.
    refs: tuple[str, ...] = ()
    #: line -> suppressed rule ids (None = all), multi-line aware.
    suppressions: Mapping[int, frozenset[str] | None] = field(default_factory=dict)

    def binding(self, name: str) -> str | None:
        """The absolute dotted target bound to ``name``, if any."""
        for local, target in self.bindings:
            if local == name:
                return target
        return None

    def function_map(self) -> dict[str, FunctionFacts]:
        """Qualname -> facts for every function in the module."""
        return {fn.qualname: fn for fn in self.functions}

    def to_dict(self) -> dict:
        """Plain-JSON representation (cache payload)."""
        return {
            "path": self.path,
            "module": self.module,
            "sha256": self.sha256,
            "is_package_init": self.is_package_init,
            "bindings": [list(pair) for pair in self.bindings],
            "import_lines": [c.to_dict() for c in self.import_lines],
            "functions": [fn.to_dict() for fn in self.functions],
            "module_bindings": list(self.module_bindings),
            "all_exports": (
                list(self.all_exports) if self.all_exports is not None else None
            ),
            "key_exprs": [k.to_dict() for k in self.key_exprs],
            "refs": list(self.refs),
            "suppressions": {
                str(line): (sorted(ids) if ids is not None else None)
                for line, ids in sorted(self.suppressions.items())
            },
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "ModuleFacts":
        """Inverse of :meth:`to_dict`."""
        return cls(
            path=str(d["path"]),
            module=str(d["module"]),
            sha256=str(d.get("sha256", "")),
            is_package_init=bool(d.get("is_package_init", False)),
            bindings=tuple((str(a), str(b)) for a, b in d.get("bindings", ())),
            import_lines=tuple(
                CallSite.from_dict(c) for c in d.get("import_lines", ())
            ),
            functions=tuple(
                FunctionFacts.from_dict(fn) for fn in d.get("functions", ())
            ),
            module_bindings=tuple(str(n) for n in d.get("module_bindings", ())),
            all_exports=(
                tuple(str(n) for n in d["all_exports"])
                if d.get("all_exports") is not None
                else None
            ),
            key_exprs=tuple(KeyExpr.from_dict(k) for k in d.get("key_exprs", ())),
            refs=tuple(str(n) for n in d.get("refs", ())),
            suppressions={
                int(line): (frozenset(ids) if ids is not None else None)
                for line, ids in d.get("suppressions", {}).items()
            },
        )


# -- extraction --------------------------------------------------------------


def module_name_for(path: Path, roots: Sequence[Path]) -> str:
    """Dotted module name of ``path`` relative to the analysed roots.

    ``src/repro/core/ibs.py`` under root ``src/repro`` becomes
    ``repro.core.ibs``; a package ``__init__.py`` maps to its package.
    Files outside every root fall back to their stem.
    """
    resolved = path.resolve()
    for root in roots:
        root = Path(root).resolve()
        base = root if root.is_dir() else root.parent
        try:
            rel = resolved.relative_to(base.parent)
        except ValueError:
            continue
        parts = list(rel.with_suffix("").parts)
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)
    return path.stem


def _dotted(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _scope_nodes(root_body: Sequence[ast.stmt]) -> list[ast.AST]:
    """All nodes in ``root_body`` excluding nested function/class subtrees."""
    out: list[ast.AST] = []
    stack: list[ast.AST] = [
        n
        for n in root_body
        if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    while stack:
        node = stack.pop()
        out.append(node)
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            stack.append(child)
    return out


def _resolve_relative(module: str, is_init: bool, level: int, target: str | None) -> str:
    """Absolutise ``from ...target import x`` relative to ``module``."""
    parts = module.split(".")
    if not is_init:
        parts = parts[:-1]
    if level > 1:
        parts = parts[: len(parts) - (level - 1)]
    base = ".".join(parts)
    if target:
        return f"{base}.{target}" if base else target
    return base


def rebind(dotted: str | None, binding: Callable[[str], str | None]) -> str | None:
    """Absolutise ``dotted`` by replacing its head with what the head binds.

    ``np.random.rand`` with ``binding("np") == "numpy"`` becomes
    ``numpy.random.rand``.  None when ``dotted`` is None or its head is
    unbound (a builtin, a local, an attribute of a call result).
    """
    if dotted is None:
        return None
    head, _, tail = dotted.partition(".")
    target = binding(head)
    if target is None:
        return None
    return f"{target}.{tail}" if tail else target


class ImportBinding(NamedTuple):
    """One name bound by an import statement."""

    node: ast.Import | ast.ImportFrom
    #: the name bound in the importing module.
    local: str
    #: the absolute dotted path that name refers to.
    target: str
    #: the module or member the statement imports.
    imported: str


def import_bindings(
    tree: ast.AST, module: str | None = None, is_init: bool = False
) -> Iterator[ImportBinding]:
    """Every name any import in ``tree`` binds, with Python's semantics.

    ``import a.b`` binds ``a`` (to ``a``), ``import a.b as x`` binds ``x``
    to ``a.b``, and ``from a import b as c`` binds ``c`` to ``a.b``.
    Relative imports are absolutised against ``module`` when it is given
    and skipped otherwise; star imports bind nothing nameable.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    yield ImportBinding(node, alias.asname, alias.name, alias.name)
                else:
                    head = alias.name.split(".")[0]
                    yield ImportBinding(node, head, head, alias.name)
        elif isinstance(node, ast.ImportFrom):
            if not node.level:
                base = node.module or ""
            elif module is not None:
                base = _resolve_relative(module, is_init, node.level, node.module)
            else:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = f"{base}.{alias.name}" if base else alias.name
                yield ImportBinding(node, alias.asname or alias.name, target, target)


def _default_kind(node: ast.AST | None) -> str:
    """Classify a parameter default for R010's picklability check."""
    if node is None:
        return "required"
    if isinstance(node, ast.Constant):
        return "constant"
    if isinstance(node, (ast.Tuple, ast.List)) and all(
        isinstance(e, ast.Constant) for e in node.elts
    ):
        return "constant"
    if isinstance(node, (ast.Name, ast.Attribute)):
        return "name"
    if isinstance(node, ast.Lambda):
        return "lambda"
    return type(node).__name__.lower()


def _param_facts(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[ParamFacts, ...]:
    args = fn.args
    positional = list(args.posonlyargs) + list(args.args)
    defaults: list[ast.AST | None] = [None] * (
        len(positional) - len(args.defaults)
    ) + list(args.defaults)
    out = []
    for arg, default in zip(positional, defaults):
        out.append(
            ParamFacts(arg.arg, _default_kind(default), arg.lineno, arg.col_offset)
        )
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        out.append(
            ParamFacts(arg.arg, _default_kind(default), arg.lineno, arg.col_offset)
        )
    return tuple(out)


def _site(name: str, node: ast.AST) -> CallSite:
    return CallSite(
        name, int(getattr(node, "lineno", 1)), int(getattr(node, "col_offset", 0)) + 1
    )


def _collect_calls(nodes: Iterable[ast.AST]) -> list[CallSite]:
    out = []
    for node in nodes:
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name is not None:
                out.append(_site(name, node))
    return out


def _branch_tests(nodes: Iterable[ast.AST]) -> list[ast.AST]:
    tests = []
    for node in nodes:
        if isinstance(node, (ast.If, ast.While, ast.IfExp)):
            tests.append(node.test)
        elif isinstance(node, ast.Assert):
            tests.append(node.test)
    return tests


def _function_facts(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    qualname: str,
    in_class: str | None,
    is_nested: bool,
    module_bindings: frozenset[str],
) -> FunctionFacts:
    """Extract one function's facts; nested-def bodies are folded in."""
    # Runtime facts come from the *body* only: decorators and default
    # expressions execute at def time (module import), not when the
    # function is called, so folding them in would taint every decorated
    # function with its decorator's side effects (e.g. register_cell
    # writing the registry).
    subtree = [n for stmt in fn.body for n in ast.walk(stmt)]
    calls = _collect_calls(subtree)

    # Local names: anything stored to, minus names declared global.
    global_names: set[str] = set()
    for node in subtree:
        if isinstance(node, ast.Global):
            global_names.update(node.names)
    store_names = {
        n.id
        for n in subtree
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
    }
    local_names = (
        store_names | {p.arg for p in fn.args.args}
        | {p.arg for p in fn.args.posonlyargs}
        | {p.arg for p in fn.args.kwonlyargs}
    ) - global_names

    global_writes: list[CallSite] = []
    for node in subtree:
        if isinstance(node, ast.Global):
            for name in node.names:
                global_writes.append(_site(name, node))
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                base = target
                while isinstance(base, (ast.Subscript, ast.Attribute)):
                    base = base.value
                if (
                    isinstance(base, ast.Name)
                    and base is not target
                    and base.id in module_bindings
                    and base.id not in local_names
                ):
                    global_writes.append(_site(base.id, node))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            base = node.func.value
            if (
                isinstance(base, ast.Name)
                and node.func.attr in MUTATING_METHODS
                and base.id in module_bindings
                and base.id not in local_names
            ):
                global_writes.append(_site(base.id, node))

    assigned_calls: list[tuple[str, str]] = []
    for node in subtree:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
        ):
            name = _dotted(node.value.func)
            if name is not None:
                assigned_calls.append((node.targets[0].id, name))
    assigned_names = {local for local, _ in assigned_calls}

    branch_calls: list[CallSite] = []
    branch_names: list[CallSite] = []
    for test in _branch_tests(subtree):
        for node in ast.walk(test):
            if isinstance(node, ast.Call):
                name = _dotted(node.func)
                if name is not None:
                    branch_calls.append(_site(name, node))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in assigned_names:
                    branch_names.append(_site(node.id, node))

    decorators: list[CallSite] = []
    cell_ids: list[str] = []
    for dec in fn.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = _dotted(target)
        if name is None:
            continue
        decorators.append(_site(name, dec))
        if (name == "register_cell" or name.endswith(".register_cell")) and isinstance(
            dec, ast.Call
        ):
            if dec.args and isinstance(dec.args[0], ast.Constant) and isinstance(
                dec.args[0].value, str
            ):
                cell_ids.append(dec.args[0].value)

    return FunctionFacts(
        qualname=qualname,
        line=fn.lineno,
        col=fn.col_offset + 1,
        in_class=in_class,
        is_nested=is_nested,
        params=_param_facts(fn),
        calls=tuple(sorted(calls)),
        global_writes=tuple(sorted(global_writes)),
        branch_calls=tuple(sorted(branch_calls)),
        branch_names=tuple(sorted(branch_names)),
        assigned_calls=tuple(sorted(set(assigned_calls))),
        decorators=tuple(decorators),
        cell_ids=tuple(cell_ids),
    )


def _collect_functions(
    body: Sequence[ast.stmt],
    prefix: str,
    in_class: str | None,
    is_nested: bool,
    module_bindings: frozenset[str],
    out: list[FunctionFacts],
) -> None:
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{prefix}{stmt.name}"
            out.append(
                _function_facts(stmt, qualname, in_class, is_nested, module_bindings)
            )
            _collect_functions(
                stmt.body,
                f"{qualname}.{LOCALS_MARKER}.",
                None,
                True,
                module_bindings,
                out,
            )
        elif isinstance(stmt, ast.ClassDef):
            _collect_functions(
                stmt.body,
                f"{prefix}{stmt.name}.",
                f"{prefix}{stmt.name}",
                is_nested,
                module_bindings,
                out,
            )


def extract_module_facts(
    source: str,
    tree: ast.Module,
    path: str,
    module: str,
    sha256: str = "",
) -> ModuleFacts:
    """Extract one module's :class:`ModuleFacts` from its parsed tree."""
    is_init = Path(path).name == "__init__.py"

    bindings = [(b.local, b.target) for b in import_bindings(tree, module, is_init)]
    import_lines: list[CallSite] = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                import_lines.append(_site(alias.name, stmt))
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.level:
                target = _resolve_relative(module, is_init, stmt.level, stmt.module)
            else:
                target = stmt.module or ""
            if target:
                import_lines.append(_site(target, stmt))
                # `from pkg import sub` may import a submodule: add an edge
                # candidate per name so cycles through packages are seen.
                for alias in stmt.names:
                    if alias.name != "*":
                        import_lines.append(_site(f"{target}.{alias.name}", stmt))

    module_binding_names: set[str] = {local for local, _ in bindings}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            module_binding_names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    module_binding_names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            module_binding_names.add(stmt.target.id)
    frozen_bindings = frozenset(module_binding_names)

    functions: list[FunctionFacts] = []
    _collect_functions(tree.body, "", None, False, frozen_bindings, functions)

    # Module-level pseudo-function: calls and branches outside any def/class.
    scope = _scope_nodes(tree.body)
    module_calls = _collect_calls(scope)
    module_branch_calls: list[CallSite] = []
    for test in _branch_tests(scope):
        for node in ast.walk(test):
            if isinstance(node, ast.Call):
                name = _dotted(node.func)
                if name is not None:
                    module_branch_calls.append(_site(name, node))
    functions.append(
        FunctionFacts(
            qualname=MODULE_SCOPE,
            line=1,
            col=1,
            calls=tuple(sorted(module_calls)),
            branch_calls=tuple(sorted(module_branch_calls)),
        )
    )

    key_exprs: list[KeyExpr] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if name is None:
            continue
        last = name.split(".")[-1]
        if last not in ("CellSpec", "run_cell"):
            continue
        key_node: ast.AST | None = None
        for kw in node.keywords:
            if kw.arg == "key":
                key_node = kw.value
        if key_node is None and node.args:
            key_node = node.args[0]
        if key_node is None:
            continue
        key_calls = _collect_calls(ast.walk(key_node))
        key_exprs.append(
            KeyExpr(
                line=int(getattr(key_node, "lineno", node.lineno)),
                col=int(getattr(key_node, "col_offset", node.col_offset)) + 1,
                calls=tuple(sorted(key_calls)),
            )
        )

    refs: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                refs.add(alias.asname or alias.name.split(".")[0])
                if isinstance(node, ast.ImportFrom) and alias.name != "*":
                    refs.add(alias.name)

    exports = module_all(tree)
    return ModuleFacts(
        path=path,
        module=module,
        sha256=sha256,
        is_package_init=is_init,
        bindings=tuple(sorted(set(bindings))),
        import_lines=tuple(sorted(set(import_lines))),
        functions=tuple(sorted(functions, key=lambda f: (f.qualname,))),
        module_bindings=tuple(sorted(module_binding_names)),
        all_exports=tuple(exports) if exports is not None else None,
        key_exprs=tuple(sorted(key_exprs, key=lambda k: (k.line, k.col))),
        refs=tuple(sorted(refs)),
        suppressions=suppressed_rules_by_line(source, tree),
    )


# -- the assembled model -----------------------------------------------------


EXTERNAL = "external"
FUNCTION = "function"
MODULE = "module"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class ResolvedFunction:
    """One project function with its calls resolved against the model."""

    fn_id: str  # "module:qualname"
    module: str
    facts: FunctionFacts
    #: internal callees as (fn_id, call site in *this* function's file).
    internal_calls: tuple[tuple[str, CallSite], ...]
    #: external callees as (absolute dotted name, call site).
    external_calls: tuple[tuple[str, CallSite], ...]


class ProjectModel:
    """Module graph + symbol table + approximate call graph."""

    def __init__(
        self,
        modules: Mapping[str, ModuleFacts],
        external_refs: frozenset[str] = frozenset(),
    ) -> None:
        self.modules: dict[str, ModuleFacts] = dict(sorted(modules.items()))
        self.by_path: dict[str, ModuleFacts] = {
            facts.path: facts for facts in self.modules.values()
        }
        self.external_refs = external_refs
        self._symbol_cache: dict[str, tuple[str, str]] = {}
        self.functions: dict[str, ResolvedFunction] = {}
        self._resolve_all()
        self.module_graph: dict[str, tuple[str, ...]] = self._build_module_graph()

    @classmethod
    def build(
        cls,
        facts: Iterable[ModuleFacts],
        external_refs: frozenset[str] = frozenset(),
    ) -> "ProjectModel":
        """Assemble a model from per-file facts (any iteration order)."""
        return cls({f.module: f for f in facts}, external_refs=external_refs)

    # -- symbol resolution ---------------------------------------------------

    def _module_prefix(self, dotted: str) -> str | None:
        """Longest project-module prefix of ``dotted``."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in self.modules:
                return candidate
        return None

    def resolve_symbol(self, dotted: str, _seen: frozenset[str] = frozenset()) -> tuple[str, str]:
        """Resolve an absolute dotted name to its defining project symbol.

        Returns ``(kind, target)`` where kind is ``function`` (target is a
        ``module:qualname`` id), ``module``, ``external`` (not a project
        name), or ``unknown`` (project module but unresolvable symbol).
        Re-exports are chased through package ``__init__`` bindings.
        """
        if dotted in self._symbol_cache:
            return self._symbol_cache[dotted]
        if dotted in _seen:
            return (UNKNOWN, dotted)
        result = self._resolve_symbol_uncached(dotted, _seen | {dotted})
        self._symbol_cache[dotted] = result
        return result

    def _resolve_symbol_uncached(
        self, dotted: str, seen: frozenset[str]
    ) -> tuple[str, str]:
        prefix = self._module_prefix(dotted)
        if prefix is None:
            return (EXTERNAL, dotted)
        rest = dotted[len(prefix) :].lstrip(".")
        if not rest:
            return (MODULE, prefix)
        mod = self.modules[prefix]
        fn_map = mod.function_map()
        if rest in fn_map:
            return (FUNCTION, f"{prefix}:{rest}")
        chained = rebind(rest, mod.binding)
        if chained is not None and chained not in seen:
            return self.resolve_symbol(chained, seen)
        return (UNKNOWN, dotted)

    def resolve_call(self, mod: ModuleFacts, fn: FunctionFacts, site: CallSite) -> tuple[str, str]:
        """Resolve one raw call site inside ``fn`` to ``(kind, target)``."""
        parts = site.name.split(".")
        head = parts[0]
        if head == "self" and fn.in_class is not None and len(parts) > 1:
            qualname = f"{fn.in_class}.{parts[1]}"
            if qualname in mod.function_map():
                return (FUNCTION, f"{mod.module}:{qualname}")
            return (UNKNOWN, site.name)
        absolute = rebind(site.name, mod.binding)
        if absolute is not None:
            return self.resolve_symbol(absolute)
        if len(parts) == 1 and head in mod.function_map():
            return (FUNCTION, f"{mod.module}:{head}")
        # Unbound head: a builtin (id, hash, open) or a local variable.
        return (EXTERNAL, site.name)

    # -- call graph ----------------------------------------------------------

    def _resolve_all(self) -> None:
        for module_name in sorted(self.modules):
            mod = self.modules[module_name]
            for fn in mod.functions:
                fn_id = f"{module_name}:{fn.qualname}"
                internal: list[tuple[str, CallSite]] = []
                external: list[tuple[str, CallSite]] = []
                for site in fn.calls:
                    kind, target = self.resolve_call(mod, fn, site)
                    if kind == FUNCTION:
                        internal.append((target, site))
                    elif kind == EXTERNAL:
                        external.append((target, site))
                self.functions[fn_id] = ResolvedFunction(
                    fn_id=fn_id,
                    module=module_name,
                    facts=fn,
                    internal_calls=tuple(sorted(internal)),
                    external_calls=tuple(sorted(external)),
                )

    def _build_module_graph(self) -> dict[str, tuple[str, ...]]:
        graph: dict[str, tuple[str, ...]] = {}
        for module_name in sorted(self.modules):
            mod = self.modules[module_name]
            edges: set[str] = set()
            for site in mod.import_lines:
                prefix = self._module_prefix(site.name)
                if prefix is not None and prefix != module_name:
                    edges.add(prefix)
            graph[module_name] = tuple(sorted(edges))
        return graph

    def import_site(self, module: str, target: str) -> CallSite | None:
        """The top-level import statement in ``module`` reaching ``target``."""
        mod = self.modules[module]
        for site in mod.import_lines:
            prefix = self._module_prefix(site.name)
            if prefix == target:
                return site
        return None

    # -- export surface ------------------------------------------------------

    def exported_symbols(self) -> list[tuple[str, str, str, str]]:
        """Every ``__all__`` export: (package module, name, kind, target)."""
        out = []
        for module_name in sorted(self.modules):
            mod = self.modules[module_name]
            if mod.all_exports is None:
                continue
            for name in mod.all_exports:
                kind, target = self.resolve_symbol(f"{module_name}.{name}")
                out.append((module_name, name, kind, target))
        return out

    def suppressions_for(self, path: str) -> Mapping[int, frozenset[str] | None]:
        """The (multi-line aware) suppression map of one analysed file."""
        facts = self.by_path.get(path)
        return facts.suppressions if facts is not None else {}
