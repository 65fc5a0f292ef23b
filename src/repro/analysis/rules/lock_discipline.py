"""Lock-discipline rule: pool work never writes shard-shared state bare.

The thread-shared-state rule (PR 5) inspects a pool callable's *body*:
captured mutable attributes, closure rebinding, direct mutator calls.
What it deliberately does not see is a write hidden one call away --
``pool.map(lambda s: self._validate_shard(...), shards)`` is clean at
the dispatch site even if ``_validate_shard`` quietly updates a shared
slab.  This rule closes that hole with the typed call graph: starting
from every pool-dispatched callable it follows ``self``-rooted calls
(resolved through attribute types, subclass overrides included) and
flags any **write** to shard-shared accounting state reached that way:

* assignments/subscript writes through a ``self`` chain that contains a
  shared slab or overlay attribute (``_totals``, ``_live``, ``_mirror``,
  ``_shards``, ``_staged``, ...);
* known accounting mutators (``write_rows``, ``retire``, ``settle``,
  ...) called on a ``self``-rooted receiver.

A write is permitted when it is lexically inside ``with <lock>`` (any
context manager whose dotted name mentions ``lock``/``mutex``) or when
the dispatching method's name marks it as the serial commit phase
(``commit`` in the name): the sharded commit fan-out writes disjoint
per-shard slabs by construction and is ordered by the caller.

Receivers the type layer cannot ground in ``self`` (per-entry sessions
handed around as arguments) stay the purity rule's and the byte-parity
tests' business -- this rule is about the accountant's own state racing
its own pool.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.engine import Finding, Module, Project, Rule
from repro.analysis.astutil import MUTATOR_METHODS, attr_chain, call_name
from repro.analysis.rules.thread_shared import (
    MUTABLE_ATTRS,
    ThreadSharedStateRule,
)

__all__ = ["LockDisciplineRule"]

_SCOPE_PREFIX = "src/repro/core/"

# The shared slabs and overlays a worker thread must never write bare:
# the mutable overlay set from the thread-shared rule plus the packed
# ledger columns and the sharded mirror/shard stores themselves.
SHARED_WRITE_ATTRS = MUTABLE_ATTRS | frozenset(
    {"_totals", "_counts", "_live", "_size", "_mirror", "_shards", "_free"}
)

_MAX_DEPTH = 3


def _chain_mentions_shared(chain: Tuple[str, ...]) -> bool:
    return chain[:1] == ("self",) and any(
        part in SHARED_WRITE_ATTRS for part in chain[1:]
    )


def _is_lock_guard(item: ast.withitem) -> bool:
    chain = attr_chain(item.context_expr)
    if not chain and isinstance(item.context_expr, ast.Call):
        chain = attr_chain(item.context_expr.func)
    return any("lock" in part.lower() or "mutex" in part.lower() for part in chain)


def _guarded_lines(func: ast.AST) -> Set[int]:
    """Line numbers lexically under a ``with <lock>`` block."""
    lines: Set[int] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.With, ast.AsyncWith)) and any(
            _is_lock_guard(item) for item in node.items
        ):
            end = getattr(node, "end_lineno", node.lineno)
            lines.update(range(node.lineno, end + 1))
    return lines


class LockDisciplineRule(Rule):
    name = "lock-discipline"
    description = (
        "writes to shard-shared accounting state reached from pool "
        "callables must hold a lock or stay on the serial commit phase"
    )

    def applies(self, module: Module) -> bool:
        return module.relpath.startswith(_SCOPE_PREFIX)

    def check(self, module: Module, project: Project) -> Iterable[Finding]:
        callgraph = self._callgraph(project)
        for class_node in module.tree.body:
            if not isinstance(class_node, ast.ClassDef):
                continue
            for item in class_node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from self._check_dispatcher(
                        module, class_node.name, item, callgraph
                    )

    @staticmethod
    def _callgraph(project: Project) -> CallGraph:
        cache = getattr(project, "_lock_callgraph", None)
        if cache is None:
            scope = [m for m in project if m.relpath.startswith(_SCOPE_PREFIX)]
            cache = CallGraph(project, scope=scope)
            project._lock_callgraph = cache  # type: ignore[attr-defined]
        return cache

    # ------------------------------------------------------------------
    def _check_dispatcher(
        self,
        module: Module,
        class_name: str,
        func: ast.FunctionDef,
        callgraph: CallGraph,
    ) -> Iterable[Finding]:
        local_defs = ThreadSharedStateRule._local_defs(func)
        commit_phase = "commit" in func.name.lower()
        for call in ast.walk(func):
            if not isinstance(call, ast.Call):
                continue
            if not ThreadSharedStateRule._is_pool_dispatch(call):
                continue
            target = ThreadSharedStateRule._resolve_callable(call, local_defs)
            if target is None:
                continue
            kind = (
                "lambda"
                if isinstance(target, ast.Lambda)
                else f"{target.name}()"
            )
            writes: Dict[Tuple[int, int], Tuple[str, str, ast.AST]] = {}
            body = [target.body] if isinstance(target, ast.Lambda) else list(target.body)
            self._scan(
                body,
                class_name,
                callgraph,
                _MAX_DEPTH,
                writes,
                set(),
                module,
                anchor=target,
                origin=None,
            )
            for (_, _), (what, origin, anchor) in sorted(
                writes.items(), key=lambda kv: kv[0]
            ):
                if commit_phase:
                    continue
                via = f" (via {origin})" if origin else ""
                yield self.finding(
                    module,
                    anchor,
                    f"pool callable {kind} dispatched from {class_name}."
                    f"{func.name}() {what}{via} without holding a lock -- "
                    "wrap the write in `with <lock>` or keep it on the "
                    "serial commit phase",
                )

    # ------------------------------------------------------------------
    def _scan(
        self,
        body: List[ast.AST],
        owner_class: str,
        callgraph: CallGraph,
        depth: int,
        writes: Dict[Tuple[int, int], Tuple[str, str, ast.AST]],
        visited: Set[Tuple[str, str]],
        module: Module,
        anchor: ast.AST,
        origin: Optional[str],
    ) -> None:
        guarded: Set[int] = set()
        for top in body:
            guarded |= _guarded_lines(top)
        for top in body:
            for node in ast.walk(top):
                self._scan_node(
                    node, owner_class, callgraph, depth, writes, visited,
                    module, anchor, origin, guarded,
                )

    def _scan_node(
        self,
        node: ast.AST,
        owner_class: str,
        callgraph: CallGraph,
        depth: int,
        writes,
        visited,
        module: Module,
        anchor: ast.AST,
        origin: Optional[str],
        guarded: Set[int],
    ) -> None:
        lineno = getattr(node, "lineno", None)
        if lineno is not None and lineno in guarded:
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                probe = target
                suffix = ""
                if isinstance(probe, ast.Subscript):
                    probe = probe.value
                    suffix = "[...]"
                chain = tuple(attr_chain(probe))
                if _chain_mentions_shared(chain):
                    site = anchor if origin else node
                    writes.setdefault(
                        (getattr(site, "lineno", 1), getattr(site, "col_offset", 0)),
                        (
                            f"writes shared self.{'.'.join(chain[1:])}{suffix}",
                            origin or "",
                            site,
                        ),
                    )
        elif isinstance(node, ast.Call):
            callee = call_name(node)
            chain = tuple(attr_chain(node.func))
            if (
                callee in MUTATOR_METHODS
                and chain[:1] == ("self",)
            ):
                site = anchor if origin else node
                writes.setdefault(
                    (getattr(site, "lineno", 1), getattr(site, "col_offset", 0)),
                    (
                        f"calls mutator self.{'.'.join(chain[1:])}()",
                        origin or "",
                        site,
                    ),
                )
            elif chain[:1] == ("self",) and len(chain) == 2 and depth > 0:
                for ref in callgraph.resolve_call(node, owner_class):
                    if ref in visited:
                        continue
                    visited.add(ref)
                    defn = callgraph.method_def(ref)
                    if defn is None:
                        continue
                    _, callee_fn = defn
                    label = f"{ref[0]}.{ref[1]}" if ref[0] else ref[1]
                    self._scan(
                        list(callee_fn.body),
                        ref[0] or owner_class,
                        callgraph,
                        depth - 1,
                        writes,
                        visited,
                        module,
                        anchor=anchor if origin else node,
                        origin=origin or label,
                    )
