"""Thread-shared-state rule: pool callables close over nothing mutable.

The sharded accountant's phase-one validation and commit fan work out
over a ``ThreadPoolExecutor`` with an explicit contract: submitted
callables may only close over their arguments and documented-immutable
state.  A closure that captures
a mutable accountant attribute -- the staged overlay (and the admit cache
it owns), the charge log -- turns "deterministic regardless of
scheduling" into a data race that no single-threaded test can catch.

For every ``pool.map(f, ...)`` / ``pool.submit(f, ...)`` call in
``src/repro/`` (receivers whose name contains ``pool`` or ``executor``),
this rule resolves ``f`` when it is a lambda or a local ``def`` in the
same enclosing function and flags, inside its body:

* reads of known-mutable accountant/platform attributes
  (``self._staged``, ``self._charges``, ``self._dead``,
  ``self._row_cache``, ``self._ledgers``,
  ``self._pipelines``, ``self._table``, ``self.last_hour_*``);
* assignments through captured names (attribute/subscript writes whose
  root is not bound inside the callable) and ``nonlocal``/``global``
  declarations;
* calls to the known accounting mutators (``record``, ``stage_charge``,
  ``settle``, ...) -- pool work validates and reads; commits stay on the
  serial path.

The rule inspects one level (the callable body itself, not its whole
transitive call tree); deeper purity is the purity rule's and the
byte-parity property tests' job.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from repro.analysis.engine import Finding, Module, Project, Rule
from repro.analysis.astutil import (
    MUTATOR_METHODS,
    attr_root,
    call_name,
)

__all__ = ["ThreadSharedStateRule"]

_SCOPE_PREFIX = "src/repro/"

# Accountant/platform attributes documented as mutable across an hour --
# the overlay (with its admit cache), logs, diagnostics, reservation
# state.  Reading these from a pool thread races with the serial drive.
MUTABLE_ATTRS = frozenset(
    {
        "_staged",
        "_charges",
        "_dead",
        "_row_cache",
        "_ledgers",
        "_pipelines",
        "_table",
        # Registry-backed drive counters (PR 9): the properties read the
        # metrics registry's plain dicts, which the serial drive updates
        # mid-hour -- as racy from a pool thread as the old attributes.
        "last_hour_charges",
        # Telemetry state itself: the tracer's span stack / clock and the
        # registry's dicts are serial-drive-only (the determinism contract
        # in repro.obs forbids emission from worker threads).
        "_telemetry",
        "_tracer",
        "_metrics",
        "_hour_mark",
    }
)


class ThreadSharedStateRule(Rule):
    name = "thread-shared-state"
    description = (
        "callables submitted to thread pools may only close over arguments "
        "and documented-immutable state"
    )

    def applies(self, module: Module) -> bool:
        return module.relpath.startswith(_SCOPE_PREFIX)

    def check(self, module: Module, project: Project) -> Iterable[Finding]:
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local_defs = self._local_defs(func)
            for call in ast.walk(func):
                if not isinstance(call, ast.Call) or not self._is_pool_dispatch(call):
                    continue
                target = self._resolve_callable(call, local_defs)
                if target is None:
                    continue
                yield from self._check_callable(module, func.name, target)

    # ------------------------------------------------------------------
    @staticmethod
    def _is_pool_dispatch(call: ast.Call) -> bool:
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr in ("map", "submit")):
            return False
        root = attr_root(func.value)
        chain = root.lower() if root else ""
        if isinstance(func.value, ast.Attribute):
            chain += "." + func.value.attr.lower()
        return "pool" in chain or "executor" in chain

    @staticmethod
    def _local_defs(func: ast.AST) -> Dict[str, ast.FunctionDef]:
        defs: Dict[str, ast.FunctionDef] = {}
        for node in ast.walk(func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func:
                defs[node.name] = node
        return defs

    @staticmethod
    def _resolve_callable(
        call: ast.Call, local_defs: Dict[str, ast.FunctionDef]
    ) -> Optional[ast.AST]:
        if not call.args:
            return None
        arg = call.args[0]
        if isinstance(arg, ast.Lambda):
            return arg
        if isinstance(arg, ast.Name):
            return local_defs.get(arg.id)
        return None

    # ------------------------------------------------------------------
    def _check_callable(
        self, module: Module, dispatcher: str, target: ast.AST
    ) -> Iterable[Finding]:
        bound = self._bound_names(target)
        body = target.body if isinstance(target, ast.Lambda) else target
        kind = "lambda" if isinstance(target, ast.Lambda) else f"{target.name}()"
        for node in ast.walk(body if isinstance(body, ast.AST) else target):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                # The attribute name itself is the signal: these names are
                # only ever mutable accountant/platform state, whatever
                # local name the owner is bound to.
                if node.attr in MUTABLE_ATTRS:
                    yield self.finding(
                        module,
                        node,
                        f"pool callable {kind} in {dispatcher}() reads mutable "
                        f"shared attribute `.{node.attr}`",
                    )
            elif isinstance(node, (ast.Nonlocal, ast.Global)):
                names = ", ".join(node.names)
                yield self.finding(
                    module,
                    node,
                    f"pool callable {kind} in {dispatcher}() rebinds enclosing "
                    f"names ({names}) from a worker thread",
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                yield from self._check_assignment(module, dispatcher, kind, node, bound)
            elif isinstance(node, ast.Call):
                callee = call_name(node)
                if callee in MUTATOR_METHODS:
                    yield self.finding(
                        module,
                        node,
                        f"pool callable {kind} in {dispatcher}() calls mutator "
                        f"`{callee}()` -- commits must stay on the serial path",
                    )

    def _check_assignment(
        self, module: Module, dispatcher: str, kind: str, node: ast.AST, bound: Set[str]
    ) -> Iterable[Finding]:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                root = attr_root(target)
                if root is not None and root not in bound:
                    yield self.finding(
                        module,
                        target,
                        f"pool callable {kind} in {dispatcher}() mutates captured "
                        f"`{root}` from a worker thread",
                    )

    @staticmethod
    def _bound_names(target: ast.AST) -> Set[str]:
        """Names bound inside the callable: parameters, assignments,
        loop/with/comprehension targets -- everything that is *not* a
        closure capture."""
        bound: Set[str] = set()
        if isinstance(target, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = target.args
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                bound.add(arg.arg)
        for node in ast.walk(target):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            elif isinstance(node, ast.comprehension):
                for name in ast.walk(node.target):
                    if isinstance(name, ast.Name):
                        bound.add(name.id)
        return bound
