"""Per-function control-flow graphs for the flow-sensitive rules.

Every statement of a function becomes one :class:`CFGNode`; edges carry a
kind (``"normal"``, ``"true"``/``"false"`` off branch tests, ``"loop"``
back edges, ``"exc"`` for exception propagation) and connect the nodes to
three synthetic anchors: ``entry``, ``exit`` (normal return) and
``raise_exit`` (the function unwinding with an exception).

The builder understands the control constructs the accounting code
actually uses:

* ``if``/``elif``/``else`` with join nodes;
* ``while``/``for`` loops with back edges, ``break``/``continue`` and
  ``else`` clauses;
* ``try``/``except``/``else``/``finally`` -- every statement that *can
  raise* gets an ``"exc"`` edge to the innermost handler dispatch (or
  through the active ``finally`` chain to ``raise_exit``), and ``finally``
  bodies are **cloned per exit kind** (fall-through, exception, return,
  break, continue) so a path query sees the cleanup code on exactly the
  paths that execute it;
* ``with`` blocks, desugared like ``try/finally`` whose cleanup is a
  synthetic ``__exit__`` node (the context manager runs on both the
  normal and the exception exit);
* ``return``/``raise``/``break``/``continue``, each routed through the
  enclosing ``finally`` chain.

Exception modeling is deliberately coarse but tuned for the pairing and
ordering rules: a statement raises iff it contains a call, a ``raise``,
an ``assert``, or a subscript -- *except* calls whose callee is a declared
cleanup/closer name (``NON_RAISING``), which the contracts define as
no-fail cleanup (``abort_staged``, ``abort_hour``, ``pop_staged``,
``_rollback_hour``...).  Without that carve-out every ``finally`` that
closes two resources would flag the second closer as skippable.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = ["CFG", "CFGNode", "build_cfg", "NON_RAISING", "stmt_can_raise"]

# Cleanup/closer callees modeled as non-raising: the pairing contracts
# define these as no-fail cleanup, and modeling them as raising would mark
# every multi-closer ``finally`` as leaky at its first closer.
NON_RAISING = frozenset(
    {
        "abort_staged",
        "abort_hour",
        "pop_staged",
        "_rollback_hour",
        "close",
        "shutdown",
    }
)


class CFGNode:
    """One statement (or synthetic anchor) in a function's flow graph."""

    __slots__ = ("index", "stmt", "label")

    def __init__(self, index: int, stmt: Optional[ast.stmt], label: str) -> None:
        self.index = index
        self.stmt = stmt
        self.label = label

    @property
    def lineno(self) -> int:
        return getattr(self.stmt, "lineno", 0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CFGNode {self.index} {self.label}>"


class CFG:
    """A function's control-flow graph (see the module docstring)."""

    def __init__(self, func: ast.AST) -> None:
        self.func = func
        self.nodes: List[CFGNode] = []
        self._succs: Dict[int, List[Tuple[int, str]]] = {}
        self._preds: Dict[int, List[Tuple[int, str]]] = {}
        self.entry = self._new_node(None, "<entry>")
        self.exit = self._new_node(None, "<exit>")
        self.raise_exit = self._new_node(None, "<raise>")

    # ------------------------------------------------------------------
    def _new_node(self, stmt: Optional[ast.stmt], label: str) -> CFGNode:
        node = CFGNode(len(self.nodes), stmt, label)
        self.nodes.append(node)
        self._succs[node.index] = []
        self._preds[node.index] = []
        return node

    def _add_edge(self, src: CFGNode, dst: CFGNode, kind: str) -> None:
        if (dst.index, kind) not in self._succs[src.index]:
            self._succs[src.index].append((dst.index, kind))
            self._preds[dst.index].append((src.index, kind))

    def succs(self, node: CFGNode) -> List[Tuple[CFGNode, str]]:
        return [(self.nodes[i], kind) for i, kind in self._succs[node.index]]

    def preds(self, node: CFGNode) -> List[Tuple[CFGNode, str]]:
        return [(self.nodes[i], kind) for i, kind in self._preds[node.index]]

    def stmt_nodes(self) -> List[CFGNode]:
        """Every non-synthetic node, in creation (≈ source) order."""
        return [n for n in self.nodes if n.stmt is not None]

    def nodes_matching(self, predicate) -> List[CFGNode]:
        """Statement nodes whose AST satisfies ``predicate(stmt)``."""
        return [n for n in self.stmt_nodes() if predicate(n.stmt)]

    def nodes_calling(self, names: Iterable[str]) -> List[CFGNode]:
        """Statement nodes whose *own* code calls any of the given names.

        Compound statements are probed on their header only (test/iter
        expression) -- their bodies are separate CFG nodes and match on
        their own.
        """
        wanted = set(names)

        def has_call(stmt: ast.stmt) -> bool:
            for child in ast.walk(_stmt_probe(stmt)):
                if isinstance(child, ast.Call):
                    func = child.func
                    callee = (
                        func.id
                        if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None
                    )
                    if callee in wanted:
                        return True
            return False

        return self.nodes_matching(has_call)


def _stmt_probe(stmt: ast.stmt) -> ast.AST:
    """The part of a statement that executes *at* its CFG node: the header
    expression for compound statements, the whole statement otherwise."""
    if isinstance(stmt, (ast.If, ast.While)):
        return stmt.test
    if isinstance(stmt, ast.For):
        return stmt.iter
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return ast.Module(
            body=[ast.Expr(value=item.context_expr) for item in stmt.items],
            type_ignores=[],
        )
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        # Nested definitions execute nothing from their bodies here.
        return ast.Module(body=[], type_ignores=[])
    return stmt


def stmt_can_raise(stmt: ast.stmt) -> bool:
    """Whether the exception model gives this statement an ``"exc"`` edge.

    Compound statements are judged on their *header only* (test or
    iterator expression) -- their bodies are separate CFG nodes.
    """
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return False
    for child in ast.walk(_stmt_probe(stmt)):
        if isinstance(child, ast.Call):
            func = child.func
            callee = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None
            )
            if callee not in NON_RAISING:
                return True
        elif isinstance(child, ast.Subscript):
            return True
    return False


def _is_catch_all(handler: ast.ExceptHandler) -> bool:
    return handler.type is None or (
        isinstance(handler.type, ast.Name)
        and handler.type.id in ("Exception", "BaseException")
    )


class _FinallyFrame:
    """One active ``finally`` (or ``with`` cleanup) the builder must clone
    onto every path that leaves its protected region."""

    __slots__ = ("finalbody", "with_node")

    def __init__(
        self,
        finalbody: Optional[Sequence[ast.stmt]],
        with_node: Optional[ast.stmt] = None,
    ) -> None:
        self.finalbody = list(finalbody) if finalbody else None
        self.with_node = with_node  # synthetic __exit__ for with blocks


class _Builder:
    """Recursive-descent CFG construction (one instance per function)."""

    def __init__(self, func: ast.AST) -> None:
        self.cfg = CFG(func)
        # Stack of (continue_target_resolver, break_sinks, depth) per loop,
        # and the active finally frames (innermost last).
        self._finally_stack: List[_FinallyFrame] = []
        self._loop_stack: List[dict] = []

    # -- frame-aware routing -------------------------------------------
    def _clone_finally(
        self,
        frame: _FinallyFrame,
        preds: List[CFGNode],
        exc_depth: int,
        entry_kind: str = "normal",
    ) -> List[CFGNode]:
        """Materialize one finally frame's body for one exit path.

        ``exc_depth`` is the frame's own position in the stack: exceptions
        raised *inside* the cloned cleanup propagate from there outward.
        ``entry_kind`` labels the edges into the clone (``"exc"`` when the
        cleanup runs because the protected region raised).
        """
        if frame.with_node is not None:
            node = self.cfg._new_node(frame.with_node, "<__exit__>")
            for p in preds:
                self.cfg._add_edge(p, node, entry_kind)
            return [node]
        entry = self.cfg._new_node(None, "<finally>")
        for p in preds:
            self.cfg._add_edge(p, entry, entry_kind)
        # Build the clone with the frame stack truncated to the frame's own
        # position: an exception inside this cleanup must run only the
        # *outer* frames, never re-enter the one being cloned.
        saved = self._finally_stack
        self._finally_stack = saved[:exc_depth]
        try:
            current: List[CFGNode] = [entry]
            for stmt in frame.finalbody or ():
                current = self._stmt(stmt, current)
        finally:
            self._finally_stack = saved
        return current

    def _route(
        self, preds: List[CFGNode], dest: CFGNode, kind: str, dest_depth: int
    ) -> None:
        """Send control from ``preds`` to ``dest``, running every finally
        frame between the current depth and ``dest_depth`` on the way."""
        if not preds:
            return
        current = preds
        for depth in range(len(self._finally_stack) - 1, dest_depth - 1, -1):
            current = self._clone_finally(
                self._finally_stack[depth], current, depth
            )
            if not current:
                return
        for node in current:
            self.cfg._add_edge(node, dest, kind)

    # Overridden exception targets: a stack of (dispatch_node, depth)
    # installed while building a try body with handlers.
    _exc_override: List[Tuple[CFGNode, int]]  # set in build()

    def _raise_to(self, node: CFGNode, from_depth: int) -> None:
        """Wire one statement's exception edge: run finallys inward-out
        from ``from_depth`` until an overriding handler (or the raise
        exit) is reached."""
        for dispatch, depth in reversed(self._exc_override):
            if depth <= from_depth:
                current = [node]
                first = True
                for d in range(from_depth - 1, depth - 1, -1):
                    current = self._clone_finally(
                        self._finally_stack[d],
                        current,
                        d,
                        "exc" if first else "normal",
                    )
                    first = False
                for n in current:
                    self.cfg._add_edge(n, dispatch, "exc" if first else "normal")
                return
        current = [node]
        first = True
        for d in range(from_depth - 1, -1, -1):
            current = self._clone_finally(
                self._finally_stack[d], current, d, "exc" if first else "normal"
            )
            first = False
        for n in current:
            self.cfg._add_edge(n, self.cfg.raise_exit, "exc" if first else "normal")

    # -- construction ---------------------------------------------------
    def build(self) -> CFG:
        self._exc_override = []
        body = self.cfg.func.body
        exits = self._body(body, [self.cfg.entry])
        for node in exits:
            self.cfg._add_edge(node, self.cfg.exit, "normal")
        return self.cfg

    def _body(self, stmts: Sequence[ast.stmt], preds: List[CFGNode]) -> List[CFGNode]:
        current = preds
        for stmt in stmts:
            if not current:
                # Unreachable code after return/raise/break: still build
                # nodes (rules may anchor findings there) but leave them
                # disconnected from entry.
                current = []
            current = self._stmt(stmt, current)
        return current

    def _stmt(self, stmt: ast.stmt, preds: List[CFGNode]) -> List[CFGNode]:
        depth = len(self._finally_stack)
        if isinstance(stmt, ast.If):
            return self._if(stmt, preds, depth)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, preds, depth)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, preds)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, preds, depth)
        node = self.cfg._new_node(stmt, type(stmt).__name__)
        for p in preds:
            self.cfg._add_edge(p, node, "normal")
        if isinstance(stmt, ast.Raise):
            self._raise_to(node, depth)
            return []
        if stmt_can_raise(stmt):
            self._raise_to(node, depth)
        if isinstance(stmt, ast.Return):
            self._route([node], self.cfg.exit, "normal", 0)
            return []
        if isinstance(stmt, ast.Break):
            loop = self._loop_stack[-1]
            self._route([node], loop["after"], "normal", loop["depth"])
            return []
        if isinstance(stmt, ast.Continue):
            loop = self._loop_stack[-1]
            self._route([node], loop["header"], "loop", loop["depth"])
            return []
        return [node]

    def _if(self, stmt: ast.If, preds: List[CFGNode], depth: int) -> List[CFGNode]:
        test = self.cfg._new_node(stmt, "If")
        for p in preds:
            self.cfg._add_edge(p, test, "normal")
        if stmt_can_raise(stmt):
            self._raise_to(test, depth)
        then_entry = self.cfg._new_node(None, "<then>")
        self.cfg._add_edge(test, then_entry, "true")
        then_exits = self._body(stmt.body, [then_entry])
        if stmt.orelse:
            else_entry = self.cfg._new_node(None, "<else>")
            self.cfg._add_edge(test, else_entry, "false")
            else_exits = self._body(stmt.orelse, [else_entry])
        else:
            skip = self.cfg._new_node(None, "<skip>")
            self.cfg._add_edge(test, skip, "false")
            else_exits = [skip]
        return then_exits + else_exits

    def _loop(self, stmt, preds: List[CFGNode], depth: int) -> List[CFGNode]:
        header = self.cfg._new_node(stmt, type(stmt).__name__)
        for p in preds:
            self.cfg._add_edge(p, header, "normal")
        if stmt_can_raise(stmt):
            self._raise_to(header, depth)
        after = self.cfg._new_node(None, "<loop-exit>")
        self._loop_stack.append({"header": header, "after": after, "depth": depth})
        body_entry = self.cfg._new_node(None, "<loop-body>")
        self.cfg._add_edge(header, body_entry, "true")
        body_exits = self._body(stmt.body, [body_entry])
        for node in body_exits:
            self.cfg._add_edge(node, header, "loop")
        self._loop_stack.pop()
        # ``while True:`` never falls through the test; every other loop
        # exits when the test fails / the iterator exhausts.
        infinite = (
            isinstance(stmt, ast.While)
            and isinstance(stmt.test, ast.Constant)
            and bool(stmt.test.value)
        )
        exits: List[CFGNode] = []
        if not infinite:
            if stmt.orelse:
                else_entry = self.cfg._new_node(None, "<loop-else>")
                self.cfg._add_edge(header, else_entry, "false")
                exits.extend(self._body(stmt.orelse, [else_entry]))
            else:
                self.cfg._add_edge(header, after, "false")
        for node in exits:
            self.cfg._add_edge(node, after, "normal")
        return [after] if (self.cfg._preds[after.index]) else []

    def _with(self, stmt, preds: List[CFGNode], depth: int) -> List[CFGNode]:
        enter = self.cfg._new_node(stmt, "With")
        for p in preds:
            self.cfg._add_edge(p, enter, "normal")
        # Entering the context (evaluating the manager, __enter__) can raise
        # *before* the cleanup is active.
        self._raise_to(enter, depth)
        frame = _FinallyFrame(None, with_node=stmt)
        self._finally_stack.append(frame)
        body_exits = self._body(stmt.body, [enter])
        self._finally_stack.pop()
        # Normal exit runs __exit__ once.
        exits = self._clone_finally(frame, body_exits, depth)
        return exits

    def _try(self, stmt: ast.Try, preds: List[CFGNode]) -> List[CFGNode]:
        after_exits: List[CFGNode] = []
        frame = _FinallyFrame(stmt.finalbody) if stmt.finalbody else None
        if frame is not None:
            self._finally_stack.append(frame)
        depth = len(self._finally_stack)
        dispatch: Optional[CFGNode] = None
        if stmt.handlers:
            dispatch = self.cfg._new_node(None, "<except-dispatch>")
            self._exc_override.append((dispatch, depth))
        body_exits = self._body(stmt.body, preds)
        if stmt.orelse:
            body_exits = self._body(stmt.orelse, body_exits)
        if dispatch is not None:
            self._exc_override.pop()
            # Handler bodies: exceptions inside them propagate outward.
            for handler in stmt.handlers:
                h_entry = self.cfg._new_node(handler, "ExceptHandler")
                self.cfg._add_edge(dispatch, h_entry, "normal")
                after_exits.extend(self._body(handler.body, [h_entry]))
            # An exception no handler matches propagates outward too.
            # ``except Exception``/``except BaseException`` count as
            # catch-alls: what escapes them (deliberate crash injection,
            # KeyboardInterrupt) is outside the contracts' exception model.
            if not any(_is_catch_all(h) for h in stmt.handlers):
                self._raise_to(dispatch, depth)
        after_exits.extend(body_exits)
        if frame is not None:
            self._finally_stack.pop()
            after_exits = self._clone_finally(
                frame, after_exits, len(self._finally_stack)
            )
        return after_exits


def build_cfg(func: ast.AST) -> CFG:
    """Build the control-flow graph of one (sync or async) function."""
    if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        raise TypeError(f"build_cfg expects a function definition, got {func!r}")
    return _Builder(func).build()
