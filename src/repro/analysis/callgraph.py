"""Interprocedural call graph resolved through attribute types.

The PR 6 rules connected callers to callees by bare method name, which
merges every ``append`` in the tree into one node and cannot tell
``self._wal.commit_hour()`` from a test helper's ``commit_hour``.  This
module rebuilds the graph with a light type layer:

* a **class registry** over the in-scope modules: per class, its methods,
  its base-class names, and its *attribute types* -- inferred from
  ``self.X = ClassName(...)`` constructor assignments anywhere in the
  class and from ``self.X: ClassName`` annotations;

* **property projection**: a ``@property`` whose body returns ``self.X``
  types the property as ``X``'s type, so ``self.access.accountant.retire``
  resolves through ``AccessManager.accountant`` to the real
  ``BlockAccountant.retire``;

* **local aliases**: single-assignment locals bound to a ``self`` chain
  (``accountant = self.access.accountant``) resolve calls through the
  chain's type.

Calls that still defeat typing (untyped locals, call results) fall back
to by-name resolution across the registry -- strictly more precise than
PR 6, never less.  Nodes are ``(class_name, method_name)`` pairs with
``class_name == ""`` for module-level functions.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import Module, Project
from repro.analysis.astutil import attr_chain, call_name, walk_calls

__all__ = ["CallGraph", "MethodRef"]

# A graph node: (defining class name or "" for module functions, name).
MethodRef = Tuple[str, str]


class _ClassInfo:
    __slots__ = (
        "name",
        "module",
        "bases",
        "methods",
        "attr_types",
        "properties",
        "prop_annotations",
    )

    def __init__(self, name: str, module: Module, node: ast.ClassDef) -> None:
        self.name = name
        self.module = module
        self.bases: List[str] = [
            base.id for base in node.bases if isinstance(base, ast.Name)
        ]
        self.methods: Dict[str, ast.FunctionDef] = {}
        self.attr_types: Dict[str, str] = {}
        # property name -> the self-attribute it returns (typed lazily).
        self.properties: Dict[str, str] = {}
        # property name -> declared return type (validated at lookup).
        self.prop_annotations: Dict[str, str] = {}
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.methods[item.name] = item
                if any(
                    isinstance(dec, ast.Name) and dec.id == "property"
                    for dec in item.decorator_list
                ):
                    annotated = _annotation_name(item.returns)
                    if annotated is not None:
                        self.prop_annotations[item.name] = annotated
                    returned = _returned_self_attr(item)
                    if returned is not None:
                        self.properties[item.name] = returned


def _annotation_name(annotation: Optional[ast.AST]) -> Optional[str]:
    """The class name an annotation declares: ``LedgerStore`` or
    ``Optional[LedgerStore]`` -> ``"LedgerStore"``."""
    if isinstance(annotation, ast.Name):
        return annotation.id
    if (
        isinstance(annotation, ast.Subscript)
        and isinstance(annotation.value, ast.Name)
        and annotation.value.id == "Optional"
        and isinstance(annotation.slice, ast.Name)
    ):
        return annotation.slice.id
    return None


def _returned_self_attr(func: ast.FunctionDef) -> Optional[str]:
    """``def p(self): return self._x`` (possibly after other statements)
    -> ``"_x"``; None when the property computes something richer."""
    for stmt in reversed(func.body):
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            chain = attr_chain(stmt.value)
            if len(chain) == 2 and chain[0] == "self":
                return chain[1]
            return None
    return None


def _local_aliases(func: ast.AST) -> Dict[str, Tuple[str, ...]]:
    """Locals bound (exactly once, to a plain ``self`` chain) inside the
    function: ``accountant = self.access.accountant`` ->
    ``{"accountant": ("self", "access", "accountant")}``.  Reassigned
    names are dropped rather than guessed."""
    seen: Dict[str, Optional[Tuple[str, ...]]] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(
            node.targets[0], ast.Name
        ):
            name = node.targets[0].id
            chain = tuple(attr_chain(node.value))
            value = chain if len(chain) >= 2 and chain[0] == "self" else None
            seen[name] = value if name not in seen else None
        else:
            targets: List[ast.AST] = list(getattr(node, "targets", []) or [])
            if isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For, ast.AsyncFor)):
                targets.append(node.target)
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        seen[leaf.id] = None
    return {name: chain for name, chain in seen.items() if chain is not None}


class CallGraph:
    """Typed call graph over the classes/functions of selected modules."""

    def __init__(
        self,
        project: Project,
        scope: Optional[Iterable[Module]] = None,
        fallback_excluded: Iterable[str] = (),
    ) -> None:
        self.classes: Dict[str, _ClassInfo] = {}
        self.functions: Dict[str, Tuple[Module, ast.FunctionDef]] = {}
        self.methods_by_name: Dict[str, List[Tuple[str, Module, ast.FunctionDef]]] = {}
        self._fallback_excluded = frozenset(fallback_excluded)
        self._subclass_map: Optional[Dict[str, Set[str]]] = None
        modules = list(scope) if scope is not None else list(project)
        for module in modules:
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef):
                    info = _ClassInfo(node.name, module, node)
                    self.classes[node.name] = info
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.functions[node.name] = (module, node)
        for info in self.classes.values():
            for method_name, func in info.methods.items():
                self.methods_by_name.setdefault(method_name, []).append(
                    (info.name, info.module, func)
                )
            self._infer_attr_types(info)

    # -- registry --------------------------------------------------------
    def _infer_attr_types(self, info: _ClassInfo) -> None:
        for func in info.methods.values():
            # ``def __init__(self, access: SageAccessControl)`` +
            # ``self.access = access`` types the attribute.
            param_types: Dict[str, str] = {}
            for arg in list(func.args.posonlyargs) + list(func.args.args) + list(
                func.args.kwonlyargs
            ):
                annotated = _annotation_name(arg.annotation)
                if annotated is not None and annotated in self.classes:
                    param_types[arg.arg] = annotated
            for node in ast.walk(func):
                target: Optional[ast.AST] = None
                value: Optional[ast.AST] = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target = node.target
                    # ``self.x: LedgerStore`` types the attr even unassigned.
                    if isinstance(node.annotation, ast.Name):
                        chain = attr_chain(target)
                        if (
                            len(chain) == 2
                            and chain[0] == "self"
                            and node.annotation.id in self.classes
                        ):
                            info.attr_types.setdefault(chain[1], node.annotation.id)
                    value = node.value
                if target is None or value is None:
                    continue
                chain = attr_chain(target)
                if len(chain) != 2 or chain[0] != "self":
                    continue
                if isinstance(value, ast.Call):
                    ctor = call_name(value)
                    if ctor in self.classes:
                        info.attr_types.setdefault(chain[1], ctor)
                elif isinstance(value, ast.Name) and value.id in param_types:
                    info.attr_types.setdefault(chain[1], param_types[value.id])

    def resolve_class(self, class_name: str) -> Optional[_ClassInfo]:
        return self.classes.get(class_name)

    def _mro(self, class_name: str) -> List[_ClassInfo]:
        out: List[_ClassInfo] = []
        seen: Set[str] = set()
        stack = [class_name]
        while stack:
            name = stack.pop(0)
            if name in seen:
                continue
            seen.add(name)
            info = self.classes.get(name)
            if info is None:
                continue
            out.append(info)
            stack.extend(info.bases)
        return out

    def lookup_method(self, class_name: str, method: str) -> Optional[MethodRef]:
        """The defining ``(class, method)`` pair along the base chain."""
        for info in self._mro(class_name):
            if method in info.methods:
                return (info.name, method)
        return None

    def attr_type(self, class_name: str, attr: str) -> Optional[str]:
        """Type of ``<class>.<attr>``, following bases and properties."""
        for info in self._mro(class_name):
            if attr in info.attr_types:
                return info.attr_types[attr]
            annotated = info.prop_annotations.get(attr)
            if annotated in self.classes:
                return annotated
            if attr in info.properties:
                backing = info.properties[attr]
                if backing != attr:  # guard pathological self-reference
                    resolved = self.attr_type(info.name, backing)
                    if resolved is not None:
                        return resolved
        return None

    def _subclasses(self, class_name: str) -> Set[str]:
        if self._subclass_map is None:
            forward: Dict[str, Set[str]] = {}
            for info in self.classes.values():
                for base in info.bases:
                    forward.setdefault(base, set()).add(info.name)
            self._subclass_map = forward
        out: Set[str] = set()
        stack = [class_name]
        while stack:
            for sub in self._subclass_map.get(stack.pop(), ()):
                if sub not in out:
                    out.add(sub)
                    stack.append(sub)
        return out

    def attr_types_all(self, class_name: str, attr: str) -> Set[str]:
        """Every type ``<class>.<attr>`` may hold at runtime: the MRO
        answer plus any override a *subclass* installs (``self`` inside a
        base-class method can be a subclass instance that replaced the
        attribute)."""
        out: Set[str] = set()
        for candidate in {class_name} | self._subclasses(class_name):
            resolved = self.attr_type(candidate, attr)
            if resolved is not None:
                out.add(resolved)
        return out

    def chain_type(
        self, owner_class: str, chain: Sequence[str]
    ) -> Optional[str]:
        """Type of a ``self``-rooted attribute chain inside a method of
        ``owner_class``: ``('self', 'access', 'accountant')`` -> the
        accountant's class name, or None when any hop is untyped.
        Ignores subclass overrides; use :meth:`chain_types` for the full
        may-alias answer."""
        if not chain or chain[0] != "self":
            return None
        current: Optional[str] = owner_class
        for part in chain[1:]:
            if current is None:
                return None
            current = self.attr_type(current, part)
        return current

    def chain_types(self, owner_class: str, chain: Sequence[str]) -> Set[str]:
        """All types a ``self``-rooted chain may resolve to, subclass
        overrides included at every hop."""
        if not chain or chain[0] != "self":
            return set()
        current: Set[str] = {owner_class}
        for part in chain[1:]:
            current = {
                t
                for cls in current
                for t in self.attr_types_all(cls, part)
            }
            if not current:
                return set()
        return current

    # -- call resolution -------------------------------------------------
    def resolve_call(
        self,
        call: ast.Call,
        owner_class: str,
        aliases: Optional[Dict[str, Tuple[str, ...]]] = None,
    ) -> List[MethodRef]:
        """The possible targets of one call site inside a method of
        ``owner_class``.  Typed resolution first; by-name fallback for
        receivers the type layer cannot see (excluded names resolve to
        nothing rather than everything)."""
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in self.functions:
                return [("", func.id)]
            if func.id in self.classes:  # constructor call
                ref = self.lookup_method(func.id, "__init__")
                return [ref] if ref else []
            return []
        if not isinstance(func, ast.Attribute):
            return []
        callee = func.attr
        chain = tuple(attr_chain(func.value))
        if aliases and chain and chain[0] in aliases:
            chain = aliases[chain[0]] + chain[1:]
        if chain and chain[0] == "self":
            if len(chain) == 1:
                # ``self.m()``: the defining method plus any subclass
                # override (a base-class caller may run a subclass self).
                refs: List[MethodRef] = []
                for candidate in {owner_class} | self._subclasses(owner_class):
                    ref = self.lookup_method(candidate, callee)
                    if ref is not None and ref not in refs:
                        refs.append(ref)
                if refs:
                    return sorted(refs)
            else:
                receiver_types = self.chain_types(owner_class, chain)
                if receiver_types:
                    refs = []
                    for receiver_type in sorted(receiver_types):
                        ref = self.lookup_method(receiver_type, callee)
                        if ref is not None and ref not in refs:
                            refs.append(ref)
                    return refs
        # Untyped receiver: every method of that name, unless excluded.
        if callee in self._fallback_excluded:
            return []
        return [
            (class_name, callee)
            for class_name, _, _ in self.methods_by_name.get(callee, ())
        ]

    def method_def(
        self, ref: MethodRef
    ) -> Optional[Tuple[Module, ast.FunctionDef]]:
        class_name, method = ref
        if class_name == "":
            return self.functions.get(method)
        info = self.classes.get(class_name)
        if info is None or method not in info.methods:
            return None
        return (info.module, info.methods[method])

    def reachable_from(
        self, seed_names: Sequence[str]
    ) -> Tuple[Set[MethodRef], Dict[MethodRef, MethodRef]]:
        """Every method transitively callable from any method *named* one
        of ``seed_names`` (in any class).  Returns the reached set and a
        parent map for rendering seed chains."""
        frontier: List[MethodRef] = []
        reached: Set[MethodRef] = set()
        for seed in seed_names:
            for class_name, _, _ in self.methods_by_name.get(seed, ()):
                ref = (class_name, seed)
                if ref not in reached:
                    reached.add(ref)
                    frontier.append(ref)
            if seed in self.functions:
                ref = ("", seed)
                if ref not in reached:
                    reached.add(ref)
                    frontier.append(ref)
        parents: Dict[MethodRef, MethodRef] = {}
        while frontier:
            current = frontier.pop()
            defn = self.method_def(current)
            if defn is None:
                continue
            _, func = defn
            aliases = _local_aliases(func)
            for call in walk_calls(func):
                for target in self.resolve_call(call, current[0], aliases):
                    if target == current or target in reached:
                        continue
                    if self.method_def(target) is None:
                        continue
                    reached.add(target)
                    parents[target] = current
                    frontier.append(target)
        return reached, parents
