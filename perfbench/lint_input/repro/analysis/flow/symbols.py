"""A scoped symbol table over one module's AST.

Binds every name a module introduces — imports, assignments, function
and class definitions, parameters, comprehension targets — into a scope
tree with Python's actual lookup rules: functions see enclosing
*function* and module scopes but **not** enclosing class bodies, and
comprehensions are their own scope on Python 3.

The linter uses this to resolve what a name at a use site actually
refers to: ``clock.time()`` is ad-hoc wall-clock timing when ``clock``
is bound by ``import time as clock``, and ``print(...)`` is not a
diagnostic when ``print`` is a local binding shadowing the builtin.
"""

from __future__ import annotations

import ast
import dataclasses
import enum


class BindingKind(enum.Enum):
    """How a name came to be bound in its scope."""

    IMPORT = "import"
    FROM_IMPORT = "from-import"
    ASSIGNMENT = "assignment"
    PARAMETER = "parameter"
    FUNCTION = "function"
    CLASS = "class"
    COMPREHENSION = "comprehension"


@dataclasses.dataclass(frozen=True)
class Binding:
    """One name binding.

    Attributes:
        name: The bound name as visible in the scope.
        kind: How the binding was introduced.
        node: The AST node that introduced it.
        module: For imports, the source module path (``import a.b as c``
            binds ``c`` with module ``a.b``; ``from a import b`` binds
            ``b`` with module ``a``).
        origin: For from-imports, the original name in the source module.
    """

    name: str
    kind: BindingKind
    node: ast.AST
    module: str | None = None
    origin: str | None = None


class Scope:
    """One lexical scope: a module, class, function, or comprehension."""

    def __init__(
        self, node: ast.AST, parent: "Scope | None", kind: str
    ) -> None:
        self.node = node
        self.parent = parent
        self.kind = kind  # "module" | "class" | "function" | "comprehension"
        self.bindings: dict[str, Binding] = {}
        self.children: list[Scope] = []
        if parent is not None:
            parent.children.append(self)

    def bind(self, binding: Binding) -> None:
        """Record a binding (first introduction wins for lint purposes)."""
        self.bindings.setdefault(binding.name, binding)

    def lookup(self, name: str) -> Binding | None:
        """Resolve a name with Python's scoping rules.

        Walks outward, skipping class scopes (a method does not see its
        class body's names as bare names).
        """
        scope: Scope | None = self
        first = True
        while scope is not None:
            if first or scope.kind != "class":
                binding = scope.bindings.get(name)
                if binding is not None:
                    return binding
            first = False
            scope = scope.parent
        return None


_COMPREHENSIONS = (
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


class ScopedSymbolTable:
    """The scope tree of one module, with a node-to-scope map."""

    def __init__(self, tree: ast.Module) -> None:
        self.module_scope = Scope(tree, None, "module")
        self._scope_of: dict[int, Scope] = {id(tree): self.module_scope}
        self._populate(tree, self.module_scope)

    # -- construction -----------------------------------------------------------

    def _populate(self, node: ast.AST, scope: Scope) -> None:
        for child in ast.iter_child_nodes(node):
            self._visit(child, scope)

    def _visit(self, node: ast.AST, scope: Scope) -> None:
        self._scope_of.setdefault(id(node), scope)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope.bind(
                Binding(node.name, BindingKind.FUNCTION, node)
            )
            inner = Scope(node, scope, "function")
            self._scope_of[id(node)] = inner
            self._bind_parameters(node.args, inner)
            # Decorators and defaults evaluate in the enclosing scope.
            for decorator in node.decorator_list:
                self._visit(decorator, scope)
            for default in [
                *node.args.defaults,
                *[d for d in node.args.kw_defaults if d is not None],
            ]:
                self._visit(default, scope)
            for statement in node.body:
                self._visit(statement, inner)
            return
        if isinstance(node, ast.Lambda):
            inner = Scope(node, scope, "function")
            self._scope_of[id(node)] = inner
            self._bind_parameters(node.args, inner)
            self._visit(node.body, inner)
            return
        if isinstance(node, ast.ClassDef):
            scope.bind(Binding(node.name, BindingKind.CLASS, node))
            inner = Scope(node, scope, "class")
            self._scope_of[id(node)] = inner
            for decorator in node.decorator_list:
                self._visit(decorator, scope)
            for base in [*node.bases, *node.keywords]:
                self._visit(base, scope)
            for statement in node.body:
                self._visit(statement, inner)
            return
        if isinstance(node, _COMPREHENSIONS):
            inner = Scope(node, scope, "comprehension")
            self._scope_of[id(node)] = inner
            for comp in node.generators:
                self._bind_targets(
                    comp.target, inner, BindingKind.COMPREHENSION
                )
                # The leftmost iterable evaluates in the outer scope.
                self._visit(comp.iter, scope)
                for condition in comp.ifs:
                    self._visit(condition, inner)
            if isinstance(node, ast.DictComp):
                self._visit(node.key, inner)
                self._visit(node.value, inner)
            else:
                self._visit(node.elt, inner)
            return
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                scope.bind(
                    Binding(
                        bound,
                        BindingKind.IMPORT,
                        node,
                        module=alias.name,
                    )
                )
            return
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound = alias.asname or alias.name
                scope.bind(
                    Binding(
                        bound,
                        BindingKind.FROM_IMPORT,
                        node,
                        module=node.module,
                        origin=alias.name,
                    )
                )
            return
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._bind_targets(
                    target, scope, BindingKind.ASSIGNMENT
                )
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            self._bind_targets(
                node.target, scope, BindingKind.ASSIGNMENT
            )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._bind_targets(
                node.target, scope, BindingKind.ASSIGNMENT
            )
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    self._bind_targets(
                        item.optional_vars,
                        scope,
                        BindingKind.ASSIGNMENT,
                    )
        elif isinstance(node, ast.ExceptHandler) and node.name:
            scope.bind(
                Binding(node.name, BindingKind.ASSIGNMENT, node)
            )
        elif isinstance(node, (ast.NamedExpr,)):
            self._bind_targets(
                node.target, scope, BindingKind.ASSIGNMENT
            )
        self._populate(node, scope)

    def _bind_parameters(
        self, args: ast.arguments, scope: Scope
    ) -> None:
        every = [
            *args.posonlyargs,
            *args.args,
            *([args.vararg] if args.vararg else []),
            *args.kwonlyargs,
            *([args.kwarg] if args.kwarg else []),
        ]
        for arg in every:
            scope.bind(Binding(arg.arg, BindingKind.PARAMETER, arg))

    def _bind_targets(
        self, target: ast.AST, scope: Scope, kind: BindingKind
    ) -> None:
        if isinstance(target, ast.Name):
            scope.bind(Binding(target.id, kind, target))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_targets(element, scope, kind)
        elif isinstance(target, ast.Starred):
            self._bind_targets(target.value, scope, kind)
        # Attribute/Subscript targets bind no new name.

    # -- queries ----------------------------------------------------------------

    def scope_of(self, node: ast.AST) -> Scope | None:
        """The scope a function/class/comprehension node opens, if any."""
        return self._scope_of.get(id(node))

    def enclosing_scope(self, node: ast.AST) -> Scope:
        """The innermost scope containing a node."""
        mapped = self._scope_of.get(id(node))
        if mapped is not None:
            return mapped
        found = self._find_scope(self.module_scope, node)
        return found or self.module_scope

    def _find_scope(self, scope: Scope, node: ast.AST) -> Scope | None:
        for child in scope.children:
            within = self._find_scope(child, node)
            if within is not None:
                return within
        if self._contains(scope.node, node):
            return scope
        return None

    @staticmethod
    def _contains(root: ast.AST, node: ast.AST) -> bool:
        return any(candidate is node for candidate in ast.walk(root))

    def resolve(
        self, name: str, within: ast.AST | None = None
    ) -> Binding | None:
        """Resolve a bare name from (the scope containing) ``within``.

        With no ``within`` the module scope is used.
        """
        scope = (
            self.module_scope
            if within is None
            else self.enclosing_scope(within)
        )
        return scope.lookup(name)
