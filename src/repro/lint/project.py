"""Project-wide dataflow: symbol table, call graph, effect summaries.

The per-file rules (RPR001-RPR005) see one AST at a time. The dataflow
rule families (RPR006-RPR011) need to answer *cross-module* questions —
"who writes this module-level dict", "what can ``execute_request``
reach", "does this callee touch the wall clock" — so this module builds
one :class:`ProjectContext` over every analyzed file:

* a **symbol table**: per module, its imports (local alias -> qualified
  name), module-level bindings, classes with their methods, and the
  module-level *mutable* objects (dict/list/set literals and
  constructors) that shared-state analysis cares about;
* a **call graph**: every call site in every function body resolved to
  project functions. Resolution is intentionally pragmatic: exact via
  imports and ``self``, then unique-suffix module matching (so fixture
  trees resolve like the real ``repro.*`` tree), then class-hierarchy-
  agnostic *by-method-name* matching for attribute calls on objects of
  unknown type (skipping generic container/str/ndarray method names);
* per-function **direct effect summaries** — wall-clock reads,
  environment reads, unseeded randomness, filesystem access, writes to
  module-level state — which the purity rule propagates over the call
  graph.

Nested functions and lambdas are attributed to their enclosing
top-level function or method: defining one is not calling it, but the
over-approximation keeps the graph simple and errs toward reporting.

:class:`ProjectRule` is the base class for rules that run over the
whole project instead of file by file; the analyzer runs them only in
``--strict`` mode or when explicitly selected.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.visitor import FileContext, Rule, dotted_name

#: Constructors whose module-level result is shared mutable state.
MUTABLE_CTORS = frozenset(
    {
        "dict",
        "list",
        "set",
        "bytearray",
        "defaultdict",
        "deque",
        "Counter",
        "OrderedDict",
        "collections.defaultdict",
        "collections.deque",
        "collections.Counter",
        "collections.OrderedDict",
    }
)

#: Method calls that mutate a dict/list/set/deque receiver.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "pop",
        "popitem",
        "clear",
        "remove",
        "discard",
        "setdefault",
        "sort",
        "reverse",
        "appendleft",
        "extendleft",
    }
)

#: Attribute-call names too generic to resolve by method name alone:
#: resolving ``x.get(...)`` to every project method named ``get`` would
#: wire unrelated classes together and flood the purity analysis.
NONSPECIFIC_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "pop",
        "popitem",
        "get",
        "items",
        "keys",
        "values",
        "clear",
        "copy",
        "setdefault",
        "remove",
        "discard",
        "sort",
        "reverse",
        "index",
        "count",
        "join",
        "split",
        "strip",
        "startswith",
        "endswith",
        "format",
        "lower",
        "upper",
        "read",
        "readline",
        "write",
        "close",
        "flush",
        # common ndarray methods
        "tolist",
        "astype",
        "reshape",
        "sum",
        "mean",
        "max",
        "min",
        "any",
        "all",
        "fill",
        "nonzero",
        "searchsorted",
        "cumsum",
        "argmin",
        "argmax",
        "item",
        "setflags",
    }
)

#: Wall-clock reads (module.function dotted names); RPR002 and the
#: effect summaries share this table and the numpy.random ones below.
CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "datetime.now",
        "datetime.today",
        "datetime.utcnow",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "date.today",
        "datetime.date.today",
    }
)

#: Environment reads.
ENV_CALLS = frozenset({"os.getenv", "os.environ.get", "os.environ.setdefault"})

#: Filesystem touching calls (dotted names).
FS_CALLS = frozenset(
    {
        "open",
        "os.remove",
        "os.unlink",
        "os.rename",
        "os.replace",
        "os.mkdir",
        "os.makedirs",
        "os.rmdir",
        "os.removedirs",
        "os.listdir",
        "os.scandir",
        "os.walk",
        "shutil.rmtree",
        "shutil.copy",
        "shutil.copy2",
        "shutil.copyfile",
        "shutil.copytree",
        "shutil.move",
        "tempfile.mkstemp",
        "tempfile.mkdtemp",
        "tempfile.NamedTemporaryFile",
        "tempfile.TemporaryDirectory",
    }
)

#: Filesystem touching method names (distinctively pathlib; note
#: ``touch`` is absent — in this codebase touching is what guests do to
#: memory pages, not what ``Path`` does to mtimes).
FS_METHODS = frozenset(
    {"write_text", "read_text", "write_bytes", "read_bytes"}
)

#: numpy.random attributes that are fine to touch: seeded-generator
#: construction, not the module-level global stream.
NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "MT19937",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
    }
)

NP_RANDOM_PREFIXES = ("np.random.", "numpy.random.")

FuncDef = (ast.FunctionDef, ast.AsyncFunctionDef)


def module_name_for(path: str) -> str:
    """Dotted module name for a source path.

    ``src/repro/sim/engine.py`` -> ``repro.sim.engine``: everything up to
    and including the last ``src`` segment is stripped, so the real tree
    resolves exactly; fixture trees keep their full dotted path and rely
    on unique-suffix matching.
    """
    parts = [p for p in path.replace("\\", "/").split("/") if p and p != "."]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class Effect:
    """One direct impure operation inside a function body."""

    __slots__ = ("kind", "node", "detail")

    def __init__(self, kind: str, node: ast.AST, detail: str):
        self.kind = kind  #: "time" | "env" | "rng" | "fs" | "state"
        self.node = node
        self.detail = detail


class StateWrite:
    """One write to module-level state from a function body."""

    __slots__ = ("node", "module_name", "target", "kind")

    def __init__(self, node: ast.AST, module_name: str, target: str, kind: str):
        self.node = node
        self.module_name = module_name  #: owning module's dotted name
        self.target = target  #: the module-level name written
        self.kind = kind  #: "rebind" | "mutation"


class FunctionInfo:
    """One top-level function or method, with its calls and effects."""

    def __init__(
        self,
        qname: str,
        node: ast.AST,
        module: "ModuleInfo",
        class_name: Optional[str],
    ):
        self.qname = qname
        self.node = node
        self.module = module
        self.class_name = class_name
        #: Raw call sites: (node, dotted-or-None, attr-or-None).
        self.call_sites: List[Tuple[ast.Call, Optional[str], Optional[str]]] = []
        self.effects: List[Effect] = []
        self.state_writes: List[StateWrite] = []
        #: Resolved callee qnames (filled by ProjectContext).
        self.callees: Set[str] = set()

    @property
    def short_name(self) -> str:
        parts = self.qname.split(".")
        return ".".join(parts[-2:]) if self.class_name else parts[-1]


class ClassInfo:
    """One module-level class: methods, bases, body node."""

    def __init__(self, name: str, node: ast.ClassDef, module: "ModuleInfo"):
        self.name = name
        self.node = node
        self.module = module
        self.methods: Dict[str, FunctionInfo] = {}
        self.base_names: List[str] = [
            d for d in (dotted_name(b) for b in node.bases) if d is not None
        ]

    @property
    def qname(self) -> str:
        return f"{self.module.name}.{self.name}"


class ModuleInfo:
    """Symbol table of one analyzed source file."""

    def __init__(self, ctx: FileContext):
        self.ctx = ctx
        self.path = ctx.path
        self.name = module_name_for(ctx.path)
        #: local alias -> fully qualified name it stands for.
        self.imports: Dict[str, str] = {}
        #: every module-level assigned name -> the binding node.
        self.globals: Dict[str, ast.AST] = {}
        #: module-level names bound to mutable literals/constructors.
        self.mutables: Dict[str, ast.AST] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self._collect()

    # ------------------------------------------------------------------

    def _collect(self) -> None:
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else local
                    self.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(node)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.imports[local] = f"{base}.{alias.name}" if base else alias.name
        for stmt in self.ctx.tree.body:
            self._collect_stmt(stmt)

    def _resolve_from(self, node: ast.ImportFrom) -> str:
        if not node.level:
            return node.module or ""
        # Relative import: resolve against this module's package.
        package = self.name.split(".")
        package = package[: len(package) - node.level]
        if node.module:
            package.append(node.module)
        return ".".join(package)

    def _collect_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, FuncDef):
            qname = f"{self.name}.{stmt.name}"
            self.functions[qname] = FunctionInfo(qname, stmt, self, None)
        elif isinstance(stmt, ast.ClassDef):
            info = ClassInfo(stmt.name, stmt, self)
            self.classes[stmt.name] = info
            for sub in stmt.body:
                if isinstance(sub, FuncDef):
                    qname = f"{self.name}.{stmt.name}.{sub.name}"
                    method = FunctionInfo(qname, sub, self, stmt.name)
                    info.methods[sub.name] = method
                    self.functions[qname] = method
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            value = stmt.value
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                self.globals[target.id] = stmt
                if value is not None and _is_mutable_ctor(value):
                    self.mutables[target.id] = stmt
        elif isinstance(stmt, (ast.If, ast.Try)):
            for sub in ast.iter_child_nodes(stmt):
                if isinstance(sub, ast.stmt):
                    self._collect_stmt(sub)


def _is_mutable_ctor(value: ast.expr) -> bool:
    if isinstance(
        value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    ):
        return True
    if isinstance(value, ast.Call):
        name = dotted_name(value.func)
        return name in MUTABLE_CTORS
    return False


def local_bindings(func: ast.AST) -> Set[str]:
    """Names bound locally in ``func`` (excluding global/nonlocal decls)."""
    declared: Set[str] = set()
    bound: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            bound.add(node.id)
        elif isinstance(node, FuncDef):
            if node is not func:
                continue
            args = node.args
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                bound.add(arg.arg)
    return bound - declared


class ProjectContext:
    """Everything the dataflow rules need, built once per analyzer run."""

    def __init__(self, contexts: Sequence[FileContext]):
        self.modules: Dict[str, ModuleInfo] = {}
        self.context_by_path: Dict[str, FileContext] = {}
        for ctx in contexts:
            info = ModuleInfo(ctx)
            self.modules[info.name] = info
            self.context_by_path[ctx.path] = ctx
        #: every project function by qualified name.
        self.functions: Dict[str, FunctionInfo] = {}
        #: method name -> qnames of every class method with that name.
        self.methods_by_name: Dict[str, List[str]] = {}
        for mod in self.modules.values():
            for qname, fn in mod.functions.items():
                self.functions[qname] = fn
                if fn.class_name is not None:
                    self.methods_by_name.setdefault(
                        fn.node.name, []
                    ).append(qname)
        for names in self.methods_by_name.values():
            names.sort()
        for fn in self.functions.values():
            self._scan_function(fn)
        for fn in self.functions.values():
            fn.callees = self._resolve_callees(fn)

    # ------------------------------------------------------------------
    # Per-function scanning

    def _scan_function(self, fn: FunctionInfo) -> None:
        """Collect call sites, direct effects and state writes of ``fn``.

        Nested defs/lambdas are attributed to ``fn`` (see module doc).
        """
        locals_ = local_bindings(fn.node)
        globals_declared: Set[str] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Global):
                globals_declared.update(node.names)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                attr = (
                    node.func.attr
                    if isinstance(node.func, ast.Attribute)
                    else None
                )
                fn.call_sites.append((node, dotted, attr))
                self._record_call_effects(fn, node, dotted, attr)
                self._record_call_state_write(
                    fn, node, dotted, attr, locals_, globals_declared
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                self._record_store_state_write(
                    fn, node, locals_, globals_declared
                )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    self._record_target_write(
                        fn, target, locals_, globals_declared, node
                    )
            elif isinstance(node, ast.Attribute) and dotted_name(node) == (
                "os.environ"
            ):
                fn.effects.append(
                    Effect("env", node, "reads os.environ")
                )

    def _record_call_effects(
        self,
        fn: FunctionInfo,
        node: ast.Call,
        dotted: Optional[str],
        attr: Optional[str],
    ) -> None:
        if dotted is not None:
            if dotted in CLOCK_CALLS:
                fn.effects.append(
                    Effect("time", node, f"{dotted}() reads the wall clock")
                )
                return
            if dotted in ENV_CALLS:
                fn.effects.append(
                    Effect("env", node, f"{dotted}() reads the environment")
                )
                return
            if dotted in FS_CALLS:
                fn.effects.append(
                    Effect("fs", node, f"{dotted}() touches the filesystem")
                )
                return
            last = dotted.split(".")[-1]
            if last == "default_rng" and not node.args:
                fn.effects.append(
                    Effect(
                        "rng",
                        node,
                        "default_rng() without a seed is nondeterministic",
                    )
                )
                return
            if dotted.startswith(NP_RANDOM_PREFIXES):
                np_attr = dotted.split(".")[2]
                if np_attr not in NP_RANDOM_ALLOWED:
                    fn.effects.append(
                        Effect(
                            "rng",
                            node,
                            f"{dotted}() draws from numpy's global stream",
                        )
                    )
                    return
            if dotted.startswith("random."):
                root = dotted.split(".")[0]
                if fn.module.imports.get(root) == "random":
                    fn.effects.append(
                        Effect(
                            "rng",
                            node,
                            f"{dotted}() draws process-global randomness",
                        )
                    )
                    return
        if attr in FS_METHODS:
            fn.effects.append(
                Effect("fs", node, f".{attr}() touches the filesystem")
            )

    # ------------------------------------------------------------------
    # Module-state writes (shared by RPR006 and the purity analysis)

    def _record_call_state_write(
        self,
        fn: FunctionInfo,
        node: ast.Call,
        dotted: Optional[str],
        attr: Optional[str],
        locals_: Set[str],
        globals_declared: Set[str],
    ) -> None:
        if attr is None or attr not in MUTATING_METHODS:
            return
        assert isinstance(node.func, ast.Attribute)
        base = node.func.value
        self._match_module_state(
            fn, base, locals_, globals_declared, node, kind="mutation"
        )

    def _record_store_state_write(
        self,
        fn: FunctionInfo,
        node: ast.AST,
        locals_: Set[str],
        globals_declared: Set[str],
    ) -> None:
        targets: List[ast.expr]
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            return
        for target in targets:
            self._record_target_write(
                fn, target, locals_, globals_declared, node
            )

    def _record_target_write(
        self,
        fn: FunctionInfo,
        target: ast.expr,
        locals_: Set[str],
        globals_declared: Set[str],
        stmt: ast.AST,
    ) -> None:
        if isinstance(target, ast.Name):
            # Plain rebind only counts with an explicit ``global`` decl.
            if target.id in globals_declared and target.id in fn.module.globals:
                fn.state_writes.append(
                    StateWrite(stmt, fn.module.name, target.id, "rebind")
                )
            return
        if isinstance(target, (ast.Subscript,)):
            self._match_module_state(
                fn, target.value, locals_, globals_declared, stmt,
                kind="mutation",
            )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target_write(
                    fn, element, locals_, globals_declared, stmt
                )

    def _match_module_state(
        self,
        fn: FunctionInfo,
        base: ast.expr,
        locals_: Set[str],
        globals_declared: Set[str],
        stmt: ast.AST,
        kind: str,
    ) -> None:
        """If ``base`` names module-level mutable state, record the write."""
        dotted = dotted_name(base)
        if dotted is None:
            return
        parts = dotted.split(".")
        mod = fn.module
        # Same-module: a bare name that is module-level mutable and not
        # shadowed by a local binding.
        if len(parts) == 1:
            name = parts[0]
            if name in locals_ and name not in globals_declared:
                return
            if name in mod.mutables:
                fn.state_writes.append(
                    StateWrite(stmt, mod.name, name, kind)
                )
            return
        # Cross-module: mod_alias.NAME... where the alias resolves to a
        # project module holding NAME as module-level mutable state.
        head = parts[0]
        if head in locals_ or head == "self":
            return
        qualified = mod.imports.get(head)
        if qualified is None:
            return
        full = ".".join([qualified] + parts[1:])
        owner, name = full.rsplit(".", 1) if "." in full else ("", full)
        target_mod = self.resolve_module(owner)
        if target_mod is not None and name in target_mod.mutables:
            fn.state_writes.append(
                StateWrite(stmt, target_mod.name, name, kind)
            )

    # ------------------------------------------------------------------
    # Name resolution

    def resolve_module(self, dotted: str) -> Optional[ModuleInfo]:
        """A project module by exact dotted name, else unique suffix."""
        if not dotted:
            return None
        mod = self.modules.get(dotted)
        if mod is not None:
            return mod
        suffix = "." + dotted
        matches = [m for n, m in self.modules.items() if n.endswith(suffix)]
        return matches[0] if len(matches) == 1 else None

    def _resolve_qualified(self, qualified: str) -> List[str]:
        """Function qnames for a fully qualified callable name."""
        fn = self.functions.get(qualified)
        if fn is not None:
            return [qualified]
        # A class instantiation resolves to its __init__.
        if "." in qualified:
            owner, name = qualified.rsplit(".", 1)
            mod = self.resolve_module(owner)
            if mod is not None:
                cls = mod.classes.get(name)
                if cls is not None:
                    init = cls.methods.get("__init__")
                    return [init.qname] if init is not None else []
                fn2 = mod.functions.get(f"{mod.name}.{name}")
                if fn2 is not None:
                    return [fn2.qname]
        resolved = self.resolve_function(qualified)
        return [resolved] if resolved is not None else []

    def resolve_function(self, qualified: str) -> Optional[str]:
        """A function qname by exact name, else unique qname suffix."""
        if qualified in self.functions:
            return qualified
        suffix = "." + qualified
        matches = [q for q in self.functions if q.endswith(suffix)]
        return matches[0] if len(matches) == 1 else None

    def _resolve_self_method(
        self, fn: FunctionInfo, meth: str
    ) -> List[str]:
        if fn.class_name is None:
            return []
        cls: Optional[ClassInfo] = fn.module.classes.get(fn.class_name)
        seen: Set[str] = set()
        while cls is not None and cls.qname not in seen:
            seen.add(cls.qname)
            method = cls.methods.get(meth)
            if method is not None:
                return [method.qname]
            cls = self._resolve_base(cls)
        return []

    def _resolve_base(self, cls: ClassInfo) -> Optional[ClassInfo]:
        for base in cls.base_names:
            parts = base.split(".")
            mod = cls.module
            if len(parts) == 1:
                if parts[0] in mod.classes:
                    return mod.classes[parts[0]]
                qualified = mod.imports.get(parts[0])
            else:
                head = mod.imports.get(parts[0])
                qualified = (
                    ".".join([head] + parts[1:]) if head is not None else None
                )
            if qualified is None:
                continue
            owner, name = (
                qualified.rsplit(".", 1) if "." in qualified else ("", qualified)
            )
            target_mod = self.resolve_module(owner)
            if target_mod is not None and name in target_mod.classes:
                return target_mod.classes[name]
        return None

    def _resolve_callees(self, fn: FunctionInfo) -> Set[str]:
        callees: Set[str] = set()
        mod = fn.module
        locals_ = local_bindings(fn.node)
        for node, dotted, attr in fn.call_sites:
            if dotted is not None:
                parts = dotted.split(".")
                if parts[0] == "self":
                    if len(parts) == 2:
                        callees.update(self._resolve_self_method(fn, parts[1]))
                    elif attr and attr not in NONSPECIFIC_METHODS:
                        callees.update(
                            self.methods_by_name.get(attr, [])
                        )
                    continue
                if parts[0] in mod.imports:
                    qualified = ".".join(
                        [mod.imports[parts[0]]] + parts[1:]
                    )
                    resolved = self._resolve_qualified(qualified)
                    if resolved:
                        callees.update(resolved)
                        continue
                elif len(parts) == 1:
                    own = mod.functions.get(f"{mod.name}.{parts[0]}")
                    if own is not None:
                        callees.add(own.qname)
                        continue
                    if parts[0] in mod.classes:
                        init = mod.classes[parts[0]].methods.get("__init__")
                        if init is not None:
                            callees.add(init.qname)
                        continue
                if (
                    len(parts) > 1
                    and parts[0] not in locals_
                    and parts[0] not in mod.imports
                ):
                    # Unimported dotted call: try a unique suffix match.
                    resolved = self._resolve_qualified(dotted)
                    if resolved:
                        callees.update(resolved)
                        continue
            if (
                attr is not None
                and attr not in NONSPECIFIC_METHODS
                and (dotted is None or dotted.split(".")[0] != "self")
            ):
                callees.update(self.methods_by_name.get(attr, []))
        return callees

    # ------------------------------------------------------------------
    # Graph queries

    def roots_named(self, name: str) -> List[FunctionInfo]:
        """Every project function whose bare name is ``name``, sorted."""
        return [
            self.functions[q]
            for q in sorted(self.functions)
            if q.split(".")[-1] == name
        ]

    def reachable_from(
        self, roots: Sequence[FunctionInfo]
    ) -> Dict[str, Tuple[str, ...]]:
        """BFS over the call graph: qname -> shortest chain from a root.

        The chain includes the root and the function itself; iteration
        order (sorted adjacency) makes chains deterministic.
        """
        chains: Dict[str, Tuple[str, ...]] = {}
        queue: List[str] = []
        for root in sorted(roots, key=lambda f: f.qname):
            if root.qname not in chains:
                chains[root.qname] = (root.qname,)
                queue.append(root.qname)
        while queue:
            current = queue.pop(0)
            fn = self.functions.get(current)
            if fn is None:
                continue
            for callee in sorted(fn.callees):
                if callee not in chains:
                    chains[callee] = chains[current] + (callee,)
                    queue.append(callee)
        return chains

    def iter_contexts(self) -> Iterator[Tuple[ModuleInfo, FileContext]]:
        for name in sorted(self.modules):
            mod = self.modules[name]
            yield mod, mod.ctx


class ProjectRule(Rule):
    """A rule that analyzes the whole project at once.

    Subclasses implement :meth:`check_project`; the per-file ``check``
    is never driven by the analyzer for these rules. They run only in
    ``--strict`` mode or when explicitly ``--select``-ed.
    """

    def check_project(self, project: ProjectContext) -> List[Finding]:
        raise NotImplementedError

    def project_finding(
        self, path: str, node: Optional[ast.AST], message: str
    ) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            rule_name=self.name,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )
