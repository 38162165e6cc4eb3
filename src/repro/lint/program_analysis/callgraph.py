"""Whole-program model for the scoutlint program analyzer.

The per-file code checker (:mod:`repro.lint.code_lint`) sees one module
at a time; the rules in this package (lock ordering and determinism
taint) are properties of *call paths*, so they need a program model
first.  :func:`build_program` parses every ``.py`` file
under the given roots and derives:

* per-module import aliases (reusing ``code_lint._normalize_imports``
  and extending it with relative-import resolution, since intra-repo
  imports are mostly ``from ..core import ...``);
* per-class structure: methods, base classes, **lock fields** (any
  ``self.x = threading.Lock()`` — including dict-of-locks collections
  like ``self._team_locks[team] = threading.Lock()``), attribute types
  inferred from ``self.x = ClassName(...)`` / annotated ``__init__``
  parameters, metrics-instrument attributes, set-typed attributes, and
  list-typed log attributes;
* a call graph: call sites resolved through ``self``, typed
  attributes, typed locals, module-level functions, and import
  aliases.  Resolution is deliberately conservative — an unresolvable
  call simply contributes no edge, so downstream rules under-report
  rather than guess.

Everything iterates in sorted order, so two runs over the same tree
(in any input order) produce byte-identical findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from ..code_lint import _dotted_name, _normalize_imports

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "Program",
    "LocalEnv",
    "build_program",
    "module_name_for",
]

_LOCK_FACTORIES = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
}

_INSTRUMENT_METHODS = {"counter", "gauge", "histogram", "bind"}


def module_name_for(path) -> str:
    """Dotted module name: climb parents while ``__init__.py`` exists.

    ``src/repro/serving/manager.py`` → ``repro.serving.manager``; a
    fixture file in a bare temp directory is just its stem.
    """
    path = Path(path)
    parts = [path.stem if path.name != "__init__.py" else None]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed([p for p in parts if p]))


@dataclass
class FunctionInfo:
    """One analyzed function or method."""

    qualname: str
    module: str
    path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_qualname: str | None = None
    params: tuple[str, ...] = ()


@dataclass
class ClassInfo:
    """One analyzed class and the structure the rules care about."""

    qualname: str
    name: str
    module: str
    path: str
    base_names: tuple[str, ...] = ()  # canonical dotted, pre-resolution
    methods: dict[str, str] = field(default_factory=dict)
    # attr -> (factory, line, is_collection): is_collection marks
    # dict-of-locks fields, identified as one lock id with a [] suffix.
    lock_fields: dict[str, tuple[str, int, bool]] = field(default_factory=dict)
    attr_types: dict[str, str] = field(default_factory=dict)
    instrument_attrs: set[str] = field(default_factory=set)
    set_attrs: set[str] = field(default_factory=set)
    list_attrs: set[str] = field(default_factory=set)


@dataclass
class ModuleInfo:
    name: str
    path: str
    tree: ast.Module
    source: str
    aliases: dict[str, str] = field(default_factory=dict)
    functions: dict[str, str] = field(default_factory=dict)  # local -> qualname
    classes: dict[str, str] = field(default_factory=dict)  # local -> qualname
    global_locks: dict[str, tuple[str, int]] = field(default_factory=dict)


def _relative_aliases(tree: ast.Module, module: str) -> dict[str, str]:
    """Aliases for relative imports, which ``_normalize_imports`` skips."""
    package_parts = module.split(".")[:-1]
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        # level=1: current package; each extra level climbs one parent.
        base = package_parts[: len(package_parts) - (node.level - 1)]
        if node.module:
            base = base + node.module.split(".")
        prefix = ".".join(base)
        for item in node.names:
            local = item.asname or item.name
            aliases[local] = f"{prefix}.{item.name}" if prefix else item.name
    return aliases


def _is_lock_annotation(annotation: ast.expr, aliases: dict[str, str]) -> bool:
    """Does an annotation mention a threading lock type anywhere?"""
    for node in ast.walk(annotation):
        name = _dotted_name(node) if isinstance(node, ast.Attribute) else None
        if isinstance(node, ast.Name):
            name = node.id
        if name is None:
            continue
        if _canonical(name, aliases) in _LOCK_FACTORIES:
            return True
    return False


def _canonical(name: str, aliases: dict[str, str]) -> str:
    head, _, rest = name.partition(".")
    head = aliases.get(head, head)
    return f"{head}.{rest}" if rest else head


class Program:
    """The analyzed program: modules, classes, functions, call edges."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}

    # -- class structure -----------------------------------------------------

    def mro(self, class_qualname: str) -> list[ClassInfo]:
        """The class plus analyzed bases, depth-first, cycle-safe."""
        out: list[ClassInfo] = []
        seen: set[str] = set()
        stack = [class_qualname]
        while stack:
            qualname = stack.pop(0)
            if qualname in seen:
                continue
            seen.add(qualname)
            cls = self.classes.get(qualname)
            if cls is None:
                continue
            out.append(cls)
            stack.extend(
                resolved
                for base in cls.base_names
                if (resolved := self._resolve_class_name(cls.module, base))
            )
        return out

    def _resolve_class_name(self, module: str, dotted: str) -> str | None:
        """Canonical dotted name -> analyzed class qualname, or None."""
        info = self.modules.get(module)
        if info is not None and dotted in info.classes:
            return info.classes[dotted]
        if dotted in self.classes:
            return dotted
        # ``repro.serving.breaker.CircuitBreaker`` style full paths.
        head, _, tail = dotted.rpartition(".")
        owner = self.modules.get(head)
        if owner is not None and tail in owner.classes:
            return owner.classes[tail]
        return None

    def lock_field(
        self, class_qualname: str, attr: str
    ) -> tuple[ClassInfo, str, int, bool] | None:
        for cls in self.mro(class_qualname):
            if attr in cls.lock_fields:
                factory, line, is_collection = cls.lock_fields[attr]
                return cls, factory, line, is_collection
        return None

    def method(self, class_qualname: str, name: str) -> str | None:
        for cls in self.mro(class_qualname):
            if name in cls.methods:
                return cls.methods[name]
        return None

    def attr_type(self, class_qualname: str, attr: str) -> str | None:
        for cls in self.mro(class_qualname):
            if attr in cls.attr_types:
                return cls.attr_types[attr]
        return None

    def attr_flag(self, class_qualname: str, attr: str, kind: str) -> bool:
        for cls in self.mro(class_qualname):
            if attr in getattr(cls, kind):
                return True
        return False

    # -- call resolution -----------------------------------------------------

    def resolve_call(
        self, fn: FunctionInfo, call: ast.Call, env: "LocalEnv"
    ) -> list[str]:
        """Function qualnames a call may target (possibly empty).

        A call to an analyzed class resolves to its ``__init__`` (when
        defined) so acquisition/taint inside constructors propagates.
        """
        func = call.func
        module = self.modules[fn.module]
        if isinstance(func, ast.Name):
            name = func.id
            if name in env.local_types:
                return []  # calling an instance: __call__, not modeled
            if name in module.functions:
                return [module.functions[name]]
            if name in module.classes:
                return self._constructor(module.classes[name])
            canonical = _canonical(name, module.aliases)
            return self._lookup(canonical)
        if not isinstance(func, ast.Attribute):
            return []
        # self.m(...) / self.attr.m(...) / typed_local.m(...)
        parts: list[str] = []
        node: ast.expr = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        parts.reverse()
        if isinstance(node, ast.Name):
            head = node.id
            if head == "self" and fn.class_qualname is not None:
                return self._resolve_chain(fn.class_qualname, parts)
            if head in env.local_types:
                return self._resolve_chain(env.local_types[head], parts)
            canonical = _canonical(f"{head}.{'.'.join(parts)}", module.aliases)
            return self._lookup(canonical)
        return []

    def _resolve_chain(
        self, class_qualname: str, parts: list[str]
    ) -> list[str]:
        """Resolve ``attr...method`` against a known receiver class."""
        current = class_qualname
        for attr in parts[:-1]:
            next_type = self.attr_type(current, attr)
            if next_type is None:
                return []
            current = next_type
        target = self.method(current, parts[-1])
        return [target] if target else []

    def _constructor(self, class_qualname: str) -> list[str]:
        init = self.method(class_qualname, "__init__")
        return [init] if init else []

    def _lookup(self, canonical: str) -> list[str]:
        if canonical in self.functions:
            return [canonical]
        if canonical in self.classes:
            return self._constructor(canonical)
        head, _, tail = canonical.rpartition(".")
        owner = self.modules.get(head)
        if owner is not None:
            if tail in owner.functions:
                return [owner.functions[tail]]
            if tail in owner.classes:
                return self._constructor(owner.classes[tail])
        return []

    def canonical_call_name(
        self, fn: FunctionInfo, call: ast.Call
    ) -> str | None:
        """The alias-normalized dotted name of a call target, or None."""
        name = _dotted_name(call.func)
        if name is None:
            return None
        return _canonical(name, self.modules[fn.module].aliases)


@dataclass
class LocalEnv:
    """Per-function local bindings the analyzers share.

    Built in one pre-pass over the function body: lock aliases
    (``team_lock = self._team_locks[team]``), instance types
    (``master = ScoutMaster(...)``), metrics-instrument locals
    (``bound = metrics.counter(...).bind(...)``), and raw-set locals.
    """

    local_locks: dict[str, str] = field(default_factory=dict)
    local_types: dict[str, str] = field(default_factory=dict)
    local_instruments: set[str] = field(default_factory=set)
    local_sets: set[str] = field(default_factory=set)


def build_local_env(program: Program, fn: FunctionInfo) -> LocalEnv:
    env = LocalEnv()
    from .lock_order import resolve_lock_expr  # shared resolver

    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = node.value
        lock = resolve_lock_expr(program, fn, value, env)
        if lock is not None:
            env.local_locks[target.id] = lock
            continue
        if isinstance(value, ast.Call):
            callees = program.resolve_call(fn, value, env)
            for callee in callees:
                info = program.functions.get(callee)
                if info is not None and info.class_qualname is not None \
                        and info.node.name == "__init__":
                    env.local_types[target.id] = info.class_qualname
            if (
                isinstance(value.func, ast.Attribute)
                and value.func.attr in _INSTRUMENT_METHODS
            ):
                env.local_instruments.add(target.id)
            name = program.canonical_call_name(fn, value)
            if name in ("set", "frozenset"):
                env.local_sets.add(target.id)
        elif isinstance(value, ast.Set) or (
            isinstance(value, ast.SetComp)
        ):
            env.local_sets.add(target.id)
    return env


# -- construction ------------------------------------------------------------


def _collect_class(
    program: Program, module: ModuleInfo, node: ast.ClassDef
) -> None:
    qualname = f"{module.name}.{node.name}"
    cls = ClassInfo(
        qualname=qualname,
        name=node.name,
        module=module.name,
        path=module.path,
        base_names=tuple(
            _canonical(base_name, module.aliases)
            for base in node.bases
            if (
                base_name := (
                    base.id
                    if isinstance(base, ast.Name)
                    else _dotted_name(base)
                )
            )
        ),
    )
    program.classes[qualname] = cls
    module.classes[node.name] = qualname
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn_qualname = f"{qualname}.{item.name}"
            cls.methods[item.name] = fn_qualname
            program.functions[fn_qualname] = FunctionInfo(
                qualname=fn_qualname,
                module=module.name,
                path=module.path,
                node=item,
                class_qualname=qualname,
                params=tuple(arg.arg for arg in item.args.args),
            )
    _collect_self_attrs(program, module, cls)


def _annotation_class(
    annotation: ast.expr | None, module: ModuleInfo
) -> str | None:
    """Resolve a parameter annotation to an analyzed-class name."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        name = annotation.value.strip("'\"")
    elif isinstance(annotation, ast.Name):
        name = annotation.id
    elif isinstance(annotation, ast.Attribute):
        name = _dotted_name(annotation)
    else:
        return None
    if name is None:
        return None
    return _canonical(name, module.aliases)


def _collect_self_attrs(
    program: Program, module: ModuleInfo, cls: ClassInfo
) -> None:
    """Scan every method for ``self.x = ...`` structure."""
    for method_name in sorted(cls.methods):
        fn = program.functions[cls.methods[method_name]]
        param_types: dict[str, str] = {}
        for arg in fn.node.args.args:
            resolved = _annotation_class(arg.annotation, module)
            if resolved is not None:
                param_types[arg.arg] = resolved
        for node in ast.walk(fn.node):
            if isinstance(node, ast.AnnAssign):
                targets = [node.target]
                value = node.value
                annotation = node.annotation
            elif isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
                annotation = None
            else:
                continue
            for target in targets:
                _record_self_attr(
                    program, module, cls, target, value,
                    annotation, param_types,
                )


def _record_self_attr(
    program: Program,
    module: ModuleInfo,
    cls: ClassInfo,
    target: ast.expr,
    value: ast.expr | None,
    annotation: ast.expr | None,
    param_types: dict[str, str],
) -> None:
    # self.x[...] = threading.Lock(): a dict-of-locks collection field.
    if (
        isinstance(target, ast.Subscript)
        and isinstance(target.value, ast.Attribute)
        and isinstance(target.value.value, ast.Name)
        and target.value.value.id == "self"
        and isinstance(value, ast.Call)
    ):
        name = _dotted_name(value.func)
        if name and _canonical(name, module.aliases) in _LOCK_FACTORIES:
            cls.lock_fields.setdefault(
                target.value.attr,
                (_canonical(name, module.aliases), value.lineno, True),
            )
        return
    if not (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return
    attr = target.attr
    # An annotated dict-of-locks declaration: dict[str, threading.Lock].
    if annotation is not None and _is_lock_annotation(
        annotation, module.aliases
    ):
        collection = not isinstance(value, ast.Call)
        cls.lock_fields.setdefault(
            attr, ("threading.Lock", target.lineno, collection)
        )
        return
    if value is None:
        return
    if isinstance(value, ast.Call):
        name = _dotted_name(value.func)
        canonical = _canonical(name, module.aliases) if name else None
        if canonical in _LOCK_FACTORIES:
            cls.lock_fields.setdefault(attr, (canonical, value.lineno, False))
            return
        if (
            isinstance(value.func, ast.Attribute)
            and value.func.attr in _INSTRUMENT_METHODS
        ):
            cls.instrument_attrs.add(attr)
            return
        if canonical in ("set", "frozenset"):
            cls.set_attrs.add(attr)
            return
        if canonical in ("list", "dict"):
            if canonical == "list":
                cls.list_attrs.add(attr)
            return
        if canonical is not None:
            resolved = program._resolve_class_name(module.name, canonical)
            if resolved is not None:
                cls.attr_types.setdefault(attr, resolved)
        return
    if isinstance(value, (ast.Set, ast.SetComp)):
        cls.set_attrs.add(attr)
        return
    if isinstance(value, (ast.List, ast.ListComp)):
        cls.list_attrs.add(attr)
        return
    if isinstance(value, ast.Name) and value.id in param_types:
        # self.registry = registry, with ``registry: TeamRegistry``.
        resolved = program._resolve_class_name(
            module.name, param_types[value.id]
        )
        if resolved is not None:
            cls.attr_types.setdefault(attr, resolved)


def build_program(paths) -> Program:
    """Parse every ``.py`` file under ``paths`` into a :class:`Program`.

    Files that fail to parse are skipped here — the per-file code
    checker already reports them as ``syntax-error`` findings.
    """
    files: list[Path] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            files.extend(
                p for p in entry.rglob("*.py") if "__pycache__" not in p.parts
            )
        else:
            files.append(entry)
    files = sorted(set(files), key=lambda p: str(p))

    program = Program()
    for path in files:
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue
        name = module_name_for(path)
        aliases = _normalize_imports(tree)
        aliases.update(_relative_aliases(tree, name))
        module = ModuleInfo(
            name=name, path=str(path), tree=tree, source=source,
            aliases=aliases,
        )
        program.modules[name] = module
    # Two passes: classes/functions first, then attribute structure that
    # needs cross-module class resolution.
    for name in sorted(program.modules):
        module = program.modules[name]
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{module.name}.{node.name}"
                module.functions[node.name] = qualname
                program.functions[qualname] = FunctionInfo(
                    qualname=qualname,
                    module=module.name,
                    path=module.path,
                    node=node,
                    params=tuple(arg.arg for arg in node.args.args),
                )
            elif isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                call_name = _dotted_name(node.value.func)
                canonical = (
                    _canonical(call_name, module.aliases)
                    if call_name
                    else None
                )
                if canonical in _LOCK_FACTORIES:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            module.global_locks[target.id] = (
                                canonical, node.value.lineno
                            )
    for name in sorted(program.modules):
        module = program.modules[name]
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                _collect_class(program, module, node)
    return program
