"""Every option has a caller: a default that no call overrides is a constant.

A defaulted parameter that no call site ever sets has run with one value
only: no test, benchmark or user path has tried another.  This gate audits
the abstract syntax trees of the call corpus and fails on each such
parameter, so an option lands together with a caller that sets it.

Scope: every defaulted parameter of a public function, method or
``__init__`` in ``src/repro/`` (``_validation.py`` included; a name with a
leading underscore is private), and every defaulted field of a dataclass
whose name ends in ``Config``.

Corpus: every call in ``src/``, ``tests/``, ``benchmarks/``,
``perfbench/*.py`` and ``examples/``, and in the fenced ``python`` blocks of
``README.md`` and ``docs/*.md``.  Calls resolve by name, after undoing
``from … import X as Y`` aliases: ``f(…)`` reaches the functions and classes
named ``f``, ``x.f(…)`` also the methods named ``f``, ``super().__init__(…)``
the bases' ``__init__``, and ``dataclasses.replace(c, f=…)`` the field ``f``
of every config.  A parameter counts as set when a call passes it by
keyword, reaches its position, or passes ``*args`` (from its position on)
or ``**kwargs``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from tests.test_docs_sync import fenced_blocks

REPO = Path(__file__).resolve().parent.parent

#: Options that are set by a call the name-based audit cannot see, each
#: with the reason.
ALLOWLIST = {
    "repro.solvers.preconditioners:IdentityPrecond.__init__(a=)": (
        "the _PRECONDITIONERS registry builds every preconditioner as cls(a)"
    ),
}


@dataclass
class Signature:
    entry: str  # "module:Qual.name(" — completed with "param=)" per option
    offset: int  # leading positional slots a call does not fill (self, cls)
    positional: list[str]  # every positional parameter, in order
    defaulted: set[str]  # the options: defaulted parameters in scope
    set_by_call: set[str] = field(default_factory=set)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _decorator_names(node) -> set[str]:
    return {d.id for d in node.decorator_list if isinstance(d, ast.Name)}


def _base_names(node: ast.ClassDef) -> list[str]:
    return [b.id if isinstance(b, ast.Name) else getattr(b, "attr", "") for b in node.bases]


class _Index:
    """Definitions in scope, keyed by the names a call can reach them by."""

    def __init__(self) -> None:
        self.functions: dict[str, list[Signature]] = {}  # module-level
        self.methods: dict[str, list[Signature]] = {}  # reached as x.m(...)
        self.classes: dict[str, list[tuple[list[str], Signature | None]]] = {}
        self.configs: list[Signature] = []

    def add_module(self, module: str, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions.setdefault(node.name, []).append(
                    self._signature(module, node.name, node, 0)
                )
            elif isinstance(node, ast.ClassDef):
                self._add_class(module, node)

    def _add_class(self, module: str, node: ast.ClassDef) -> None:
        init = None
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            decorators = _decorator_names(item)
            if "property" in decorators:
                continue
            offset = 0 if "staticmethod" in decorators else 1
            sig = self._signature(module, f"{node.name}.{item.name}", item, offset)
            if item.name == "__init__":
                init = sig
            self.methods.setdefault(item.name, []).append(sig)
        if init is None and _is_dataclass(node):
            init = self._dataclass_signature(module, node)
        self.classes.setdefault(node.name, []).append((_base_names(node), init))

    @staticmethod
    def _signature(module: str, qualname: str, node, offset: int) -> Signature:
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        public = not node.name.startswith("_") or node.name == "__init__"
        return Signature(
            entry=f"{module}:{qualname}(",
            offset=offset,
            positional=positional,
            defaulted={p for p in defaulted if not p.startswith("_")} if public else set(),
        )

    def _dataclass_signature(self, module: str, node: ast.ClassDef) -> Signature:
        fields, defaulted = [], set()
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                if "ClassVar" in ast.unparse(item.annotation):
                    continue
                fields.append(item.target.id)
                if item.value is not None:
                    defaulted.add(item.target.id)
        sig = Signature(
            entry=f"{module}:{node.name}(",
            offset=0,
            positional=fields,
            defaulted=defaulted if node.name.endswith("Config") else set(),
        )
        if node.name.endswith("Config"):
            self.configs.append(sig)
        return sig

    def inits(self, name: str, seen: frozenset = frozenset()) -> list[Signature]:
        """The __init__ signatures a call to the class ``name`` reaches."""
        out = []
        for bases, init in self.classes.get(name, []):
            if init is not None:
                out.append(init)
            else:
                for base in bases:
                    if base not in seen:
                        out += self.inits(base, seen | {name})
        return out


def _mark(sig: Signature, call: ast.Call) -> None:
    """Record the parameters of ``sig`` that ``call`` sets."""
    params = sig.positional[sig.offset:]
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            sig.set_by_call.update(params[i:])
            break
        if i < len(params):
            sig.set_by_call.add(params[i])
    for kw in call.keywords:
        if kw.arg is None:
            sig.set_by_call.update(sig.positional, sig.defaulted)
        else:
            sig.set_by_call.add(kw.arg)


def _aliases(tree: ast.Module) -> dict[str, str]:
    return {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.asname
    }


def _record_calls(index: _Index, tree: ast.Module) -> None:
    aliases = _aliases(tree)
    # id(node) -> bases of the innermost class around it (the walk is
    # breadth-first, so an inner class overwrites its outer class)
    enclosing_bases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in ast.walk(node):
                enclosing_bases[id(item)] = _base_names(node)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name, targets = aliases.get(func.id, func.id), []
        elif isinstance(func, ast.Attribute):
            name, targets = func.attr, list(index.methods.get(func.attr, []))
        else:
            continue
        if name == "replace" and node.args:  # dataclasses.replace(config, field=...)
            for sig in index.configs:
                sig.set_by_call.update(kw.arg for kw in node.keywords if kw.arg)
            continue
        receiver = getattr(func, "value", None)
        if name == "__init__" and getattr(getattr(receiver, "func", None), "id", "") == "super":
            targets = [sig for base in enclosing_bases.get(id(node), []) for sig in index.inits(base)]
        else:
            targets += index.functions.get(name, []) + index.inits(name)
        for sig in targets:
            _mark(sig, node)


def _corpus_sources(root: Path) -> list[str]:
    paths = [
        *sorted((root / "src").rglob("*.py")),
        *sorted((root / "tests").rglob("*.py")),
        *sorted((root / "benchmarks").rglob("*.py")),
        *sorted((root / "perfbench").glob("*.py")),
        *sorted((root / "examples").rglob("*.py")),
    ]
    sources = [p.read_text() for p in paths]
    for doc in [root / "README.md", *sorted((root / "docs").glob("*.md"))]:
        sources += [body for lang, body, _ in fenced_blocks(doc.read_text()) if lang == "python"]
    return sources


def unset_options(root: Path = REPO) -> list[str]:
    """Every option in scope under ``root`` that no call in its corpus sets."""
    index = _Index()
    src = root / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        index.add_module(module, ast.parse(path.read_text()))
    for source in _corpus_sources(root):
        _record_calls(index, ast.parse(source))
    signatures = [sig for sigs in index.functions.values() for sig in sigs]
    signatures += [sig for sigs in index.methods.values() for sig in sigs]
    signatures += index.configs
    return sorted(
        {
            f"{sig.entry}{param}=)"
            for sig in signatures
            for param in sig.defaulted - sig.set_by_call
        }
    )


@pytest.fixture(scope="module")
def unset() -> list[str]:
    return unset_options()


def test_every_option_has_a_caller(unset):
    missing = [entry for entry in unset if entry not in ALLOWLIST]
    assert not missing, (
        "options that no call sets (make each a constant, or add the call "
        f"that needs another value): {missing}"
    )


def test_every_allowlist_entry_is_still_needed(unset):
    stale = sorted(set(ALLOWLIST) - set(unset))
    assert not stale, f"allowlisted options that a call now sets, or that are gone: {stale}"
