"""Every name a module lists in __all__ exists and is used, and so is every
public method and property of a package class and every private top-level
name: a deletion cannot leave a stale export or helper, and no public
helper exists only for the tests."""

import ast
import functools
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import qselftest

MODULES = ["qselftest"] + [
    f"qselftest.{m.name}" for m in pkgutil.iter_modules(qselftest.__path__)
]
SUBMODULES = {m.rpartition(".")[2] for m in MODULES[1:]}
SRC = Path(qselftest.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


@functools.cache
def _trees() -> dict[str, ast.Module]:
    """The parsed source of each module under src/qselftest, by short name
    ("qselftest" for the package's __init__)."""
    return {
        "qselftest" if path.stem == "__init__" else path.stem: ast.parse(
            path.read_text(encoding="utf-8")
        )
        for path in sorted(SRC.glob("*.py"))
    }


def _uses() -> list[tuple[str, str, ast.AST]]:
    """(module, name, node) for each node of a file under src/qselftest that
    uses a name of a module.

    A use is a Name load in the defining module, a `from .mod import name`,
    or `alias.name` where alias is bound to the module by
    `from . import mod [as alias]`. Definitions and the strings of __all__
    are not loads, so they never count.
    """
    uses = []
    for here, tree in _trees().items():
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None and a.name in SUBMODULES:
                        aliases[a.asname or a.name] = a.name
                    else:
                        uses.append((node.module or "qselftest", a.name, node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.append((here, node.id, node))
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                uses.append((aliases[node.value.id], node.attr, node))
    return uses


def _references() -> set[tuple[str, str]]:
    """(module, name) pairs that some file under src/qselftest uses."""
    return {(mod, name) for mod, name, _ in _uses()}


def _python_api_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Python API\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


def _unused_exports(name: str) -> list[str]:
    mod = importlib.import_module(name)
    short = name.rpartition(".")[2]
    refs = _references()
    api = _python_api_section()
    return [
        n
        for n in getattr(mod, "__all__", ())
        if (short, n) not in refs
        and not re.search(rf"\b{re.escape(short)}\.{re.escape(n)}\b", api)
    ]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_every_export_has_a_caller_or_is_documented(name):
    # each __all__ name is used by the package itself or is a library entry
    # point named in the README's Python API section
    assert not _unused_exports(name)


def _attributes_read() -> set[str]:
    """Every attribute name that some file under src/qselftest reads.

    The check is by name: which class `x.name` reaches is not known
    statically, so any read of `.name` counts for every class."""
    return {
        node.attr
        for tree in _trees().values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _public_members() -> list[tuple[str, str, str]]:
    """(module, class, member) for every public method and property defined
    in the body of a class under src/qselftest; dataclass fields are data,
    not members."""
    out = []
    for here, tree in _trees().items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                out += [
                    (here, cls.name, f.name)
                    for f in cls.body
                    if isinstance(f, ast.FunctionDef)
                    and not f.name.startswith("_")
                ]
    return out


def test_every_public_member_is_read_or_documented():
    # a member is used if src/ reads an attribute of its name, or is part
    # of the library surface if the README's Python API names it as .member
    read = _attributes_read()
    api = _python_api_section()
    unused = [
        f"{mod}.{cls}.{name}"
        for mod, cls, name in _public_members()
        if name not in read and not re.search(rf"\.{re.escape(name)}\b", api)
    ]
    assert not unused


def _private_definitions() -> list[tuple[str, str, ast.stmt]]:
    """(module, name, statement) for every private function, class and
    constant defined at the top level of a module under src/qselftest."""
    out = []
    for here, tree in _trees().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            out += [
                (here, name, node)
                for name in names
                if name.startswith("_") and not name.startswith("__")
            ]
    return out


def test_every_private_name_is_used_in_src():
    # a private helper that only its own body (a recursive call) or the
    # tests use is left over from a path that is gone
    uses = {}
    for mod, name, node in _uses():
        uses.setdefault((mod, name), []).append(node)
    unused = []
    for mod, name, node in _private_definitions():
        inside = {id(n) for n in ast.walk(node)}
        if all(id(u) in inside for u in uses.get((mod, name), ())):
            unused.append(f"{mod}.{name}")
    assert not unused
