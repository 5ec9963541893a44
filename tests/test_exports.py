"""Every name a module lists in __all__ exists and is used, and so is every
public method and property of a package class: a deletion cannot leave a
stale export, and no public helper exists only for the tests."""

import ast
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


def _references() -> set[tuple[str, str]]:
    """(module, name) pairs that some file under src/qselftest uses.

    A use is a Name load in the defining module, a `from .mod import name`,
    or `alias.name` where alias is bound to the module by
    `from . import mod [as alias]`. Definitions and the strings of __all__
    are not loads, so they never count.
    """
    refs = set()
    for path in SRC.glob("*.py"):
        here = "qselftest" if path.stem == "__init__" else path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None and a.name in SUBMODULES:
                        aliases[a.asname or a.name] = a.name
                    else:
                        refs.add((node.module or "qselftest", a.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add((here, node.id))
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                refs.add((aliases[node.value.id], node.attr))
    return refs


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
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def _public_members() -> list[tuple[str, str, str]]:
    """(module, class, member) for every public method and property defined
    in the body of a class under src/qselftest; dataclass fields are data,
    not members."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(cls, ast.ClassDef):
                out += [
                    (path.stem, cls.name, f.name)
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
