"""Static checks on the package sources, with the standard library's ast:
every ``__all__`` name exists, every imported name is used and the public
settable values keep their count."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "eit3"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def parse(name):
    return ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)


def imported_names(tree):
    """Names bound by import statements anywhere in the module, except
    ``from __future__`` imports."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def module_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names | set(imported_names(tree))


def dunder_all(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def settable_values(tree):
    """The parameters of the functions and the fields of the dataclasses
    that the module's ``__all__`` names."""
    public = set(dunder_all(tree))
    count = 0
    for node in tree.body:
        if getattr(node, "name", None) not in public:
            continue
        if isinstance(node, ast.FunctionDef):
            a = node.args
            count += len([*a.posonlyargs, *a.args, *a.kwonlyargs,
                          *filter(None, [a.vararg, a.kwarg])])
        elif (isinstance(node, ast.ClassDef)
              and any("dataclass" in ast.unparse(d) for d in node.decorator_list)):
            count += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    return count


@pytest.mark.parametrize("module", MODULES)
def test_dunder_all_names_exist(module):
    tree = parse(module)
    missing = sorted(set(dunder_all(tree)) - module_level_names(tree))
    assert not missing, f"{module}: __all__ lists undefined {missing}"


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = parse(module)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(dunder_all(tree))
    unused = sorted(f"{name} (line {line})"
                    for name, line in imported_names(tree).items()
                    if name not in used)
    assert not unused, f"{module}: unused imports {unused}"


def test_public_settable_values_keep_their_count():
    # a public parameter or dataclass field added or removed changes this
    # number on purpose, with the count in ROADMAP.md
    assert sum(settable_values(parse(module)) for module in MODULES) == 85
