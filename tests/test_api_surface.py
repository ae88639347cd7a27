"""Guard: every definition in src/galdual has a caller outside the tests.

The library is what the verifier, the command line, the scripts and the
benchmark call.  This walks src/galdual/*.py with ``ast`` and collects the
names it references (``Name`` and ``Attribute`` nodes, so a docstring or
comment mention does not count), then checks every module-level function and
class and every method against them.  A reference counts when it comes from
scripts/, from perfbench/, or from src/ outside the definition's own body and
outside ``__init__.py``, whose re-exports are no call.  Tests do not count.

Exempt are dunder methods (Python calls them) and the few helpers kept for
open ROADMAP items below.  The names the README lists as public API get no
exemption: a public name needs a caller like every other definition.

Fields of dataclasses and NamedTuples get the same guard: a field must be
read as an attribute somewhere in src/galdual (its own class's methods
count, since they are checked above), scripts/ or perfbench/.  Reads inside
the class's own ``__post_init__`` do not count: a field that only its own
validation reads is still never used.  A field that is only ever set is dead
weight in every instance.  Like the definitions, fields are matched by name,
so one that shares its name with an attribute read elsewhere would pass.
Hence every field whose name two or more record classes declare must be
listed in SHARED_FIELD_READERS, with a function that reads it; the guard
fails on a shared field that is not listed, on a stale entry and on a
listed function that does not read the field.

The library computes exactly, so a guard rejects floating point in
src/galdual: float and complex literals, calls of ``float`` and true
division, ``/`` and ``/=``.  A 4x4 matrix mod l has one encoding, the
packed int, so a guard rejects any ``Name`` or ``Attribute`` node
``ModMatrix`` in src/galdual; that row class lives in tests/oracles.py as
the tests' reference.  Likewise the library has one row reduction over F_l,
groupengine's packed ``_kernel``: a guard rejects the list-row routines
``_echelon_mod``, ``_rank_mod`` and ``_nullspace_mod`` in src/galdual under
any name node, definition or import, since they live in tests/oracles.py
too.  A last guard rejects a name that a src/galdual module imports and
never reads (``__init__.py`` reads what its ``__all__`` lists), the import a
refactor leaves behind.
"""

import ast
import re
from pathlib import Path

import galdual

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "galdual"

# Kept without a production caller, each for an open ROADMAP item.
KEEPERS = {
    # ROADMAP item 2: prove generation by the canonical points for every prime
    "generator_word",
    "evaluate_word",
    "_dlog",
    # ROADMAP item 4: the control census on the principal form, Sp4(F_2) = S6
    "principal_pairing_mod2",
    "alternating_forms",
    "form_orbit",
}

# Fields kept without a reader outside the tests, as "Class.field".
FIELD_KEEPERS = {
    # Smith certificate, ROADMAP item 5: the transforms and the prime they
    # are integral at, which a re-verification needs
    "SmithForm.ell",
    "SmithForm.left",
    "SmithForm.right",
}

# Fields whose name another record class also declares, as "Class.field",
# each with a function that reads it on an instance of that class:
# "path from the repo root:function", or "path:Class.method".
SHARED_FIELD_READERS = {
    "ParamPoint.a": "src/galdual/paramgroups.py:_record",
    "PointRecord.a": "perfbench/workloads.py:_check_records",
    "ParamPoint.d": "src/galdual/paramgroups.py:_record",
    "PointRecord.d": "perfbench/workloads.py:_check_records",
    "ParamPoint.ell": "src/galdual/paramgroups.py:_record",
    "LAdicMatrix.ell": "src/galdual/exactmat.py:LAdicMatrix.inv",
    "KernelSpec.ell": "src/galdual/lattice.py:change_basis_from_kernel",
    "ImageGroup.ell": "src/galdual/verifier.py:_orbit_count",
    "StructureInvariants.order": "src/galdual/verifier.py:_check_census_576",
    "SubgroupClassRecord.order": "src/galdual/formstab.py:format_census",
}


def _readme_public_api() -> set:
    """The names the README's "Public API" section lists, module by module,
    on lines of the form "- `galdual.module`: `name`, `name`, ...".
    """
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## Public API\n(.*?)(?=^## )", text, re.M | re.S)
    assert section, "README.md has no '## Public API' section"
    names = set()
    for line in section.group(1).splitlines():
        if line.startswith("- `galdual."):
            names.update(re.findall(r"`(\w+)`", line.partition(":")[2]))
    return names


def _definitions(tree: ast.Module):
    """(name, node) for module-level functions and classes and their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item


def _references(tree: ast.AST):
    """(name, line) for every Name and Attribute node under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _uncalled() -> list:
    modules = {
        path: _parse(path)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    outside = set()
    for directory in ("scripts", "perfbench"):
        for path in sorted((ROOT / directory).glob("*.py")):
            outside.update(name for name, _ in _references(_parse(path)))
    refs = {path: list(_references(tree)) for path, tree in modules.items()}

    uncalled = []
    for path, tree in modules.items():
        for name, node in _definitions(tree):
            if name in KEEPERS or (name.startswith("__") and name.endswith("__")):
                continue
            if name in outside:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if any(
                ref == name and not (other == path and line in own)
                for other, found in refs.items()
                for ref, line in found
            ):
                continue
            uncalled.append(f"{path.name}:{node.lineno} {name}")
    return uncalled


def _is_record(node: ast.ClassDef) -> bool:
    """Whether the class is a dataclass or a NamedTuple."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(getattr(d, "id", None) == "dataclass" for d in decorators) or any(
        getattr(base, "id", None) == "NamedTuple" for base in node.bases
    )


def _fields(tree: ast.Module):
    """(class name, field name, line) for every dataclass and NamedTuple field."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_record(node):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id, item.lineno


def _unread_fields() -> list:
    modules = {
        path: _parse(path)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    trees = list(modules.values()) + [
        _parse(path)
        for directory in ("scripts", "perfbench")
        for path in sorted((ROOT / directory).glob("*.py"))
    ]
    reads = set()  # (attribute, class whose __post_init__ reads it, or None)
    for tree in trees:
        in_post_init = {
            id(node): cls.name
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for item in cls.body
            if isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
            for node in ast.walk(item)
        }
        reads.update(
            (node.attr, in_post_init.get(id(node)))
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
        )
    return [
        f"{path.name}:{line} {cls}.{field}"
        for path, tree in modules.items()
        for cls, field, line in _fields(tree)
        if not any(attr == field and owner != cls for attr, owner in reads)
        and f"{cls}.{field}" not in FIELD_KEEPERS
    ]


def _shared_fields() -> set:
    """"Class.field" for every field whose name two or more record classes declare."""
    declared = [
        (cls, field)
        for path in PACKAGE.glob("*.py")
        for cls, field, _ in _fields(_parse(path))
    ]
    names = [field for _, field in declared]
    return {f"{cls}.{field}" for cls, field in declared if names.count(field) > 1}


def _function(tree: ast.Module, qualname: str):
    """The module-level function or the method ``Class.method`` named, or None."""
    node = tree
    for part in qualname.split("."):
        node = next(
            (
                item
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.ClassDef)) and item.name == part
            ),
            None,
        )
        if node is None:
            return None
    return node if isinstance(node, ast.FunctionDef) else None


def _shared_field_problems() -> list:
    shared = _shared_fields()
    problems = [
        f"{name}: shared field with no entry in SHARED_FIELD_READERS"
        for name in sorted(shared - set(SHARED_FIELD_READERS) - FIELD_KEEPERS)
    ]
    for name, where in sorted(SHARED_FIELD_READERS.items()):
        if name not in shared or name in FIELD_KEEPERS:
            problems.append(f"{name}: stale entry, not a shared unkept field")
            continue
        field = name.partition(".")[2]
        path, _, qualname = where.partition(":")
        func = _function(_parse(ROOT / path), qualname) if (ROOT / path).is_file() else None
        if func is None or func.name == "__post_init__":
            problems.append(f"{name}: {where} is not a function outside __post_init__")
        elif not any(
            isinstance(node, ast.Attribute) and node.attr == field for node in ast.walk(func)
        ):
            problems.append(f"{name}: {where} does not read .{field}")
    return problems


def _floating_point() -> list:
    """Float literals, float() calls and true divisions in src/galdual."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if (
                (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
                or (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float")
                or (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div))
            ):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    return found


def _second_matrix_encoding() -> list:
    """Name and Attribute nodes in src/galdual that refer to ModMatrix."""
    return [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in _references(_parse(path))
        if name == "ModMatrix"
    ]


LIST_ROW_REDUCTIONS = {"_echelon_mod", "_rank_mod", "_nullspace_mod"}


def _list_row_reductions() -> list:
    """Name, Attribute, definition and import nodes in src/galdual that
    name a list-row reduction."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.alias):
                names = {node.name.rpartition(".")[2], node.asname}
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            else:
                names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if names & LIST_ROW_REDUCTIONS:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')} {ast.unparse(node)}")
    return found


def _unread_imports() -> list:
    """Names a src/galdual module imports but never reads as a ``Name``
    (``__future__`` features aside; ``__init__.py`` reads its ``__all__``)."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            read |= set(galdual.__all__)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in read:
                        found.append(f"{path.name}:{node.lineno} {bound}")
    return found


def test_every_definition_has_a_caller_outside_the_tests():
    assert _uncalled() == []


def test_every_field_is_read_outside_the_tests():
    assert _unread_fields() == []


def test_every_shared_field_names_where_it_is_read():
    assert _shared_field_problems() == []


def test_readme_public_api_is_the_package_all():
    assert _readme_public_api() == set(galdual.__all__)


def test_keepers_are_still_defined():
    defined = {
        name
        for path in PACKAGE.glob("*.py")
        for name, _ in _definitions(_parse(path))
    }
    assert KEEPERS <= defined
    fields = {
        f"{cls}.{field}"
        for path in PACKAGE.glob("*.py")
        for cls, field, _ in _fields(_parse(path))
    }
    assert FIELD_KEEPERS <= fields


def test_the_library_uses_no_floating_point():
    assert _floating_point() == []


def test_the_library_has_no_second_matrix_encoding():
    assert _second_matrix_encoding() == []


def test_the_library_has_one_row_reduction_over_f_l():
    assert _list_row_reductions() == []


def test_every_import_is_read():
    assert _unread_imports() == []
