import ast
import pathlib
import re
import types

import nilorbits

# Imported but not called: perfbench/test_perfbench.py reads it to check that
# the benchmark's tracer restores rebound names (ROADMAP item 6).
UNUSED_ON_PURPOSE = {("correspondence", "lie_member")}

PACKAGE = pathlib.Path(nilorbits.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_all_is_an_explicit_list_of_resolvable_non_module_names():
    assert isinstance(nilorbits.__all__, list)
    assert len(set(nilorbits.__all__)) == len(nilorbits.__all__)
    for name in nilorbits.__all__:
        assert not isinstance(getattr(nilorbits, name), types.ModuleType), name
    for module in ("linalg", "patterns", "correspondence", "quiver", "harness", "cli"):
        assert module not in nilorbits.__all__


def test_every_imported_name_is_used():
    # The lint step: no linter is a dependency, so unused imports are found
    # by comparing each module's imported names with the names it reads.
    unused = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names} - {"annotations"}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.stem, name) for name in imported - used}
    assert unused == UNUSED_ON_PURPOSE


def test_no_floats():
    # The package is exact: no float or imaginary literal and no use of the
    # name float anywhere in its source, found like the unused imports.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            literal = (isinstance(node, ast.Constant)
                       and isinstance(node.value, (float, complex)))
            named = isinstance(node, ast.Name) and node.id == "float"
            if literal or named:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _names_read(path: pathlib.Path) -> set[str]:
    tree = ast.parse(path.read_text())
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_public_name_has_a_user():
    # The public surface holds only what the package itself, the benchmark,
    # the acceptance gate or the README uses; a name only unit tests call is
    # not exported.
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += list((ROOT / "perfbench").glob("*.py"))
    sources.append(ROOT / "tests" / "test_acceptance.py")
    used = set().union(*map(_names_read, sources))
    used |= set(re.findall(r"`(\w+)`", (ROOT / "README.md").read_text()))
    assert sorted(set(nilorbits.__all__) - used) == []


def _json_dumps_calls(node: ast.AST) -> int:
    return sum(1 for call in ast.walk(node)
               if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
               and call.func.attr == "dumps" and isinstance(call.func.value, ast.Name)
               and call.func.value.id == "json")


def test_one_json_encoder_and_one_input_error_root():
    # Every JSON the package writes is canonical because one function,
    # linalg._dumps, writes it: json.dumps is called there and nowhere else,
    # and only linalg imports json.
    total, calls, importers = 0, [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        total += _json_dumps_calls(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) and any(a.name == "json" for a in node.names):
                importers.add(path.stem)
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                importers.add(path.stem)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls += [(path.stem, node.name)] * _json_dumps_calls(node)
    assert total == 1 and calls == [("linalg", "_dumps")]
    assert importers == {"linalg"}
    # Callers catch DomainError alone: a malformed input is one of them.
    assert issubclass(nilorbits.MalformedInputError, nilorbits.DomainError)
