import ast
import importlib
import pathlib
import re
import types

import nilorbits
from nilorbits import patterns
from nilorbits.cli import main

# Imported but not called: perfbench/test_perfbench.py reads it to check that
# the benchmark's tracer restores rebound names (ROADMAP item 1).
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


def _calls(node, name: str) -> int:
    return sum(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
               and call.func.id == name for call in ast.walk(node))


def test_one_elimination_kernel_and_one_gcd_importer():
    # Rank, the two dimension solvers and the rank signature all eliminate
    # through linalg._eliminate: it is defined once, each of them calls it
    # (the rank signature through `_delta_positions`, which the conjugation
    # check's `_identify_rows` shares), and only linalg imports gcd, so no
    # module reduces rows on its own.
    # The flag rule is stated once too, in linalg._keeps: the parabolic's
    # coordinates keep the flag by it, and so do the stabilizer's unknowns
    # on V_k, which `symmetric_endo_dim` solves on with A_omega alone from
    # the basis rows and the loop rows.  No inclusion arrows are built.
    defined = {"_eliminate": [], "_coordinates": [], "_keeps": [],
               "_intertwiner_rows": [], "_inclusions": []}
    callers = {name: {} for name in (*defined, "_delta_positions")}
    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                if node.name in defined:
                    defined[node.name].append(path.stem)
                for name, found in callers.items():
                    if count := _calls(node, name):
                        found[node.name] = count
            if (isinstance(node, ast.ImportFrom) and node.module == "math"
                    and any(a.name == "gcd" for a in node.names)
                    or isinstance(node, ast.Attribute) and node.attr == "gcd"):
                importers.add(path.stem)
    assert defined == {"_eliminate": ["linalg"], "_coordinates": ["linalg"],
                       "_keeps": ["linalg"], "_intertwiner_rows": ["linalg"],
                       "_inclusions": []}
    assert {"rank", "_orbit_dimension", "symmetric_endo_dim",
            "_delta_positions"} <= set(callers["_eliminate"])
    assert callers["_delta_positions"] == {"rank_signature": 1, "_identify_rows": 1}
    assert "parabolic_dim" not in callers["_eliminate"]
    assert callers["_coordinates"] == {"parabolic_dim": 1, "_orbit_dimension": 1,
                                       "_root_elements": 1, "symmetric_endo_dim": 1}
    assert set(callers["_keeps"]) == {"_coordinates", "symmetric_endo_dim"}
    assert callers["_intertwiner_rows"]["symmetric_endo_dim"] == 2
    assert callers["_eliminate"]["_orbit_dimension"] == 1
    assert importers == {"linalg"}


def test_the_form_is_applied_by_signed_row_reversal():
    # F is anti-diagonal with entries +-1, so no library function forms it
    # or an identity: F m is `linalg._form_times`, which the group test and
    # the isotropy check of a flag representation call, and the root
    # elements are read off the coordinates.  `form_matrix` stays public as
    # the dense reference of the tests and the acceptance gate.
    dense, form_times = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if (isinstance(func, ast.Name) and func.id == "form_matrix"
                        or isinstance(func, ast.Attribute) and func.attr == "identity"
                        and isinstance(func.value, ast.Name) and func.value.id == "Matrix"):
                    dense.append((path.stem, node.name))
            if _calls(node, "_form_times"):
                form_times.add((path.stem, node.name))
    assert dense == []
    assert form_times == {("linalg", "group_member"), ("quiver", "__post_init__")}


def test_dense_pairs_are_built_on_integer_rows():
    # The dense Borel pairs, the exponential behind them and the root words
    # are drawn, summed and scaled on integer rows: none of these functions
    # builds a Fraction or multiplies Matrix objects.  The torus is drawn
    # once, as integer multipliers: `_torus_scales` is the harness's only
    # lcm caller, and both the root words and the dense pairs draw it.  One
    # row kernel serves both sides of a word, so `_col_ops` is gone, and so
    # are the Fraction diagonal `_torus_diagonal` and `_torus`.
    tree = ast.parse((PACKAGE / "harness.py").read_text())
    funcs = {node.name: node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)}
    for name in ("exp_nilpotent", "_exp_ints", "_unipotent", "random_group_element_pair",
                 "_root_word", "_word_act", "_row_ops"):
        assert _calls(funcs[name], "Fraction") == 0, name
        assert not any(isinstance(op, ast.MatMult) for op in ast.walk(funcs[name])), name
    assert not {"_torus", "_col_ops", "_torus_diagonal"} & set(funcs)
    scales = {name for name, node in funcs.items()
              if _calls(node, "lcm") or any(isinstance(a, ast.Attribute)
                                            and a.attr in ("numerator", "denominator")
                                            for a in ast.walk(node))}
    assert scales == {"_torus_scales"}
    callers = {name for name, node in funcs.items() if _calls(node, "_torus_scales")}
    assert callers == {"_root_word", "random_group_element_pair"}


def test_root_word_conjugates_stay_integer_rows():
    # The conjugation check reads a conjugate as the integer rows and the
    # denominator the word action leaves: `_word_act` makes no Matrix and
    # no Fraction, and `_identify_rows` gates and decodes them.  The form
    # and square scans are stated once each, in linalg, and read rows, so
    # the Matrix gate and the integer gate share them.
    tree = ast.parse((PACKAGE / "harness.py").read_text())
    act = next(node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "_word_act")
    made = [ast.unparse(call.func) for call in ast.walk(act) if isinstance(call, ast.Call)
            and (isinstance(call.func, ast.Name) and call.func.id in ("Matrix", "Fraction")
                 or isinstance(call.func, ast.Attribute)
                 and (call.func.attr == "_from_ints" or ast.unparse(call.func.value) == "Matrix"))]
    assert made == []
    defined = {"_lie_violation": [], "_square_violation": []}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in defined:
                defined[node.name].append(path.stem)
    assert defined == {"_lie_violation": ["linalg"], "_square_violation": ["linalg"]}


def test_the_standard_flag_is_written_on_integer_rows():
    # `realize_flag` writes [I; 0] and its zero loop as integer rows, so the
    # rank and 2-nilpotency checks of `SymmetricRep` read rows already
    # cleared: it makes no Fraction and calls neither `from_rows` nor
    # `Matrix.zero`.
    tree = ast.parse((PACKAGE / "quiver.py").read_text())
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "realize_flag")
    made = [ast.unparse(call.func) for call in ast.walk(func) if isinstance(call, ast.Call)
            and (isinstance(call.func, ast.Name) and call.func.id == "Fraction"
                 or isinstance(call.func, ast.Attribute)
                 and call.func.attr in ("from_rows", "zero", "Fraction"))]
    assert made == []


def test_arc_states_its_hash_and_its_pickling_once():
    # `Arc` keeps the dataclass hash, worked out once, and rebuilds itself
    # through its constructor when pickled or copied: each is one method
    # of the class body, and no other hook bypasses the rebuild.
    tree = ast.parse((PACKAGE / "patterns.py").read_text())
    arc = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "Arc")
    methods = [node.name for node in arc.body if isinstance(node, ast.FunctionDef)]
    assert methods.count("__hash__") == 1 and methods.count("__reduce__") == 1
    assert not {"__reduce_ex__", "__getstate__", "__setstate__", "__copy__",
                "__deepcopy__"} & set(methods)


def test_one_arc_table_read_off_the_mates():
    # The arc <-> matrix-unit dictionary is stated once: correspondence's
    # _arc_table folds linalg._mates, and both directions of the
    # correspondence read it, so the representative's signs are the form's.
    # Only the pattern layer walks arc types and their capacity costs.
    defined, callers = [], {name: set() for name in
                            ("_arc_table", "_mates", "_arc_types", "_arc_cost")}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                if node.name == "_arc_table":
                    defined.append(path.stem)
                for name, found in callers.items():
                    if _calls(node, name):
                        found.add((path.stem, node.name))
    assert defined == ["correspondence"]
    assert callers["_arc_table"] == {("correspondence", "pattern_to_matrix"),
                                     ("correspondence", "_decode"),
                                     ("correspondence", "identify"),
                                     ("correspondence", "_identify_rows")}
    assert ("correspondence", "_arc_table") in callers["_mates"]
    assert {module for module, _ in callers["_arc_types"] | callers["_arc_cost"]} == {"patterns"}
    assert "eps" not in _names_read(PACKAGE / "correspondence.py")


def test_cli_identify_solves_on_the_decoded_representative():
    # The orbit dimension is constant on a P-orbit, so CLI `identify` solves
    # it on the representative of the pattern it decoded, never on the
    # conjugated input, whose cleared rows grow under elimination.  That
    # representative is a member with x^2 = 0 by construction, so the
    # solve is the ungated `_orbit_dimension`: only the input is gated.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    handler = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "_cmd_identify")
    solves = [call for call in ast.walk(handler) if isinstance(call, ast.Call)
              and isinstance(call.func, ast.Name) and call.func.id == "_orbit_dimension"]
    assert len(solves) == 1
    (point, _), keywords = solves[0].args, solves[0].keywords
    assert keywords == []
    assert isinstance(point, ast.Call) and isinstance(point.func, ast.Name)
    assert point.func.id == "parabolic_representative"


def test_public_orbit_dimension_gates_before_the_ungated_solve():
    # `orbit_dimension` takes any matrix, so it refuses a non-member or an
    # x with x^2 != 0 before it solves; the ungated `_orbit_dimension` has
    # two callers, that gate and CLI `identify` on its representative.
    tree = ast.parse((PACKAGE / "linalg.py").read_text())
    public = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "orbit_dimension")
    calls = [call.func.id for call in ast.walk(public)
             if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)]
    assert calls == ["require_two_nilpotent", "_orbit_dimension"]
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and _calls(node, "_orbit_dimension"):
                callers.add((path.stem, node.name))
    assert callers == {("linalg", "orbit_dimension"), ("cli", "_cmd_identify")}


def test_cli_calls_no_membership_check():
    # The membership gate lives in the library alone: `identify` (which
    # `identify_parabolic` calls) refuses a non-member or an x with
    # x^2 != 0, and the CLI only prints the refusal.
    checks = {"require_two_nilpotent", "lie_member", "is_two_nilpotent"}
    assert checks & _names_read(PACKAGE / "cli.py") == set()


def test_cli_streams_the_search_without_building_patterns(monkeypatch):
    # CLI `count` reads the search's arc tuples and `enumerate` (json, csv,
    # text) its joined arc strings, as they are; only the tex table, built
    # whole in memory, makes arc tuples patterns, and only the pattern layer
    # skips their constructor.
    def refuse(*args):
        raise AssertionError("a streamed command built a pattern")

    monkeypatch.setattr(patterns, "_trusted", refuse)
    for argv in (["count", "--group", "o", "--blocks", "2,3"],
                 *(["enumerate", "--group", "o", "--blocks", "2,1", "--format", fmt]
                   for fmt in ("json", "csv", "text"))):
        assert main(argv) == 0, argv
    builders = ("_trusted", "_patterns", "enumerate_patterns", "LinkPattern")
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    handlers = {node.name: node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)}
    for name in ("_cmd_count", "_cmd_enumerate"):
        assert [b for b in builders if _calls(handlers[name], b)] == [], name
        assert _calls(handlers[name], "_search") == 1, name
    assert _calls(handlers["_tex_enumeration"], "_patterns") == 1
    trusting = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if _calls(ast.parse(path.read_text()), "_trusted"):
            trusting.add(path.stem)
    assert trusting == {"patterns"}


def test_the_json_line_layout_is_stated_once():
    # `_json_line` writes the one pattern-object layout for the CLI's
    # stream and for `pattern_to_json`; no second writer spells it out.
    found = {path.name: path.read_text().count('{"arcs":[')
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: n for name, n in found.items() if n} == {"patterns.py": 1}


def _cache_size(call: ast.expr, module) -> object:
    """The maxsize an `lru_cache(...)` decorator passes: a literal or a
    module constant; None for a bare decorator or an unbounded size."""
    if not isinstance(call, ast.Call):
        return None
    size = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
    if not size:
        return None
    if isinstance(size[0], ast.Constant):
        return size[0].value
    if isinstance(size[0], ast.Name):
        return getattr(module, size[0].id, None)
    return None


def test_every_cache_is_bounded():
    # A cache lives as long as the process, so each one keeps at most a
    # fixed number of entries: every lru_cache in the package passes a
    # positive integer maxsize, and functools.cache (unbounded) is not used.
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"nilorbits.{path.stem}"
                                         if path.stem != "__init__" else "nilorbits")
        for node in ast.walk(ast.parse(path.read_text())):
            for deco in getattr(node, "decorator_list", ()):
                func = deco.func if isinstance(deco, ast.Call) else deco
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in ("lru_cache", "cache"):
                    size = _cache_size(deco, module) if name == "lru_cache" else None
                    found[(path.stem, node.name)] = size
    assert {("linalg", "_mates"), ("correspondence", "_arc_table"),
            ("quiver", "_level")} <= set(found)
    unbounded = {site: size for site, size in found.items()
                 if not (type(size) is int and size > 0)}
    assert unbounded == {}
