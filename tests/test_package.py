import ast
import importlib
import pathlib
import re
import types

import nilorbits
from nilorbits import linalg, patterns
from nilorbits.cli import main

from conftest import SEARCH_LEVELS

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


def test_every_private_module_name_is_read():
    # The lint step for dead code: every private def, class or assignment at
    # module level is read somewhere in the package, by name or as an
    # attribute, so no helper a refactor orphans stays behind.
    defined, read = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined |= {(path.stem, name) for name in names
                        if name.startswith("_") and not name.startswith("__")}
        read |= {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert sorted((stem, name) for stem, name in defined if name not in read) == []


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


G4 = nilorbits.GroupKind.symplectic(4)
B4 = nilorbits.SpaceSpec.borel(G4)
Z4 = nilorbits.Matrix.zero(4)
P4 = nilorbits.LinkPattern.borel("symplectic", 2, ())
REFUSALS = [
    (lambda: nilorbits.SpaceSpec("sp", ()), "group must be a GroupKind, got 'sp'"),
    (lambda: nilorbits.SpaceSpec(G4, None), "flag steps must be integers, got None"),
    (lambda: nilorbits.SpaceSpec(G4, (1.5,)), "flag steps must be integers, got (1.5,)"),
    (lambda: nilorbits.LinkPattern("symplectic", 1, None, ()),
     "block capacities must be integers, got None"),
    (lambda: nilorbits.LinkPattern("symplectic", 1, (1,), ("x",)),
     "arcs must be Arc objects, got ('x',)"),
    (lambda: nilorbits.LinkPattern("symplectic", 1, (1,), None),
     "arcs must be Arc objects, got None"),
    (lambda: nilorbits.catalog(-1), "quiver rank must be a nonnegative integer, got -1"),
    (lambda: nilorbits.catalog(1.5), "quiver rank must be a nonnegative integer, got 1.5"),
    (lambda: nilorbits.ar_sequences(True), "AR sequences need rank 1 <= l <= 100, got True"),
    # A wrongly typed argument is refused by the gate the function runs first.
    (lambda: nilorbits.identify("x", G4), "matrix must be a Matrix, got str"),
    (lambda: nilorbits.identify(nilorbits.Matrix.zero(4), "g"),
     "group must be a GroupKind, got str"),
    (lambda: nilorbits.identify_parabolic("x", B4), "matrix must be a Matrix, got str"),
    (lambda: nilorbits.orbit_dimension("x", B4), "matrix must be a Matrix, got str"),
    (lambda: nilorbits.rank("x"), "matrix must be a Matrix, got str"),
    (lambda: nilorbits.rank_signature("x"), "matrix must be a Matrix, got str"),
    (lambda: nilorbits.lie_member("x", G4), "matrix must be a Matrix, got str"),
    (lambda: nilorbits.is_two_nilpotent("x"), "matrix must be a Matrix, got str"),
    (lambda: nilorbits.parabolic_dim(None), "spec must be a SpaceSpec, got NoneType"),
    (lambda: nilorbits.pattern_to_matrix(None, G4),
     "pattern must be a LinkPattern, got NoneType"),
    (lambda: nilorbits.glue(None, B4), "pattern must be a LinkPattern, got NoneType"),
    (lambda: nilorbits.pattern_to_summands(None, B4),
     "pattern must be a LinkPattern, got NoneType"),
    (lambda: nilorbits.enumerate_patterns("symplectic", 2, None),
     "block capacities must be integers, got None"),
    (lambda: nilorbits.Matrix.from_rows(None),
     "matrix rows must be iterables of entries, got None"),
    # ... and so is a wrongly typed spec or group in a later argument.
    (lambda: nilorbits.orbit_dimension(Z4, None), "spec must be a SpaceSpec, got NoneType"),
    (lambda: nilorbits.glue(P4, None), "spec must be a SpaceSpec, got NoneType"),
    (lambda: nilorbits.identify_parabolic(Z4, None), "spec must be a SpaceSpec, got NoneType"),
    (lambda: nilorbits.pattern_to_summands(P4, None), "spec must be a SpaceSpec, got NoneType"),
    (lambda: nilorbits.refine(P4, None), "spec must be a SpaceSpec, got NoneType"),
    (lambda: nilorbits.parabolic_representative(P4, None),
     "spec must be a SpaceSpec, got NoneType"),
    (lambda: nilorbits.realize_flag(None), "spec must be a SpaceSpec, got NoneType"),
    (lambda: nilorbits.pattern_to_matrix(P4, "g"), "group must be a GroupKind, got str"),
    (lambda: nilorbits.random_group_element_pair("g", B4, 1),
     "group must be a GroupKind, got str"),
    (lambda: nilorbits.SpaceSpec.borel("g"), "group must be a GroupKind, got str"),
    # An unhashable group is refused before `SpaceSpec.borel`'s cache hashes it.
    (lambda: nilorbits.SpaceSpec.borel([]), "group must be a GroupKind, got list"),
    (lambda: nilorbits.pattern_to_matrix(P4, []), "group must be a GroupKind, got list"),
    (lambda: nilorbits.random_group_element_pair([], B4, 1),
     "group must be a GroupKind, got list"),
    (lambda: nilorbits.borel_subalgebra_dim([]), "group must be a GroupKind, got list"),
    (lambda: nilorbits.form_matrix("g"), "group must be a GroupKind, got str"),
]


def test_every_library_refusal_is_a_domain_error():
    # Aim 3 has one exception root: a call outside a function's domain is
    # refused with a DomainError that says why, never a TypeError or an
    # AttributeError from deeper down, and never an empty answer.
    got = []
    for call, _ in REFUSALS:
        try:
            call()
        except nilorbits.DomainError as err:
            got.append(str(err))
        else:
            got.append(None)
    assert got == [message for _, message in REFUSALS]


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
    # per-position rule `_coordinate_at` keeps the flag by it, and so do the
    # stabilizer's unknowns on V_k, which `symmetric_endo_dim` solves on
    # with A_omega alone from the basis rows and the loop rows.  No
    # inclusion arrows are built.  The coordinate list and the orbit
    # dimension count read the per-position rule; the count eliminates
    # nothing.
    defined = {"_eliminate": [], "_coordinates": [], "_keeps": [], "_coordinate_at": [],
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
                       "_keeps": ["linalg"], "_coordinate_at": ["linalg"],
                       "_intertwiner_rows": ["linalg"], "_inclusions": []}
    assert {"rank", "orbit_dimension", "symmetric_endo_dim",
            "_delta_positions"} <= set(callers["_eliminate"])
    assert callers["_delta_positions"] == {"rank_signature": 1, "_identify_rows": 1}
    assert not {"parabolic_dim", "_unit_orbit_dimension"} & set(callers["_eliminate"])
    assert callers["_coordinates"] == {"parabolic_dim": 1, "orbit_dimension": 1,
                                       "_root_elements": 1, "symmetric_endo_dim": 1}
    assert set(callers["_keeps"]) == {"_coordinate_at", "symmetric_endo_dim"}
    assert set(callers["_coordinate_at"]) == {"_coordinates", "_unit_orbit_dimension"}
    assert callers["_intertwiner_rows"]["symmetric_endo_dim"] == 2
    assert callers["_eliminate"]["orbit_dimension"] == 1
    assert importers == {"linalg"}


def test_the_coordinates_are_one_support_list_read_as_it_is():
    # `_coordinates` returns one support per coordinate, and the functions
    # that read it (the dimension of p, the orbit solver, the root words and
    # the stabilizer solver) take the list as it is: none of them builds a
    # dict, so no position-keyed table of the coordinates is made.
    spec = nilorbits.SpaceSpec.borel(nilorbits.GroupKind.orthogonal(5))
    assert type(linalg._coordinates(spec)) is list
    readers = {"_coordinates", "parabolic_dim", "orbit_dimension", "_root_elements",
               "symmetric_endo_dim"}
    found, tables = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in readers:
                found.add(node.name)
                tables += [(node.name, ast.unparse(part)) for part in ast.walk(node)
                           if isinstance(part, (ast.Dict, ast.DictComp))
                           or isinstance(part, ast.Call)
                           and ast.unparse(part.func).split(".")[-1]
                           in ("dict", "items", "setdefault")]
    assert found == readers and tables == []


def test_the_form_is_applied_by_signed_row_reversal():
    # F is anti-diagonal with entries +-1, so no library function forms it
    # or an identity: F m is `linalg._form_times`, which the group test
    # calls; the isotropy check of a flag representation sums signed
    # products of the basis's integer rows, and the root elements are read
    # off the coordinates.  `form_matrix` stays public as
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
    assert form_times == {("linalg", "group_member")}


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
    # denominator the word action leaves, and `_identify_rows` gates and
    # decodes them.  The form and square scans are stated once each, in
    # linalg, and read rows, so the Matrix gate and the integer gate share
    # them; the integer gate squares only the pivot rows, through the same
    # square scan.
    defined = {"_lie_violation": [], "_square_violation": []}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in defined:
                defined[node.name].append(path.stem)
    assert defined == {"_lie_violation": ["linalg"], "_square_violation": ["linalg"]}


# Calls that make a Matrix or a Fraction, by name or as a Matrix attribute.
_MAKERS = {"Matrix", "Fraction", "pattern_to_matrix", "parabolic_representative",
           "exp_nilpotent", "random_group_element_pair"}


def _made(node) -> list[str]:
    """The calls and `@` products in `node` that make a Matrix or a Fraction."""
    return ([ast.unparse(call.func) for call in ast.walk(node) if isinstance(call, ast.Call)
             and (isinstance(call.func, ast.Name) and call.func.id in _MAKERS
                  or isinstance(call.func, ast.Attribute)
                  and (call.func.attr in ("_from_ints", "from_rows")
                       or ast.unparse(call.func.value) in ("Matrix", "Fraction")))]
            + ["@" for op in ast.walk(node) if isinstance(op, ast.MatMult)])


def test_the_conjugation_check_makes_no_matrix_or_fraction():
    # From the pattern to the decode, the conjugation check runs on integer
    # rows: the word action, its row kernel and the suite's conjugation
    # loop make no Matrix and no Fraction.  Separation, which checks the
    # public Matrix route, is the suite's one family that makes them.
    tree = ast.parse((PACKAGE / "harness.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    families = {ast.unparse(node.test): node for node in ast.walk(funcs["run_suite"])
                if isinstance(node, ast.If)}
    for node in (funcs["_word_act"], funcs["_row_ops"],
                 families["'conjugation' in config.checks"],
                 families["'nilradical' in config.checks"]):
        assert _made(node) == [], ast.unparse(node)[:60]
    assert _made(families["'separation' in config.checks"]) == ["Matrix._from_ints"]


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


def _reads(node, name: str) -> bool:
    return any(isinstance(n, ast.Name) and n.id == name
               or isinstance(n, ast.Attribute) and n.attr == name for n in ast.walk(node))


def _states_a_sign(node) -> bool:
    """True iff a function picks +-1 by the family: it reads the family and
    writes a literal -1 other than an index."""
    indices = {id(n) for sub in ast.walk(node) if isinstance(sub, ast.Subscript)
               for n in ast.walk(sub.slice)}
    negative_one = any(isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub)
                       and isinstance(n.operand, ast.Constant) and n.operand.value == 1
                       and id(n) not in indices for n in ast.walk(node))
    by_family = (_reads(node, "is_symplectic") or _reads(node, "SYMPLECTIC")
                 or any(isinstance(n, ast.Constant) and n.value == "symplectic"
                        for n in ast.walk(node)))
    return negative_one and by_family


def test_one_arc_fold_read_off_the_form_signs():
    # The arc <-> matrix-unit dictionary is two closed forms and no table:
    # correspondence's `_arc_at` folds a position onto its arc and
    # `_arc_units` reads an arc's position, mate and sign back, each with
    # one caller; the representative's entries (`_units`) are read by the
    # row builder and the orbit dimension count.  The signs are stated
    # once, in linalg._form_signs, so the representative's signs are the
    # form's.  Only the pattern layer walks arc types and their capacity
    # costs.
    defined = {name: [] for name in ("_arc_at", "_arc_units", "_form_signs",
                                     "_mates", "_arc_table")}
    callers = {name: set() for name in ("_arc_at", "_arc_units", "_units", "_arc_types",
                                        "_arc_cost")}
    signs = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                if node.name in defined:
                    defined[node.name].append(path.stem)
                for name, found in callers.items():
                    if _calls(node, name):
                        found.add((path.stem, node.name))
                if _states_a_sign(node):
                    signs.add((path.stem, node.name))
    assert defined == {"_arc_at": ["correspondence"], "_arc_units": ["correspondence"],
                       "_form_signs": ["linalg"], "_mates": [], "_arc_table": []}
    assert callers["_arc_at"] == {("correspondence", "_decode")}
    assert callers["_arc_units"] == {("correspondence", "_units")}
    assert callers["_units"] == {("correspondence", "_pattern_rows"),
                                 ("correspondence", "_pattern_orbit_dimension")}
    assert signs == {("linalg", "_form_signs")}
    assert {module for module, _ in callers["_arc_types"] | callers["_arc_cost"]} == {"patterns"}
    assert "eps" not in _names_read(PACKAGE / "correspondence.py")


def test_one_size_bound_before_every_square_build():
    # A representative, an identified matrix and a root-word conjugate are
    # n x n: one helper refuses a group past the bound, first thing after
    # the pattern's own check, before any row is built or read.  The row
    # builder `_pattern_rows` holds it for every representative, so
    # `pattern_to_matrix` and the suite's rows share it.
    tree = ast.parse((PACKAGE / "correspondence.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {name for name, node in funcs.items() if _calls(node, "_require_size")} == \
        {"_pattern_rows", "identify", "_identify_rows"}
    for name in ("identify", "_identify_rows"):
        first = funcs[name].body[1]   # after the docstring
        assert _calls(first, "_require_size") == 1, name
    check, bound = funcs["_pattern_rows"].body[1:3]
    assert _calls(check, "_free_capacity") == 1 and _calls(bound, "_require_size") == 1
    assert _calls(funcs["pattern_to_matrix"], "_pattern_rows") == 1


def test_cli_identify_counts_the_dimension_off_the_decoded_pattern():
    # The orbit dimension is constant on a P-orbit, so CLI `identify` takes
    # it from the pattern it decoded, never from the conjugated input: one
    # call of the count `_pattern_orbit_dimension(p, spec)`, which reads
    # the pattern's arcs.  No representative is built and nothing is
    # eliminated for the dimension.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    handler = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "_cmd_identify")
    counts = [call for call in ast.walk(handler) if isinstance(call, ast.Call)
              and isinstance(call.func, ast.Name) and call.func.id == "_pattern_orbit_dimension"]
    assert len(counts) == 1
    assert [ast.unparse(arg) for arg in counts[0].args] == ["p", "spec"]
    assert counts[0].keywords == []
    for name in ("_orbit_dimension", "orbit_dimension", "parabolic_representative",
                 "pattern_to_matrix", "_eliminate"):
        assert _calls(handler, name) == 0, name


def test_the_orbit_dimension_count_makes_no_matrix_and_eliminates_nothing():
    # From the refined pattern to the count, the route reads arcs, matrix
    # units and coordinates: it makes no Matrix and no Fraction and calls
    # no elimination and no row builder.
    funcs = {}
    for module in ("linalg", "correspondence"):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        funcs.update((node.name, node) for node in tree.body
                     if isinstance(node, ast.FunctionDef))
    for name in ("_pattern_orbit_dimension", "_units", "_arc_units",
                 "_unit_orbit_dimension", "_coordinate_at", "_keeps"):
        node = funcs[name]
        assert _made(node) == [], name
        for callee in ("_eliminate", "_intertwiner_rows", "_coordinates", "_pattern_rows"):
            assert _calls(node, callee) == 0, (name, callee)


def test_public_orbit_dimension_gates_before_the_ungated_solve():
    # `orbit_dimension` takes any matrix and any spec, so it refuses a
    # wrongly typed spec, a non-member or an x with x^2 != 0 before it
    # solves by elimination on the coordinates of p.  It is the solve's one
    # caller, so the solve is its body: no ungated `_orbit_dimension` is
    # left, and CLI `identify` counts instead.
    tree = ast.parse((PACKAGE / "linalg.py").read_text())
    public = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "orbit_dimension")
    calls = [call.func.id for call in ast.walk(public)
             if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)]
    assert calls[:2] == ["_require_instance", "require_two_nilpotent"]
    assert {"_coordinates", "_intertwiner_rows", "_eliminate"} <= set(calls[2:])
    defined = [(path.stem, node.name) for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef) and node.name == "_orbit_dimension"]
    assert defined == []


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


def test_cli_enumerate_writes_no_line_by_its_own_call():
    # The pattern layer owns every streamed line format (`patterns._lines`):
    # the CLI names a format and writes the blocks it gets, so of the
    # pattern layer's private names it imports only the line stream, the
    # search (for count and the tex table) and the tex table's patterns.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    private = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "patterns"
               for alias in node.names if alias.name.startswith("_")}
    assert private == {"_lines", "_search", "_patterns"}


def test_the_search_table_holds_only_the_types_that_fit(monkeypatch):
    # A type that costs a vertex more than its capacity never fits, so
    # `_search` leaves it out of the table it hands `_walk`.
    handed = []
    walk = patterns._walk

    def spy(b, costs, types, join):
        handed.append((b, list(types)))
        return walk(b, costs, types, join)

    monkeypatch.setattr(patterns, "_walk", spy)
    for kind, b in SEARCH_LEVELS:
        handed.clear()
        patterns._search(kind, len(b), b)
        [(got_b, types)] = handed
        fits = [t for t in patterns._arc_types(len(b))
                if all(c <= got_b[v - 1] for v, c in patterns._arc_cost(t, kind))]
        assert sorted(types, key=patterns.Arc.key) == fits, (kind, b)


def test_the_json_line_layout_is_stated_once():
    # `_json_ends` states the one pattern-object layout for the CLI's
    # stream and for `pattern_to_json`; no second writer spells it out.
    found = {path.name: path.read_text().count('{"arcs":[')
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: n for name, n in found.items() if n} == {"patterns.py": 1}


def _cache_size(call: ast.expr, module) -> object:
    """The maxsize an `lru_cache(...)` call passes: a literal or a module
    constant; None for a bare decorator or an unbounded size."""
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


def _cache_kind(node: ast.expr) -> str:
    """"lru_cache" or "cache" if `node` names one of them (bare or as an
    attribute such as functools.cache), else ""."""
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
    return name if name in ("lru_cache", "cache") else ""


def _caches(tree: ast.AST, module) -> dict:
    """Every cache a module makes, with its maxsize (`_cache_size`): a
    decorated function by its name, a cache made by a call (`cache(f)`,
    `lru_cache(...)(f)`) by its line."""
    found, decorators = {}, set()
    for node in ast.walk(tree):
        for deco in getattr(node, "decorator_list", ()):
            kind = _cache_kind(deco.func if isinstance(deco, ast.Call) else deco)
            if kind:
                found[node.name] = _cache_size(deco, module) if kind == "lru_cache" else None
                decorators.add(deco)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node not in decorators:
            kind = _cache_kind(node.func)
            if kind:
                found[node.lineno] = _cache_size(node, module) if kind == "lru_cache" else None
    return found


def test_the_cache_guard_sees_calls_as_well_as_decorators():
    source = ("import functools\n"
              "f = functools.cache(len)\n"
              "g = lru_cache(maxsize=None)(len)\n"
              "h = lru_cache(SIZE)(len)\n"
              "@cache\n"
              "def k(): pass\n"
              "@functools.lru_cache(maxsize=8)\n"
              "def m(): pass\n")
    module = types.SimpleNamespace(SIZE=16)
    assert _caches(ast.parse(source), module) == {2: None, 3: None, 4: 16, "k": None, "m": 8}


def test_every_cache_is_bounded():
    # A cache lives as long as the process, so each one keeps at most a
    # fixed number of entries: every lru_cache in the package, decorator or
    # call, passes a positive integer maxsize, and functools.cache
    # (unbounded) is not used.
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"nilorbits.{path.stem}"
                                         if path.stem != "__init__" else "nilorbits")
        for site, size in _caches(ast.parse(path.read_text()), module).items():
            found[(path.stem, site)] = size
    assert {("linalg", "_form_signs"), ("correspondence", "_decoded"),
            ("quiver", "_level")} <= set(found)
    unbounded = {site: size for site, size in found.items()
                 if not (type(size) is int and size > 0)}
    assert unbounded == {}
