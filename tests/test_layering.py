"""Module layering: `forms` stands alone, and the nodal pipeline does not reach
into the curve pipeline.  Checked on the source, at every nesting level, so a
function-level import counts as much as one at the top of the module.  The
same scan checks that each error is reported in one place: the CLI builds
error reports only in `_fail`, and every `NodeError` carries its node flags.
And each shared operation is written once: only the CLI's `_emit` turns a
form into JSON, and `forms` defines the variable check, subtraction,
negation, `evaluate`, the text form and the JSON report once for both kinds
of form.  And `nodal` solves once per node, by
remainders modulo f2: it imports none of `sylvester_resultant`,
`det_rational`, `solve_linear`, `sylvester_matrix` and the elimination
`_bareiss`, since its one integer Koszul solve both decides admissibility
and gives (phi, psi).  And `nodal` reads the node's integers by
`forms.projective_ints`, without `normalize_projective` and its Fractions.  `forms` has
one parser: it defines one parser class, and only `_parse` constructs it,
for `parse_form`.  And the incidence tests of `poncelet`, `is_jumping_line`
and `singular_jump_criterion`, pull the line back in integers through the
conic's cached matrix: neither calls the oracles' `line_pullback`.  And they divide by
the pullback q alone: neither builds a q^2 vector (no display of more than
three entries).  And base points take one path: only `_base_point_free`
calls the heuristic gcd `_coprime`, and `poncelet` has no pseudo-remainder
`_prem`, which the test oracles keep.  And the polynomial
determinant of `linalg` adds each signed product into one map in place:
`linalg` imports neither `add_terms` nor `scale_terms`.  And no module
imports `dataclasses`: the value classes share `forms.Frozen`, and the CLI
starts without the import.  And `verify` and `cli` use only the public names
of the other `luroth` modules: they read no `_`-prefixed attribute of one and
import no such name.  And `nodal` builds each output form in one place: it
calls `TernaryForm(` only inside `_assemble`, and never `from_terms`.  And
`src/` holds no code that only the tests call: each function, class and
method is read by the package, exported, or named by the benchmark, and a
classmethod only by its own class, `BinaryForm.from_coeffs` or `cls.` inside
the class, so a same-named method of another class does not keep it.  And
neither pipeline keeps state between calls: `forms`, `linalg`, `poncelet`
and `nodal` hold no `global` statement, so what they keep is per value
(`cached_property`, an attribute set outside the fields) or in an
`lru_cache` or `cache`.  And README's lists of the tests that skip without
`hypothesis` or `sympy` name exactly the test functions that call
`pytest.importorskip` for it, directly or through a helper.  And every name
a `src/luroth` module imports is read in it, `__init__` and the `__future__`
import aside: no linter is assumed, and a stale import, such as
`substitute_terms` in `nodal` once its binomial kernel moves the node, fails
here."""

import ast
import re
from pathlib import Path

import luroth

PACKAGE = Path(luroth.__file__).parent


def imported_modules(source: str) -> set[str]:
    """Absolute names of the modules the source imports, relative imports
    resolved against the `luroth` package."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module)
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.add(f"luroth.{node.module}")
        elif isinstance(node, ast.ImportFrom):  # from . import name
            out.update(f"luroth.{alias.name}" for alias in node.names)
    return out


def module_imports(name: str) -> set[str]:
    return imported_modules((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def test_the_scan_sees_nested_and_relative_imports():
    source = ("import re\n"
              "def f():\n    from .linalg import det_rational\n"
              "class C:\n    def g(self):\n        import luroth.nodal\n"
              "from . import poncelet\n")
    assert imported_modules(source) == {"re", "luroth.linalg", "luroth.nodal",
                                        "luroth.poncelet"}


def test_forms_imports_no_luroth_module():
    found = module_imports("forms")
    assert not {m for m in found if m == "luroth" or m.startswith("luroth.")}, found


def test_nodal_does_not_import_poncelet():
    assert "luroth.poncelet" not in module_imports("nodal")


def module_tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def is_error_report(node: ast.AST) -> bool:
    return isinstance(node, ast.Dict) and any(
        isinstance(k, ast.Constant) and k.value == "status"
        and isinstance(v, ast.Constant) and v.value == "error"
        for k, v in zip(node.keys, node.values))


def test_cli_builds_error_reports_only_in_fail():
    tree = module_tree("cli")
    everywhere = [n for n in ast.walk(tree) if is_error_report(n)]
    fail = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_fail")
    assert len(everywhere) == 1
    assert everywhere == [n for n in ast.walk(fail) if is_error_report(n)]


def test_every_node_error_carries_a_report():
    calls = [n for n in ast.walk(module_tree("nodal")) if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Name) and n.func.id == "NodeError"]
    assert calls
    for call in calls:
        assert len(call.args) == 2 or any(k.arg == "report" for k in call.keywords), \
            ast.unparse(call)


def test_cli_calls_to_json_only_in_emit():
    def to_json_uses(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Attribute) and n.attr == "to_json"]

    tree = module_tree("cli")
    emit = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_emit")
    assert to_json_uses(emit)
    assert to_json_uses(tree) == to_json_uses(emit)


def test_forms_defines_each_shared_form_operation_once():
    """`zero` and `partial` are not listed: only the tests used them, so they
    left `forms` for `tests/oracles.py` (`zero_form`, `partial`)."""
    defined = [n.name for n in ast.walk(module_tree("forms")) if isinstance(n, ast.FunctionDef)]
    for name in ("_check_vars", "__sub__", "__neg__", "evaluate", "__str__", "to_json"):
        assert defined.count(name) == 1, name


def test_nodal_imports_no_second_elimination():
    imported = {alias.name for n in ast.walk(module_tree("nodal"))
                if isinstance(n, (ast.Import, ast.ImportFrom)) for alias in n.names}
    assert not imported & {"sylvester_resultant", "det_rational", "solve_linear",
                           "sylvester_matrix", "_bareiss"}, imported


def test_nodal_reads_the_node_without_normalize_projective():
    tree = module_tree("nodal")
    imported = {alias.name for n in ast.walk(tree)
                if isinstance(n, (ast.Import, ast.ImportFrom)) for alias in n.names}
    assert "normalize_projective" not in imported, imported
    assert not calls_to(tree, "normalize_projective")


def calls_to(node: ast.AST, name: str) -> list[ast.Call]:
    return [n for n in ast.walk(node) if isinstance(n, ast.Call) and (
        isinstance(n.func, ast.Name) and n.func.id == name
        or isinstance(n.func, ast.Attribute) and n.func.attr == name)]


def test_forms_has_one_parser_built_only_by_parse():
    tree = module_tree("forms")
    parsers = [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)
               and "parser" in n.name.lower()]
    assert parsers == ["_Parser"]
    builders = [f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                and calls_to(f, "_Parser")]
    assert builders == ["_parse"]
    assert len(calls_to(tree, "_Parser")) == 1


def test_incidence_tests_do_not_call_line_pullback():
    functions = {n.name: n for n in module_tree("poncelet").body if isinstance(n, ast.FunctionDef)}
    for name in ("is_jumping_line", "singular_jump_criterion"):
        assert not calls_to(functions[name], "line_pullback"), name
        assert calls_to(functions[name], "_pullback_ints"), name


def test_one_gcd_decides_base_points_and_no_incidence_test_builds_q_squared():
    tree = module_tree("poncelet")
    functions = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    callers = [name for name, f in functions.items() if calls_to(f, "_coprime")]
    assert callers == ["_base_point_free"]
    assert "_prem" not in functions and not calls_to(tree, "_prem")
    for name in ("is_jumping_line", "singular_jump_criterion"):
        displays = [n for n in ast.walk(functions[name]) if isinstance(n, (ast.List, ast.Tuple))]
        assert all(len(n.elts) <= 3 for n in displays), name


def test_linalg_imports_no_term_map_sum_or_scaling():
    imported = {alias.name for n in ast.walk(module_tree("linalg"))
                if isinstance(n, (ast.Import, ast.ImportFrom)) for alias in n.names}
    assert not imported & {"add_terms", "scale_terms"}, imported


def test_no_module_imports_dataclasses():
    for path in sorted(PACKAGE.glob("*.py")):
        assert "dataclasses" not in module_imports(path.stem), path.name


def private_reads(tree: ast.Module) -> list[str]:
    """The `_`-prefixed names a module reads from other `luroth` modules, as
    attributes of an imported module or as imported names."""
    modules, found = set(), []
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and (n.level or (n.module or "").startswith("luroth")):
            if n.level and not n.module:  # from . import nodal
                modules.update(alias.asname or alias.name for alias in n.names)
            else:
                found += [alias.name for alias in n.names if alias.name.startswith("_")]
        elif isinstance(n, ast.Import):
            modules.update(alias.asname or alias.name for alias in n.names
                           if alias.name.startswith("luroth"))
    for n in ast.walk(tree):
        if (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and n.value.id in modules and n.attr.startswith("_")):
            found.append(f"{n.value.id}.{n.attr}")
    return found


def test_the_private_scan_sees_attributes_and_imports():
    source = ("from . import nodal\nfrom .forms import _q, parse_form\n"
              "x = nodal._conic_form(1)\ny = nodal.classify.__name__\n")
    assert private_reads(ast.parse(source)) == ["_q", "nodal._conic_form"]


def test_verify_and_cli_read_no_private_name_of_another_module():
    for name in ("verify", "cli"):
        assert private_reads(module_tree(name)) == [], name


def test_the_pipelines_hold_no_global_statement():
    for name in ("forms", "linalg", "poncelet", "nodal"):
        found = [n.names for n in ast.walk(module_tree(name)) if isinstance(n, ast.Global)]
        assert not found, (name, found)


def test_nodal_builds_ternary_forms_only_in_assemble():
    tree = module_tree("nodal")
    assemble = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_assemble")
    assert calls_to(assemble, "TernaryForm")
    assert calls_to(tree, "TernaryForm") == calls_to(assemble, "TernaryForm")
    assert not calls_to(tree, "from_terms")


BENCH = Path(__file__).resolve().parents[1] / "bench"


def names_read(node: ast.AST, strings: bool = False) -> list[str]:
    """The names a tree reads: bare names, attributes and imported names; with
    strings, also each part of a dotted string constant such as "linalg.rank"."""
    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.append(n.id)
        elif isinstance(n, ast.Attribute):
            out.append(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out += [alias.name for alias in n.names]
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            out += n.value.split(".")
    return out


def test_the_name_scan_sees_attributes_imports_and_dotted_strings():
    tree = ast.parse("from .forms import a\nb.c(d)\nT = ('linalg.rank',)\n")
    assert sorted(names_read(tree)) == ["T", "a", "b", "c", "d"]
    assert sorted(names_read(tree, strings=True)) == ["T", "a", "b", "c", "d", "linalg", "rank"]


def qualified_reads(node: ast.AST, strings: bool = False) -> set[tuple[str, str]]:
    """(qualifier, name) for each attribute a tree reads off a name or a dotted
    path, as ("BinaryForm", "from_terms") from `forms.BinaryForm.from_terms`,
    with `cls.` read as the class it appears in; with strings, also each
    adjacent pair of a dotted string constant such as "linalg.PolyMatrix.rows"."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.ClassDef):
            out |= {(n.name, a.attr) for a in ast.walk(n) if isinstance(a, ast.Attribute)
                    and isinstance(a.value, ast.Name) and a.value.id == "cls"}
        elif isinstance(n, ast.Attribute) and isinstance(n.value, (ast.Name, ast.Attribute)):
            out.add((n.value.id if isinstance(n.value, ast.Name) else n.value.attr, n.attr))
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            parts = n.value.split(".")
            out.update(zip(parts, parts[1:]))
    return out


def test_the_qualified_scan_sees_classes_paths_cls_and_dotted_strings():
    tree = ast.parse("class A:\n    def f(cls):\n        return cls.g()\n"
                     "x = forms.B.h\ny = obj.k\nT = ('linalg.C.m',)\n")
    assert qualified_reads(tree) == {("A", "g"), ("cls", "g"), ("B", "h"), ("forms", "B"),
                                     ("obj", "k")}
    assert qualified_reads(tree, strings=True) - qualified_reads(tree) == {("linalg", "C"),
                                                                             ("C", "m")}


def is_classmethod(f: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "classmethod" for d in f.decorator_list)


def test_src_holds_no_code_that_only_the_tests_call():
    """Each module-level function and class of `src/luroth` is read by other
    `src/` code, outside its own definition (an export from `luroth/__init__.py`
    is such a read), or named in `bench/*.py`; each non-dunder method is read
    as an attribute in `src/`, or named in `bench/*.py`, where the tracer's
    dotted targets such as "forms.TernaryForm.substitute_linear" count.  A
    classmethod counts as read only when its own class qualifies it, as
    `BinaryForm.from_coeffs` or `cls.` inside the class: a same-named method
    of another class is no read of it.  What only the tests call lives in
    `tests/oracles.py`."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    src_names = [name for tree in trees.values() for name in names_read(tree)]
    bench_trees = [ast.parse(p.read_text(encoding="utf-8")) for p in BENCH.glob("*.py")]
    bench = {name for tree in bench_trees for name in names_read(tree, strings=True)}
    attributes = {n.attr for tree in trees.values() for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)} | bench
    qualified = set().union(*map(qualified_reads, trees.values()),
                            *(qualified_reads(tree, strings=True) for tree in bench_trees))
    unread = []
    for module, tree in sorted(trees.items()):
        for d in tree.body:
            if not isinstance(d, (ast.FunctionDef, ast.ClassDef)):
                continue
            if src_names.count(d.name) == names_read(d).count(d.name) and d.name not in bench:
                unread.append(f"{module}.{d.name}")
            for m in d.body if isinstance(d, ast.ClassDef) else ():
                if not isinstance(m, ast.FunctionDef) or m.name.startswith("__"):
                    continue
                if ((d.name, m.name) not in qualified if is_classmethod(m)
                        else m.name not in attributes):
                    unread.append(f"{module}.{d.name}.{m.name}")
    assert not unread, unread


NUMBERS = {"six": 6, "seven": 7, "eight": 8, "nine": 9, "ten": 10}


def skipping_tests(trees: list[ast.Module], module: str) -> set[str]:
    """The test functions that call `pytest.importorskip(module)`, directly or
    through a module-level helper that calls it."""
    def skips(node, helpers=frozenset()):
        return any(isinstance(n, ast.Call) and (
            isinstance(n.func, ast.Attribute) and n.func.attr == "importorskip"
            and [getattr(a, "value", None) for a in n.args] == [module]
            or isinstance(n.func, ast.Name) and n.func.id in helpers) for n in ast.walk(node))

    functions = [f for tree in trees for f in tree.body if isinstance(f, ast.FunctionDef)]
    helpers = {f.name for f in functions if not f.name.startswith("test_") and skips(f)}
    return {f.name for f in functions if f.name.startswith("test_") and skips(f, helpers)}


def test_readme_lists_the_tests_each_optional_module_skips():
    """README's bullet for each optional test module names exactly the tests
    that skip without it, and its count word is their number."""
    readme = (BENCH.parent / "README.md").read_text(encoding="utf-8")
    trees = [ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(BENCH.parent.glob("tests/*.py")) + sorted(BENCH.glob("*.py"))]
    for module in ("hypothesis", "sympy"):
        bullet = re.search(rf"^- without `{module}`, the (\w+) (.*?)\n(?:- |\n)", readme,
                           re.M | re.S)
        named = re.findall(r"`(test_\w+)`", bullet[2])
        assert len(named) == len(set(named)) == NUMBERS[bullet[1]], (module, named)
        assert set(named) == skipping_tests(trees, module), module


def unused_imports(tree: ast.Module) -> list[str]:
    """The names a module imports, at any nesting level, and never reads:
    `import a.b` binds a, and `from __future__` binds no name."""
    bound = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in n.names]
        elif isinstance(n, ast.ImportFrom) and n.module != "__future__":
            bound += [alias.asname or alias.name for alias in n.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_the_import_scan_sees_unread_names_aliases_and_nested_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport re as regex\n"
              "from .forms import projective_ints, substitute_terms\n"
              "def f(p):\n    from math import comb, gcd\n    return projective_ints(p), gcd\n"
              "x = os.sep\nregex = None\n")
    assert unused_imports(ast.parse(source)) == ["regex", "substitute_terms", "comb"]


def test_src_modules_read_every_name_they_import():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__":
            assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == [], path.name
