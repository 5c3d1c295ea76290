"""Every public name of the package has a caller outside the tests, and
every helper of tests/helpers.py has a caller.

Test oracles live in tests/helpers.py, not in the library. A public
module-level function or class of src/hybridbn, or a public method of one
of its classes, must be referenced from src/, demos/ or perfbench/. A
method counts as called only by a reference outside its own class body, so
a method that only its own class calls must be private. The references are
read with ast, so a docstring that names a function is not a caller.
Methods are matched by attribute name, whatever the object. A string
constant equal to the name counts, because the skeleton reaches the batch
queries of an independence source through getattr. A typing.Protocol
declares an interface, not code, so it is exempt.

A top-level function or class of tests/helpers.py must be referenced
somewhere in tests/ outside its own definition.

No module of src/hybridbn imports a private (_-prefixed) name from another
module of the package: a helper two modules share is public, in one place.

h2pc is the one place in src/ and demos/ that calls both build_skeleton and
hill_climb: no other top-level function or class there may call both, and
neither may a script's top-level statements. Calls are read, not names,
because cli.py imports both for learn-skeleton and learn --skeleton.
perfbench/ is exempt because its timed ops compose the two on purpose
until the benchmark moves to h2pc (ROADMAP item 3), and tests/ because
acceptance check 5 and the h2pc tests run the parts one by one.

The scenario table of multilabel.py is the one place that names a scenario:
no other module of src/hybridbn may hold a string constant equal to one of
SCENARIOS, so that a question about a scenario (does it learn a graph?) is
asked of the table, not answered by comparing names.
"""

import ast
from pathlib import Path

from hybridbn.multilabel import SCENARIOS

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "demos", "perfbench")


def _is_protocol(node):
    return any(getattr(base, "id", getattr(base, "attr", None)) == "Protocol"
               for base in node.bases)


def public_names():
    """(path, class name or None, qualified name, name) of each public
    function, class and method defined at the top level of a module of
    src/hybridbn."""
    out = []
    for path in sorted((ROOT / "src" / "hybridbn").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            if isinstance(node, ast.ClassDef) and _is_protocol(node):
                continue
            out.append((path, None, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                out += [(path, node.name, f"{node.name}.{m.name}", m.name)
                        for m in node.body
                        if isinstance(m, ast.FunctionDef)
                        and not m.name.startswith("_")]
    return out


def references(folders):
    """(name, path, owner) for every identifier that code under the folders
    reads, imports or spells as a string constant; owner is the name of the
    top-level function or class whose body holds the reference, or None."""
    out = set()
    for folder in folders:
        for path in (ROOT / folder).rglob("*.py"):
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
                owner = getattr(stmt, "name", None)
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Name):
                        out.add((node.id, path, owner))
                    elif isinstance(node, ast.Attribute):
                        out.add((node.attr, path, owner))
                    elif isinstance(node, ast.alias):
                        out.add((node.name.rpartition(".")[2], path, owner))
                    elif (isinstance(node, ast.Constant)
                          and isinstance(node.value, str)):
                        out.add((node.value, path, owner))
    return out


def _referenced(refs, name, outside=None):
    # True when some reference to name lies outside the (path, owner) body
    return any(n == name and (p, o) != outside for n, p, o in refs)


def test_every_public_name_has_a_caller_outside_the_tests():
    defined, refs = public_names(), references(CALLER_DIRS)
    # the scan must see both sides, or the check would pass vacuously
    assert {"count_table", "CategoricalDataset.subset_rows",
            "DataIndependenceSource.first_independent"} <= {q for *_, q, _ in defined}
    assert "IndependenceSource" not in {q for *_, q, _ in defined}
    assert {"build_skeleton", "results", "first_independent"} <= {n for n, *_ in refs}
    unused = [f"{path.stem}.{qualname}" for path, cls, qualname, name in defined
              if not _referenced(refs, name, cls and (path, cls))]
    assert unused == [], ("only tests or their own class call these; move them "
                          "to tests/helpers.py or make them private: "
                          + ", ".join(unused))


def test_every_helper_has_a_caller():
    path = ROOT / "tests" / "helpers.py"
    helpers = [node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    refs = references(["tests"])
    assert {"from_array", "brute_force_cpdag"} <= set(helpers)
    unused = [name for name in helpers
              if not _referenced(refs, name, (path, name))]
    assert unused == [], "nothing in tests/ uses these helpers: " + ", ".join(unused)


def private_imports(package):
    """(module, imported name) for each _-prefixed name that a module of the
    package imports from another of its modules."""
    out = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != package.name:
                continue
            out += [(path.stem, alias.name) for alias in node.names
                    if alias.name.startswith("_")]
    return out


def test_no_module_imports_a_private_name_of_another(tmp_path):
    package = tmp_path / "hybridbn"
    package.mkdir()
    (package / "a.py").write_text("from .scoring import _is_int\n"
                                  "from hybridbn.data import _CODE_LIMIT, row_dtype\n"
                                  "from numpy import _private\n")
    # the scan must see both spellings of a package import, or it would
    # pass vacuously
    assert private_imports(package) == [("a", "_is_int"), ("a", "_CODE_LIMIT")]
    found = private_imports(ROOT / "src" / "hybridbn")
    assert found == [], ("make these public, in one module: "
                         + ", ".join(f"{m} imports {n}" for m, n in found))


COMPOSED = {"build_skeleton", "hill_climb"}


def compositions(paths):
    """(path, owner) for each top-level function or class (owner its name),
    and each script body (owner None), of the files that calls every name
    in COMPOSED."""
    out = []
    for path in paths:
        owners = {}
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            called = owners.setdefault(getattr(stmt, "name", None), set())
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    func = node.func
                    called.add(getattr(func, "id", getattr(func, "attr", None)))
        out += [(path, owner) for owner, called in owners.items()
                if COMPOSED <= called]
    return out


def test_only_h2pc_composes_the_skeleton_and_the_search(tmp_path):
    script = tmp_path / "script.py"
    script.write_text("from hybridbn import skeleton\n"
                      "from hybridbn.scoring import hill_climb\n"
                      "def learn(src):\n"
                      "    run = skeleton.build_skeleton\n"
                      "    return hill_climb(src.data, run(src))\n"
                      "def names_only():\n"
                      "    return build_skeleton, hill_climb\n"
                      "skel = skeleton.build_skeleton(src)\n"
                      "print(hill_climb(data, skel))\n")
    # a call through an attribute counts, a bare name does not, and the
    # script body is one owner: the scan would otherwise pass vacuously
    assert compositions([script]) == [(script, None)]
    script.write_text("def learn(src):\n"
                      "    return hill_climb(src.data, skeleton.build_skeleton(src))\n")
    assert compositions([script]) == [(script, "learn")]
    paths = sorted((ROOT / "src" / "hybridbn").glob("*.py"))
    paths += sorted((ROOT / "demos").glob("*.py"))
    found = [(path.relative_to(ROOT).as_posix(), owner)
             for path, owner in compositions(paths)]
    assert found == [("src/hybridbn/skeleton.py", "h2pc")], (
        "call h2pc instead of build_skeleton and hill_climb in: "
        + ", ".join(f"{p}::{o or '<script>'}" for p, o in found
                    if o != "h2pc"))


def scenario_constants(paths):
    """(path, line, value) for each string constant of the files that equals
    a scenario name."""
    out = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and node.value in SCENARIOS:
                out.append((path, node.lineno, node.value))
    return out


def test_only_the_scenario_table_names_a_scenario(tmp_path):
    script = tmp_path / "cli.py"
    script.write_text("def cmd_mlc(args):\n"
                      "    if args.scenario == 'br':\n"
                      "        return ('mlp+mb', 'br ', 0)\n")
    # the scan must see a comparison and a tuple member, and match whole
    # names only, or it would pass vacuously
    assert [(line, v) for _, line, v in scenario_constants([script])] == [
        (2, "br"), (3, "mlp+mb")]
    package = ROOT / "src" / "hybridbn"
    table = scenario_constants([package / "multilabel.py"])
    assert {v for *_, v in table} == set(SCENARIOS)
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "multilabel.py"]
    found = scenario_constants(paths)
    assert found == [], ("ask multilabel's scenario table instead of naming "
                         "a scenario in: " + ", ".join(
                             f"{p.name}:{line} {v!r}" for p, line, v in found))
