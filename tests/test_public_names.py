"""Every public name of the package has a caller outside the tests.

Test oracles live in tests/helpers.py, not in the library. A public
module-level function or class of src/hybridbn, or a public method of one
of its classes, must be referenced from src/, demos/ or perfbench/. The
references are read with ast, so a docstring that names a function is not
a caller. Methods are matched by attribute name, whatever the object. A
string constant equal to the name counts, because the skeleton reaches
the batch queries of an independence source through getattr. A
typing.Protocol declares an interface, not code, so it is exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "demos", "perfbench")


def _is_protocol(node):
    return any(getattr(base, "id", getattr(base, "attr", None)) == "Protocol"
               for base in node.bases)


def public_names():
    """(module, qualified name, name) of each public function, class and
    method defined at the top level of a module of src/hybridbn."""
    out = []
    for path in sorted((ROOT / "src" / "hybridbn").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            if isinstance(node, ast.ClassDef) and _is_protocol(node):
                continue
            out.append((path.stem, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                out += [(path.stem, f"{node.name}.{m.name}", m.name)
                        for m in node.body
                        if isinstance(m, ast.FunctionDef)
                        and not m.name.startswith("_")]
    return out


def referenced_names():
    """Every identifier that code under CALLER_DIRS reads, imports or
    spells as a string constant."""
    names = set()
    for folder in CALLER_DIRS:
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    defined, refs = public_names(), referenced_names()
    # the scan must see both sides, or the check would pass vacuously
    assert {"count_table", "CategoricalDataset.subset_rows",
            "DataIndependenceSource.first_independent"} <= {q for _, q, _ in defined}
    assert "IndependenceSource" not in {q for _, q, _ in defined}
    assert {"build_skeleton", "results", "first_independent"} <= refs
    unused = [f"{module}.{qualname}" for module, qualname, name in defined
              if name not in refs]
    assert unused == [], ("only tests call these; move them to tests/helpers.py "
                          "or make them private: " + ", ".join(unused))
