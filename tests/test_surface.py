"""The package's public surface: every public module-level function and
class of `src/rscatter` is named somewhere in the package or the demos
other than in its own definition, so no code lives in the package only
for the tests."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node):
    """Every name, attribute and imported name in node's subtree."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.rpartition(".")[2]] += 1
    return out


def unused_public_names():
    """Public module-level functions and classes of src/rscatter that no
    code in src/rscatter or demos/ names outside their own definition,
    as "module.name"."""
    package = sorted((ROOT / "src" / "rscatter").glob("*.py"))
    demos = sorted((ROOT / "demos").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in package + demos}
    named = sum(map(_names, trees.values()), Counter())
    unused = []
    for path in package:
        for node in trees[path].body:
            if isinstance(node, DEFS) and not node.name.startswith("_"):
                if named[node.name] == _names(node)[node.name]:
                    unused.append(f"{path.stem}.{node.name}")
    return unused


def test_every_public_name_is_used():
    assert unused_public_names() == []
