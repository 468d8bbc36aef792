"""No dead helpers: every top-level function and class of the package is
reached from somewhere other than its own definition."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gapforge"

# name -> why it stays though nothing in the package or perfbench uses it
ALLOWED = {
    "second_eigenvalue_dense": "dense reference the eigensolver tests compare against",
}


def top_level_names(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node.name for node in tree.body if isinstance(node, kinds)]


def test_every_top_level_name_is_used():
    modules = {path: path.read_text() for path in sorted(SRC.glob("*.py"))}
    perfbench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    dead = set()
    for path, text in modules.items():
        elsewhere = "\n".join(t for p, t in modules.items() if p != path) + perfbench
        for name in top_level_names(path):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if len(word.findall(text)) < 2 and not word.search(elsewhere):
                dead.add(name)
    assert dead == set(ALLOWED)
