"""No dead helpers: every top-level function and class of the package is
referenced in code from somewhere other than its own definition.

References are counted in the syntax tree: Name and Attribute nodes and
import aliases, in every module but __init__.py, whose re-exports would keep
any name alive. Comments and docstrings count for nothing. perfbench counts
too, with its string constants, so that the names it traces by string are
uses."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gapforge"

# name -> why it stays though nothing in the package or perfbench uses it
ALLOWED = {
    "second_eigenvalue_dense": "dense reference the eigensolver tests compare against",
    "satisfied_fraction": "test reference: the csp tests measure instances and their 3SAT forms with it",
    "exhaustive_layer_check": "the oracle's layer sweep, cross-checking the certifier in the tests",
    "csp_to_3sat": "the reduction's output as 3SAT, awaiting its caller (ROADMAP item 7)",
    "build_sampler_family": "the halved sampler family acceptance criterion 07 certifies",
    "honest_proof": "the honest prover acceptance criterion 01 drives",
    "run_check": "the verifier's single check, part of the API acceptance criterion 01 drives",
}


def top_level_names(tree: ast.Module) -> list[str]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node.name for node in tree.body if isinstance(node, kinds)]


def references(tree: ast.AST, strings: bool = False) -> Counter:
    """Names referenced in the tree; with strings, each dotted part of every
    string constant too."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs.update(node.name.split("."))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.update(node.value.split("."))
    return refs


def test_every_top_level_name_is_used():
    trees = {
        path: ast.parse(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    perfbench = Counter()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        perfbench += references(ast.parse(path.read_text()), strings=True)
    refs = {path: references(tree) for path, tree in trees.items()}
    dead = set()
    for path, tree in trees.items():
        for name in top_level_names(tree):
            if not (perfbench[name] or any(r[name] for r in refs.values())):
                dead.add(name)
    assert dead == set(ALLOWED)
