#!/usr/bin/env python3
"""Mutation probe: which small faults in a module does the test suite miss?

    python scripts/mutation_probe.py src/cartpend/scenario.py [MODULE ...]

The sites are the comparison, arithmetic and numeric-constant nodes inside
the function and lambda bodies of the named modules, listed in file and
source order; import-time code is left alone. Each mutant changes one site:
``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``+`` and ``-``,
``*`` and ``/`` swap, and a non-zero float constant is multiplied by 1.5
while any other number gets 1 added. A ``+`` beside a string literal joins
text, so it is no site. ``COUNT`` mutants are drawn from the site list with
``random.Random(7)``, so a run is repeatable while the modules keep their
text.

The tree is copied to a temporary directory, and each mutant is written
there with ``ast.unparse``; the working tree is never touched. A control run
of the unmutated, unparsed copy must pass first. Then ``tests/`` runs with
``-x`` once per mutant: a failing run kills the mutant, a passing one leaves
it a survivor. Standard library only; it is not part of the test suite.
"""
import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COUNT = 30  # mutants drawn per run
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
         ast.Mult: ast.Div, ast.Div: ast.Mult}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


def _is_number(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _is_text(node) -> bool:
    return isinstance(node, ast.JoinedStr) or (isinstance(node, ast.Constant)
                                               and isinstance(node.value, str))


def _sites(tree):
    """(node, operator index or None) of each mutable site inside a function body."""
    sites = []

    def visit(node, in_function):
        if in_function and isinstance(node, ast.Compare):
            sites.extend((node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS)
        elif (in_function and isinstance(node, ast.BinOp) and type(node.op) in SWAPS
              and not (_is_text(node.left) or _is_text(node.right))):
            sites.append((node, None))
        elif in_function and _is_number(node):
            sites.append((node, None))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # decorators, defaults and annotations run at import; only the body is called
            body = node.body if isinstance(node.body, list) else [node.body]
            for child in body:
                visit(child, True)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(tree, False)
    return sites


def _mutate(node, index) -> str:
    """Apply one mutation in place; return what changed."""
    if isinstance(node, ast.Compare):
        old = type(node.ops[index])
        node.ops[index] = SWAPS[old]()
        return f"{SYMBOLS[old]} -> {SYMBOLS[SWAPS[old]]}"
    if isinstance(node, ast.BinOp):
        old = type(node.op)
        node.op = SWAPS[old]()
        return f"{SYMBOLS[old]} -> {SYMBOLS[SWAPS[old]]}"
    old = node.value
    node.value = old * 1.5 if isinstance(old, float) and old else old + 1
    return f"{old!r} -> {node.value!r}"


def _run_tests(tree_dir: Path, timeout_s: float) -> bool:
    """True when ``tests/`` passes in ``tree_dir``."""
    # no test may replay an example a previous mutant saved
    shutil.rmtree(tree_dir / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(tree_dir / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               "tests"], cwd=tree_dir, env=env, capture_output=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return False  # a mutant that hangs the suite is caught by it
    return done.returncode == 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("modules", nargs="+", help="paths of src/ modules to mutate")
    args = ap.parse_args()

    sources, sites = {}, []
    for name in args.modules:
        path = Path(name).resolve()
        if not path.is_file() or ROOT / "src" not in path.parents:
            print(f"error: {name} is not a module under src/", file=sys.stderr)
            return 2
        rel = path.relative_to(ROOT)
        sources[rel] = path.read_text(encoding="utf-8")
        count = len(_sites(ast.parse(sources[rel])))
        sites += [(rel, k) for k in range(count)]
    drawn = random.Random(7).sample(sites, min(COUNT, len(sites)))
    print(f"{len(sites)} sites in {len(sources)} module(s); {len(drawn)} mutants")

    with tempfile.TemporaryDirectory() as tmp:
        tree_dir = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree_dir, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", "out"))
        # the control run: unparsing alone must not break the suite
        for rel, text in sources.items():
            (tree_dir / rel).write_text(ast.unparse(ast.parse(text)), encoding="utf-8")
        start = time.monotonic()
        if not _run_tests(tree_dir, timeout_s=3600.0):
            print("error: the suite fails on the unmutated copy", file=sys.stderr)
            return 2
        # a mutant may take ten times the control run before it counts as a hang
        timeout_s = 10.0 * (time.monotonic() - start)
        survivors = 0
        for rel, k in drawn:
            tree = ast.parse(sources[rel])
            node, index = _sites(tree)[k]
            change = _mutate(node, index)
            (tree_dir / rel).write_text(ast.unparse(tree), encoding="utf-8")
            killed = not _run_tests(tree_dir, timeout_s)
            (tree_dir / rel).write_text(ast.unparse(ast.parse(sources[rel])), encoding="utf-8")
            survivors += not killed
            print(f"{'killed  ' if killed else 'SURVIVED'} {rel}:{node.lineno} {change}",
                  flush=True)
    print(f"score: {len(drawn) - survivors}/{len(drawn)} killed, {survivors} survived")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
