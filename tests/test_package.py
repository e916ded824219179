import ast
import os
import subprocess
import sys
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

import reprank
from reprank import (RankingConfig, RatingGraph, SynthSource, SynthSpec,
                     SynthTruth, generate_ratings, grid_values, inject_spam,
                     top_fraction_benchmark)

ROOT = Path(__file__).resolve().parents[1]


def test_every_public_name_resolves():
    missing = [name for name in reprank.__all__ if not hasattr(reprank, name)]
    assert not missing
    namespace = {}
    exec("from reprank import *", namespace)
    assert set(reprank.__all__) <= set(namespace)


def test_cli_import_leaves_scipy_stats_out():
    """scipy.stats costs close to a second and tens of MiB per process to
    import, and nothing in the package needs it."""
    src = str(Path(reprank.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import reprank.cli, sys; "
            "sys.exit(int('scipy.stats' in sys.modules))")
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)


def _references(node, enclosing=frozenset()) -> set:
    """The names node's code uses as a Name or an Attribute (so no import
    and no docstring), each outside the def or class of its own name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)
    found = {name} - enclosing if name else set()
    for child in ast.iter_child_nodes(node):
        found |= _references(child, enclosing)
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    """No API that only tests call: each name in __all__ is used by the
    package outside __init__.py, or by the benchmark."""
    paths = chain((p for p in (ROOT / "src" / "reprank").glob("*.py")
                   if p.name != "__init__.py"), (ROOT / "bench").rglob("*.py"))
    used = set().union(*(_references(ast.parse(p.read_text(encoding="utf-8")))
                         for p in paths))
    assert sorted(set(reprank.__all__) - used) == []


_GRAPH = RatingGraph.build(2, 2, [0, 1], [0, 1], [1.0, 5.0])
_TRUTH = SynthTruth([1.0, 2.0], [0.5, 0.5])
_EDGES = (np.array([0, 1]), np.array([0, 1]))


@pytest.mark.parametrize("call, message", [
    (lambda: RankingConfig(delta="1"), "delta must be a number"),
    (lambda: RankingConfig(delta=None), "delta must be a number"),
    (lambda: RankingConfig(max_iterations="5"), "max_iterations must be"),
    (lambda: SynthSpec(spam_fraction="0.1"), "spam_fraction must be in"),
    (lambda: SynthSpec(case="1"), "case must be one of"),
    (lambda: SynthSource(SynthSpec(), benchmark_fraction="x"),
     "benchmark_fraction must be in"),
    (lambda: top_fraction_benchmark(_TRUTH, "x"), "fraction must be a number"),
    (lambda: top_fraction_benchmark(_TRUTH, None),
     "fraction must be a number"),
    (lambda: inject_spam(_GRAPH, "x", np.random.default_rng(0)),
     "spam fraction must be in"),
    (lambda: generate_ratings(_EDGES, _TRUTH, "1", np.random.default_rng(0)),
     "case must be one of"),
    (lambda: grid_values("0.5"), "grid step must be in"),
], ids=["config-delta-str", "config-delta-none", "config-max-iter-str",
        "spec-spam-str", "spec-case-str",
        "source-fraction-str", "top-fraction-str", "top-fraction-none",
        "spam-str", "ratings-case-str", "grid-step-str"])
def test_non_numbers_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
