"""The package's public surface: `twoatom.__all__`, and no src code
without a src caller."""

import ast
from pathlib import Path

import twoatom

#: kept with only test callers: the first two carry the amplitude engine's
#: closed-form checks; the public fits read their input through the same
#: streamed cores that the stages feed from their sample sources; the
#: detection pass of landed records counts through the same tally that a
#: run feeds as its pieces land
TEST_ONLY = {"first_emission_amplitude", "second_emission_amplitude",
             "fit_exponential_mle", "fit_cumulative_curve", "ks_statistic_exponential",
             "detection_pass"}


def test_every_public_name_resolves_once():
    assert twoatom.__all__ == sorted(set(twoatom.__all__))
    assert [name for name in twoatom.__all__ if not hasattr(twoatom, name)] == []
    namespace = {}
    exec("from twoatom import *", namespace)
    assert set(twoatom.__all__) <= set(namespace)


def test_every_top_level_definition_has_a_src_caller():
    # a function or class that only tests call belongs in tests/oracles.py
    trees = {path.name: ast.parse(path.read_text()) for path in Path(twoatom.__file__).parent.glob("*.py")}
    defined = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    referenced = set()
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    assert sorted(defined - referenced - TEST_ONLY) == []


def package_imports(tree) -> set[str]:
    """The names of the package's modules that a module's `tree` imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "twoatom"):
            module = (node.module or "").removeprefix("twoatom").lstrip(".")
            found |= {module.split(".")[0]} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("twoatom.")}
    return found


def test_modules_import_downward():
    # the config and the events.csv format sit below the stages that use
    # them, and only the entry points reach the stages
    imports = {path.stem: package_imports(ast.parse(path.read_text()))
               for path in Path(twoatom.__file__).parent.glob("*.py")}
    assert imports["config"] & {"pipeline", "cli"} == set()
    assert imports["eventsio"] & {"pipeline", "cli", "config"} == set()
    assert sorted(name for name, found in imports.items() if "pipeline" in found) == ["__init__", "cli"]


def test_only_inference_imports_scipy_and_only_its_optimizer():
    # the amplitude engine is numpy only, FFTs included: scipy serves the
    # cumulative fit's curve_fit alone
    found = {}
    for path in Path(twoatom.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found.setdefault(path.stem, set()).update(m for m in modules if m.split(".")[0] == "scipy")
    assert {stem: modules for stem, modules in found.items() if modules} == {"inference": {"scipy.optimize"}}


def test_every_thread_comes_from_spread():
    # grids.spread is the one way a pass runs on threads: only grids
    # imports concurrent.futures, and no module names threading.Thread
    pools, threads = set(), set()
    for path in Path(twoatom.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if any(module.split(".")[0] == "concurrent" for module in modules):
                pools.add(path.stem)
            # threading.Thread, a bare Thread, or `from threading import Thread`
            if "Thread" in {getattr(node, key, None) for key in ("attr", "id", "name")}:
                threads.add(path.stem)
    assert pools == {"grids"}
    assert threads == set()
