import ast
import importlib
from pathlib import Path

import pytest

import ampvbic
import ampvbic.harness

# Entry points, configuration and result types, and errors; everything else
# is reached through its module.
PUBLIC = {
    "build_alphabet", "generate_frame", "run_detector", "run_trials", "sweep",
    "write_csv", "compute_aer", "compute_ce_mse", "compute_ser",
    "ScenarioConfig", "DetectionResult", "IterationTrace", "MetricsRecord",
    "AmpVbicError", "ConfigError", "DimensionMismatch", "NumericalBreakdown",
    "TrialFailure",
}


def test_public_names_are_pinned_and_resolve():
    assert len(ampvbic.__all__) == len(set(ampvbic.__all__))
    assert set(ampvbic.__all__) == PUBLIC
    namespace = {}
    exec("from ampvbic import *", namespace)
    assert PUBLIC <= namespace.keys()


def test_scores_live_in_the_harness():
    # The scores sit beside the trial that calls them, and ampvbic's
    # names are the harness's objects; there is no ampvbic.metrics.
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("ampvbic.metrics")
    for name in ("compute_aer", "compute_ser", "compute_ce_mse"):
        assert getattr(ampvbic, name) is getattr(ampvbic.harness, name)


def unused_imports(path: Path) -> list[str]:
    """Names that path imports and never reads.  A name listed in the
    module's __all__ is read; from __future__ imports bind nothing."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}"
            for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    root = Path(__file__).resolve().parent.parent
    paths = sorted(root.glob("src/ampvbic/*.py")) + \
        sorted(root.glob("tests/*.py"))
    assert paths
    assert [name for path in paths for name in unused_imports(path)] == []
