import importlib

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
