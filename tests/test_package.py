import ampvbic

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
