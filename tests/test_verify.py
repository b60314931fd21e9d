import hashlib

import pytest

from fidlab.cli import main
from fidlab.verify import run_suite

CASE_SUITES = ["fidelity-props", "sandwich", "monotonicity", "polar-props",
               "duality", "operational"]


def test_qubit_geometry_is_sized_by_trials():
    # one case per loop and a 2 x 2 root grid at --trials 1; today's counts at the default
    assert run_suite("qubit-geometry", trials=1, seed=42).trials == 10
    assert run_suite("qubit-geometry", seed=42).trials == 4170


@pytest.mark.parametrize("trials", [1, 7])
@pytest.mark.parametrize("seed", range(4))
def test_qubit_geometry_passes_at_small_trials(seed, trials):
    rep = run_suite("qubit-geometry", trials=trials, seed=seed)
    assert rep.passed, rep.failures


@pytest.mark.parametrize("suite", CASE_SUITES)
def test_case_suites_count_one_trial_per_dim_and_trial(suite):
    rep = run_suite(suite, dims=(2, 3), trials=2, seed=5)
    assert rep.trials == 2 * 2
    assert rep.passed, rep.failures


# every suite at its default size, as `fidlab verify all --reproducible` prints it:
# 7,221 trials, no failure, and the same bytes since the suites last changed
def test_verify_all_reproducible_output_is_unchanged(capsys):
    assert main(["verify", "all", "--reproducible"]) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode()).hexdigest() == "c9b4bf704413143d9d9b8c7e85a5db39"
