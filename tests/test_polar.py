import importlib
import json
import warnings

import numpy as np
import numpy.linalg as npl
import pytest

from fidlab.certify import duality_certificate
from fidlab.channels import random_pd, rng_for
from fidlab.cli import main
from fidlab.errors import NoConvergence
from fidlab.fidelity import dual_optimizers
from fidlab.linalg_core import hermitianize, spectrum
from fidlab.polar import (
    _polar_min_bracket,
    polar,
    polar_classical,
    polar_half,
    polar_max,
    polar_membership,
    polar_min,
    povm_lower_bound,
)
from fidlab.qubit_geom import SIGMA_X, SIGMA_Z, polar_min_qubit

I2 = np.eye(2, dtype=complex)


def test_polar_classical_frozen():
    assert polar_classical([1.0, 1.0], [1.0, 1.0]) == pytest.approx(2.0)
    assert polar_classical([1.0, 4.0], [4.0, 1.0]) == pytest.approx(4.0)
    assert polar_classical([1.0, 0.0], [1.0, 1.0]) == 0.0


def test_polar_max_identity():
    assert polar_max(I2, I2) == pytest.approx(2.0, abs=1e-12)


def test_polar_max_diagonal():
    L0 = np.diag([1.0, 4.0]).astype(complex)
    L1 = np.diag([4.0, 1.0]).astype(complex)
    assert polar_max(L0, L1) == pytest.approx(4.0, abs=1e-10)


def test_polar_max_rank_deficient():
    L0 = np.diag([1.0, 0.0]).astype(complex)
    assert polar_max(L0, I2) == 0.0


def test_polar_min_identity():
    assert polar_min(I2, I2) == pytest.approx(2.0, abs=1e-10)


def test_polar_min_worked_values():
    assert polar_min(I2 + 0.6 * SIGMA_Z, I2 - 0.6 * SIGMA_Z) == pytest.approx(
        1.6, abs=1e-9
    )
    assert polar_min(I2 + 0.6 * SIGMA_X, I2 + 0.6 * SIGMA_X) == pytest.approx(
        0.8, abs=1e-9
    )


def test_polar_half_scalar():
    one = np.array([[1.0]], dtype=complex)
    assert polar_half(one, one) == pytest.approx(2.0, abs=1e-12)


def test_polar_half_diagonal():
    L0 = np.diag([1.0, 4.0]).astype(complex)
    L1 = np.diag([4.0, 1.0]).astype(complex)
    assert polar_half(L0, L1) == pytest.approx(4.0, abs=1e-10)


def test_polar_half_identity_dim3():
    I3 = np.eye(3, dtype=complex)
    assert polar_half(I3, I3) == pytest.approx(2.0, abs=1e-10)


def test_polar_half_singular():
    assert polar_half(np.diag([1.0, 0.0]).astype(complex), I2) == 0.0


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind", ["max", "min", "half"])
def test_polar_near_singular_is_not_cut_to_zero(kind, dim):
    # lambda_min(L0) = 5e-11 sits below 1e-10 (1 + |L|) but far above
    # round-off, and the polar there is 2 sqrt(5e-11)
    L0 = np.eye(dim, dtype=complex)
    L0[1, 1] = 5e-11
    value = polar(kind, L0, np.eye(dim, dtype=complex))
    assert value == pytest.approx(1.41421356e-5, rel=1e-6)
    # a tiny but well-resolved multiple of I is not singular either
    tiny = polar(kind, 1e-12 * np.eye(dim), np.eye(dim, dtype=complex))
    assert tiny == pytest.approx(2e-6, rel=1e-9)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind", ["max", "min", "half"])
def test_polar_of_rotated_rank_one_is_exactly_zero(kind, dim):
    # the zero eigenvalue of v v^dagger comes out at round-off, not exactly 0
    for t in range(5):
        rng = rng_for(5, dim, t)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        assert polar(kind, np.outer(v, v.conj()), random_pd(dim, rng)) == 0.0


def test_polar_dispatch_rejects_unknown():
    with pytest.raises(ValueError):
        polar("quarter", I2, I2)


def test_membership_max_boundary():
    assert polar_membership("max", I2 / 2, I2 / 2)


def test_membership_max_extreme_point():
    rng = rng_for(10)
    L0 = random_pd(2, rng)
    w, V = np.linalg.eigh(hermitianize(4 * L0))
    L1 = hermitianize((V * (1.0 / w)) @ V.conj().T)
    assert polar_membership("max", L0, L1)


def test_membership_min_below():
    assert not polar_membership("min", I2 / 4, I2 / 4)


def test_povm_lower_bound_identity_pair():
    val = povm_lower_bound(I2, I2, n_outcomes=4, trials=10, seed=0)
    assert val == pytest.approx(2.0, abs=1e-6)
    assert val <= polar_max(I2, I2) + 1e-8


def test_povm_lower_bound_diagonal_pair():
    L0 = np.diag([1.0, 4.0]).astype(complex)
    L1 = np.diag([4.0, 1.0]).astype(complex)
    val = povm_lower_bound(L0, L1, n_outcomes=4, trials=10, seed=0)
    assert val == pytest.approx(polar_classical([1, 4], [4, 1]), abs=1e-6)


def test_povm_lower_bound_one_sided():
    rng = rng_for(11)
    L0 = random_pd(2, rng)
    L1 = random_pd(2, rng)
    val = povm_lower_bound(L0, L1, n_outcomes=4, trials=40, seed=1)
    assert val <= polar_max(L0, L1) + 1e-8


def test_povm_lower_bound_rejects_small_n():
    with pytest.raises(ValueError):
        povm_lower_bound(I2, I2, n_outcomes=3, trials=5, seed=0)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_polar_sandwich(dim):
    rng = rng_for(12, dim)
    L0 = random_pd(dim, rng)
    L1 = random_pd(dim, rng)
    h = polar_half(L0, L1)
    assert polar_max(L0, L1) <= h + 1e-6
    assert h <= polar_min(L0, L1) + 1e-6


def _rotated_block_sums(pairs, rng):
    """(U (+)_i A_i U^dagger, U (+)_i B_i U^dagger) for pairs (A_i, B_i) and a random unitary U."""
    dim = sum(A.shape[0] for A, _ in pairs)
    S0 = np.zeros((dim, dim), dtype=complex)
    S1 = np.zeros((dim, dim), dtype=complex)
    i = 0
    for A, B in pairs:
        j = i + A.shape[0]
        S0[i:j, i:j], S1[i:j, i:j] = A, B
        i = j
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    U, _ = npl.qr(G)
    return hermitianize(U @ S0 @ U.conj().T), hermitianize(U @ S1 @ U.conj().T)


def _t_scan(L0, L1, n):
    """min_t lambda_min(e^t L0 + e^-t L1) on n points of the search interval, and its argmin."""
    w0, w1 = npl.eigvalsh(L0), npl.eigvalsh(L1)
    ts = np.linspace(0.5 * np.log(w1[0] / w0[-1]), 0.5 * np.log(w1[-1] / w0[0]), n)
    g = [npl.eigvalsh(np.exp(t) * L0 + np.exp(-t) * L1)[0] for t in ts]
    k = int(np.argmin(g))
    return float(g[k]), float(ts[k])


def _assert_certified(lower, upper, exact):
    assert lower <= exact * (1 + 1e-12)
    assert upper >= exact * (1 - 1e-12)
    assert upper - lower <= 1e-10 * upper


@pytest.mark.parametrize("depth", [0.999, 1.001])
def test_polar_min_bracket_two_basins(depth):
    # blocks whose optimal s = e^t differ ~100x; the second basin is set just
    # below or just above the first, so neither basin alone gives the minimum
    rng = rng_for(13)
    A0, A1 = random_pd(2, rng), 100 * random_pd(2, rng)
    B0, B1 = 100 * random_pd(2, rng), random_pd(2, rng)
    B0 = B0 * (depth * polar_min_qubit(A0, A1) / polar_min_qubit(B0, B1)) ** 2
    _, tA = _t_scan(A0, A1, 4001)
    _, tB = _t_scan(B0, B1, 4001)
    assert abs(tA - tB) >= np.log(10.0)
    L0, L1 = _rotated_block_sums([(A0, A1), (B0, B1)], rng)
    lower, upper = _polar_min_bracket(spectrum(L0), spectrum(L1))
    _assert_certified(lower, upper, min(polar_min_qubit(A0, A1), polar_min_qubit(B0, B1)))
    scan, _ = _t_scan(L0, L1, 20001)
    assert lower <= scan
    assert upper <= scan * (1 + 1e-9)
    assert polar_min(L0, L1) == upper


def test_polar_min_bracket_dim32():
    # 16 qubit blocks with spread-out optimal s, rotated into a dense dim-32 pair
    rng = rng_for(14)
    pairs = [(random_pd(2, rng) * 10.0 ** k, random_pd(2, rng))
             for k in np.linspace(-1.5, 1.5, 16)]
    L0, L1 = _rotated_block_sums(pairs, rng)
    lower, upper = _polar_min_bracket(spectrum(L0), spectrum(L1))
    _assert_certified(lower, upper, min(polar_min_qubit(*p) for p in pairs))


def test_polar_min_bracket_singular_and_scalar():
    I3 = np.eye(3, dtype=complex)
    assert polar_min(np.diag([1.0, 1.0, 0.0]).astype(complex), I3) == 0.0
    assert polar_min(2 * I3, 8 * I3) == pytest.approx(8.0, rel=1e-12)


@pytest.mark.parametrize("dim, c, proportional", [
    (2, 1.0, False), (3, 1.0, False), (3, 7.5, False), (8, 1e-6, False),
    (3, 7.5, True), (8, 0.04, True), (8, 1e6, True),
])
def test_polar_min_bracket_scalar_and_proportional_pairs(dim, c, proportional):
    # (c I, I) leaves a zero-width search range; for L1 = c L0 the polar is
    # 2 sqrt(c) lambda_min(L0), and lambda_min(L0) = 1 here
    if proportional:
        rng = rng_for(17, dim)
        w = np.r_[1.0, rng.uniform(1.5, 4.0, dim - 1)]
        L0 = _rotated_block_sums([(np.diag(w), np.zeros((dim, dim)))], rng)[0]
        L1 = c * L0
    else:
        L0, L1 = c * np.eye(dim, dtype=complex), np.eye(dim, dtype=complex)
    lower, upper = _polar_min_bracket(spectrum(L0), spectrum(L1))
    _assert_certified(lower, upper, 2.0 * np.sqrt(c))
    assert upper == pytest.approx(2.0 * np.sqrt(c), rel=1e-13)


def test_polar_min_bracket_never_returns_unconverged(monkeypatch):
    rng = rng_for(15)
    L0, L1 = random_pd(4, rng), random_pd(4, rng)
    # the package re-exports the polar function, so fetch the module itself
    monkeypatch.setattr(importlib.import_module("fidlab.polar"), "_BRACKET_MAX_EVALS", 3)
    with pytest.raises(NoConvergence):
        _polar_min_bracket(spectrum(L0), spectrum(L1))


def test_polar_min_dispatch_raises_no_warning():
    rng = rng_for(16)
    L0, L1 = random_pd(3, rng), random_pd(3, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert polar("min", L0, L1) == polar_min(L0, L1)


def test_polar_retired_knobs_raise_type_error():
    rng = rng_for(16)
    L0, L1 = random_pd(3, rng), random_pd(3, rng)
    for knob in ("restarts", "seed"):
        with pytest.raises(TypeError):
            polar_min(L0, L1, **{knob: 3})
        with pytest.raises(TypeError):
            polar("min", L0, L1, **{knob: 3})


def test_dim2_request_paths_never_enter_the_bracket(monkeypatch, tmp_path, capsys):
    # every dim-2 min polar, lower end included, is the exact qubit form
    polar_module = importlib.import_module("fidlab.polar")
    bracket = polar_module._polar_min_bracket

    def dims_3_and_up(S0, S1):
        if S0.dim == 2:
            raise AssertionError("a dim-2 pair reached _polar_min_bracket")
        return bracket(S0, S1)

    monkeypatch.setattr(polar_module, "_polar_min_bracket", dims_3_and_up)
    rng = rng_for(71)
    X, Y = random_pd(2, rng), random_pd(2, rng)
    assert duality_certificate("min", X, Y).is_valid
    pair = dual_optimizers("min", X, Y)
    assert polar_membership("min", pair.first, pair.second)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps([
        {"dim": 2, "entries": [[[z.real, z.imag] for z in row] for row in M]} for M in (X, Y)
    ]))
    assert main(["compute", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["certificates"]["min"]["valid"]
