import importlib
import json
import warnings

import numpy as np
import numpy.linalg as npl
import pytest

from fidlab.certify import duality_certificate
from fidlab.channels import Povm, random_pd, rng_for
from fidlab.cli import main
from fidlab.errors import DecompositionInfeasible, NoConvergence
from fidlab.fidelity import dual_optimizers
from fidlab.linalg_core import hermitianize, spectrum
from fidlab.polar import (
    _max_decomposition,
    _polar_half_bracket,
    _polar_min_bracket,
    polar,
    polar_classical,
    polar_half,
    polar_max,
    polar_membership,
    polar_min,
    povm_lower_bound,
)
from fidlab.qubit_geom import SIGMA_X, SIGMA_Z, polar_max_qubit, polar_min_qubit
from fidlab.superop import _composed_lyapunov_matrix

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
    # lambda_min(L0) = 5e-11 sits below 1e-10 ||L|| but far above
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


def _near_orthogonal_pair(dim, delta, rng):
    """X = U diag(1, delta, ...) U^dagger, Y = V diag(delta, ..., 1) V^dagger, V = e^{1e-3 iH} U."""
    U, _ = npl.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    w, Q = npl.eigh(hermitianize(rng.standard_normal((dim, dim))
                                 + 1j * rng.standard_normal((dim, dim))))
    V = (Q * np.exp(1e-3j * w)) @ Q.conj().T @ U
    x, y = np.r_[1.0, np.full(dim - 1, delta)], np.r_[np.full(dim - 1, delta), 1.0]
    return hermitianize((U * x) @ U.conj().T), hermitianize((V * y) @ V.conj().T)


@pytest.mark.parametrize("delta", [1e-10, 1e-14])
@pytest.mark.parametrize("dim", [2, 4])
def test_polar_max_is_as_accurate_as_its_input_allows(dim, delta):
    # the round-off of the input bounds the polar's relative accuracy by about
    # eps kappa; squaring the small singular values of sqrt(L0) sqrt(L1), as
    # lambda_min(sqrt(L1) L0 sqrt(L1)) does, loses it (50-digit references)
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    eps = np.finfo(float).eps
    for t in range(10):
        L0, L1 = _near_orthogonal_pair(dim, delta, rng_for(80, dim, t))
        E, Q = mp.eighe(mp.matrix(L1.tolist()))
        s1 = Q * mp.diag([mp.sqrt(max(e, 0)) for e in E]) * Q.H
        ref = float(2 * mp.sqrt(min(mp.eighe(s1 * mp.matrix(L0.tolist()) * s1,
                                             eigvals_only=True))))
        kappa = max(w[-1] / w[0] for w in (npl.eigvalsh(L0), npl.eigvalsh(L1)))
        values = [polar_max(L0, L1)] + ([polar_max_qubit(L0, L1)] if dim == 2 else [])
        for value in values:
            assert abs(value - ref) <= 2 * eps * kappa * ref


@pytest.mark.parametrize("dim, pairs", [(2, 200), (3, 20), (4, 20)])
def test_polar_max_meets_its_bound_on_boundary_pairs(dim, pairs):
    # L0 = L1^-1 / 4 with L1 rotated, of eigenvalues 1 and 10^U(0, 6): both small
    # eigenvalues carry eigh's round-off at once, about beta eps kappa relative each
    # (beta <= 6.2 measured), so the polar's error reaches 4.8 eps kappa on such pairs at
    # dim 2 (3,000 pairs) against the stated (beta + 1) eps kappa <= 8 eps kappa; 40-digit
    # references of the float pair
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    eps = np.finfo(float).eps
    for t in range(pairs):
        rng = rng_for(81, dim, t)
        L1 = _rotated(np.r_[1.0, 10.0 ** rng.uniform(0.0, 6.0, dim - 1)], rng)
        L0 = hermitianize(npl.inv(L1)) / 4
        E, Q = mp.eighe(mp.matrix(L0.tolist()))
        s0 = Q * mp.diag([mp.sqrt(e) for e in E]) * Q.H
        ref = float(2 * mp.sqrt(min(mp.eighe(s0 * mp.matrix(L1.tolist()) * s0,
                                             eigvals_only=True))))
        kappa = max(w[-1] / w[0] for w in (npl.eigvalsh(L0), npl.eigvalsh(L1)))
        assert abs(polar_max(L0, L1) - ref) <= 8 * eps * kappa * ref


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
    val = povm_lower_bound(I2, I2)
    assert val == pytest.approx(2.0, abs=1e-12)
    assert val <= polar_max(I2, I2) + 1e-12


def test_povm_lower_bound_diagonal_pair():
    L0 = np.diag([1.0, 4.0]).astype(complex)
    L1 = np.diag([4.0, 1.0]).astype(complex)
    val = povm_lower_bound(L0, L1)
    assert val == pytest.approx(polar_classical([1, 4], [4, 1]), rel=1e-7)


def test_povm_lower_bound_one_sided():
    rng = rng_for(11)
    L0 = random_pd(2, rng)
    L1 = random_pd(2, rng)
    pm = polar_max(L0, L1)
    val = povm_lower_bound(L0, L1)
    assert pm * (1 - 1e-7) <= val <= pm * (1 + 1e-12)


def test_povm_lower_bound_takes_no_knobs():
    for knob in ("n_outcomes", "trials", "seed"):
        with pytest.raises(TypeError):
            povm_lower_bound(I2, I2, **{knob: 4})


def _rotated(w, rng):
    d = len(w)
    U, _ = npl.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return hermitianize((U * np.asarray(w)) @ U.conj().T)


def _check_decomposition(L0, L1):
    elements, l0, l1 = _max_decomposition(L0, L1)
    Povm(L0.shape[0], list(elements))
    for L, l in ((L0, l0), (L1, l1)):
        assert l.min() >= 0
        assert npl.norm(np.tensordot(l, elements, 1) - L) <= 1e-10 * (1 + spectrum(L).norm)
    pm, val = polar_max(L0, L1), povm_lower_bound(L0, L1)
    assert val == polar_classical(l0, l1)
    assert pm * (1 - 1e-7) <= val <= pm * (1 + 1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 16, 32])
def test_max_decomposition_is_a_povm_just_below_polar_max(dim):
    for t in range(20):
        rng = rng_for(5, dim, t)
        _check_decomposition(random_pd(dim, rng), random_pd(dim, rng))


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_max_decomposition_at_condition_number_1e4(dim):
    # the shortfall grows as 1e-9 sqrt(kappa(L0)) / 2: 5e-8 relative here
    for t in range(10):
        rng = rng_for(38, dim, t)
        w = np.geomspace(1.0, 1e-4, dim)
        _check_decomposition(_rotated(w, rng), _rotated(w, rng))


def test_povm_lower_bound_singular_pair_is_zero():
    rng = rng_for(39)
    L0 = _rotated([0.0, 1.5, 2.0], rng)
    assert povm_lower_bound(L0, random_pd(3, rng)) == 0.0
    assert povm_lower_bound(random_pd(3, rng), L0) == 0.0


def test_povm_lower_bound_refuses_a_polar_above_polar_max(monkeypatch):
    # a p above the polar leaves the slack L1/p - (L0/p)^{-1}/4 a negative
    # eigenvalue; clamped at 0 it misses L1, and the fit gate raises
    rng = rng_for(11)
    L0, L1 = random_pd(3, rng), random_pd(3, rng)
    polar_module = importlib.import_module("fidlab.polar")
    exact = polar_module._polar_max
    monkeypatch.setattr(polar_module, "_polar_max", lambda *a: tuple(1.01 * p for p in exact(*a)))
    with pytest.raises(DecompositionInfeasible):
        povm_lower_bound(L0, L1)


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


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_min_certificates_never_run_a_min_polar(dim, monkeypatch):
    # a min certificate checks its dual pair on one block eigenvalue at the
    # optimal twist, so neither the bracket nor the qubit form is reached
    polar_module = importlib.import_module("fidlab.polar")
    qubit_module = importlib.import_module("fidlab.qubit_geom")

    def refuse(*args):
        raise AssertionError("a min certificate ran a min polar")

    monkeypatch.setattr(polar_module, "_polar_min_bracket", refuse)
    monkeypatch.setattr(polar_module, "_polar_min_qubit", refuse)
    monkeypatch.setattr(qubit_module, "_polar_min_qubit", refuse)
    rng = rng_for(72, dim)
    assert duality_certificate("min", random_pd(dim, rng), random_pd(dim, rng)).is_valid


def _gram_half(S0, S1):
    """The dense reference: the top eigenvalue of the d^2 x d^2 Gram form, as a polar."""
    return float(npl.eigvalsh(_composed_lyapunov_matrix(S0, S1))[-1]) ** -0.5


def _near_identity(dim, rng):
    def one():
        A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return np.eye(dim) + 0.05 * hermitianize(A)
    return one(), one()


def _diagonal(dim, rng):
    return tuple(np.diag(rng.uniform(0.5, 2.0, dim)).astype(complex) for _ in range(2))


def _block_sum(dim, rng):
    k = dim // 2
    return _rotated_block_sums([(random_pd(k, rng), random_pd(k, rng)),
                                (random_pd(dim - k, rng), random_pd(dim - k, rng))], rng)


HALF_FAMILIES = {
    "random": lambda dim, rng: (random_pd(dim, rng), random_pd(dim, rng)),
    "block_sum": _block_sum,
    "diagonal": _diagonal,
    "near_identity": _near_identity,
    "scalar": lambda dim, rng: (7.5 * np.eye(dim, dtype=complex), np.eye(dim, dtype=complex)),
}
# both ends of a half bracket hold the Gram value within this relative round-off
# (seen within 7.4e-16 on random, kappa = 1e4 and near-identity pairs at dims 12-24)
HALF_ROUND_OFF = 1e-13


def _assert_half_bracket(L0, L1):
    S0, S1 = spectrum(L0), spectrum(L1)
    lower, upper = _polar_half_bracket(S0, S1)
    exact = _gram_half(S0, S1)
    assert upper - lower <= 1e-10 * upper
    assert lower <= exact * (1 + HALF_ROUND_OFF)
    assert upper >= exact * (1 - HALF_ROUND_OFF)
    return lower, upper


@pytest.mark.parametrize("dim", [10, 12, 16, 24])
@pytest.mark.parametrize("family", sorted(HALF_FAMILIES))
def test_polar_half_bracket_holds_the_gram_value(family, dim):
    _assert_half_bracket(*HALF_FAMILIES[family](dim, rng_for(19, dim)))


def test_polar_half_bracket_dim32():
    rng = rng_for(19, 32)
    _assert_half_bracket(random_pd(32, rng), random_pd(32, rng))


@pytest.mark.parametrize("dim", [12, 16, 24])
def test_polar_half_takes_no_gram_above_the_crossover(dim, monkeypatch):
    # Lanczos closes the bracket on random pairs; the Gram is only the fallback
    rng = rng_for(20, dim)
    L0, L1 = random_pd(dim, rng), random_pd(dim, rng)
    exact = _gram_half(spectrum(L0), spectrum(L1))

    def refuse(*args):
        raise AssertionError("polar_half built the d^2 x d^2 Gram")

    monkeypatch.setattr(importlib.import_module("fidlab.polar"), "_composed_lyapunov_matrix",
                        refuse)
    assert polar_half(L0, L1) == pytest.approx(exact, rel=1e-10, abs=0)
    assert polar(kind="half", L0=L0, L1=L1) == polar_half(L0, L1)


@pytest.mark.parametrize("dim, c", [(12, 7.5), (16, 1e-6), (24, 1.0)])
def test_polar_half_bracket_closes_at_the_identity_on_scalar_pairs(dim, c, monkeypatch):
    # (c I, I) makes I the Perron vector: the first Lanczos step finds an invariant
    # space, and the bracket closes at H = I on the exact value 2 sqrt(c)
    polar_module = importlib.import_module("fidlab.polar")
    operator = polar_module._composed_lyapunov_operator
    applied = []

    def counted(S0, S1):
        apply, w1 = operator(S0, S1)
        return (lambda Z: applied.append(Z) or apply(Z)), w1

    monkeypatch.setattr(polar_module, "_composed_lyapunov_operator", counted)
    lower, upper = _polar_half_bracket(spectrum(c * np.eye(dim, dtype=complex)),
                                       spectrum(np.eye(dim, dtype=complex)))
    assert len(applied) == 1
    assert lower == pytest.approx(2 * np.sqrt(c), rel=1e-14, abs=0)
    assert upper == pytest.approx(2 * np.sqrt(c), rel=1e-14, abs=0)


@pytest.mark.parametrize("family", ["block_sum", "diagonal"])
def test_reducible_pairs_fall_back_to_the_gram(family, monkeypatch):
    # a reducible S_L0 o S_L1 has no positive definite Perron vector, so no bracket closes
    polar_module = importlib.import_module("fidlab.polar")
    gram = polar_module._composed_lyapunov_matrix
    built = []
    monkeypatch.setattr(polar_module, "_composed_lyapunov_matrix",
                        lambda *args: built.append(args) or gram(*args))
    L0, L1 = HALF_FAMILIES[family](12, rng_for(21))
    lower, upper = _polar_half_bracket(spectrum(L0), spectrum(L1))
    assert len(built) == 1
    assert lower == upper


def _inverse_pair(rng):
    L1 = _rotated([1.0, 10.0 ** rng.uniform(0.0, 8.0)], rng)
    return hermitianize(npl.inv(L1)) * rng.uniform(0.1, 10.0), L1


QUBIT_HALF_FAMILIES = {
    "random": lambda rng: (random_pd(2, rng), random_pd(2, rng)),
    "kappa_1e8": lambda rng: tuple(_rotated([1e-8 * rng.uniform(0.5, 2.0), 1.0], rng)
                                   for _ in range(2)),
    "near_scalar": lambda rng: tuple(_rotated([1.0, 1.0 + 10.0 ** rng.uniform(-16, -6)], rng)
                                     for _ in range(2)),
    "diagonal": lambda rng: _diagonal(2, rng),
    "inverse": _inverse_pair,
}


@pytest.mark.parametrize("family", sorted(QUBIT_HALF_FAMILIES))
def test_dim2_polar_half_holds_the_gram_value(family):
    # the qubit form off five spectral invariants against the dense 4 x 4 Gram
    for t in range(100):
        L0, L1 = QUBIT_HALF_FAMILIES[family](rng_for(22, t))
        S0, S1 = spectrum(L0), spectrum(L1)
        lower, upper = _polar_half_bracket(S0, S1)
        assert lower == upper == polar_half(L0, L1)
        assert upper == pytest.approx(_gram_half(S0, S1), rel=HALF_ROUND_OFF, abs=0)


@pytest.mark.parametrize("bracket, member", [((0.99, 1.01), False), ((1.0, 1.02), True)])
@pytest.mark.parametrize("kind", ["max", "min", "half"])
def test_membership_reads_the_lower_end(kind, bracket, member, monkeypatch):
    # every kernel returns its certified bracket: membership reads its lower end, and
    # polar() and polar_<kind> its upper end
    polar_module = importlib.import_module("fidlab.polar")
    kernel = {"max": "_polar_max", "min": "_polar_min", "half": "_polar_half_bracket"}[kind]
    monkeypatch.setitem(polar_module._POLARS, kind, lambda P: bracket)
    monkeypatch.setattr(polar_module, kernel, lambda *args: bracket)
    assert polar_membership(kind, I2, I2) is member
    assert polar(kind, I2, I2) == getattr(polar_module, f"polar_{kind}")(I2, I2) == bracket[1]
