import sys

import numpy as np
import numpy.linalg as npl
import pytest

import fidlab.certify as certify
from fidlab.certify import _CERT_TOL, block_psd, duality_certificate, mfmax_membership
from fidlab.channels import random_pd, rng_for
from fidlab.errors import DimensionMismatch, NotPsd
from fidlab.fidelity import (
    classical_fidelity,
    dual_optimizers,
    fidelity_half,
    fidelity_max,
    fidelity_min,
    optimal_measurement,
    optimal_reverse_test,
    optimal_twist,
    _optimizers,
)
from fidlab.linalg_core import OperatorPair, hermitianize, psd_pair, psd_sqrt, spectrum
from fidlab.polar import (_polar_half_bracket, _polar_min, _polar_min_bracket, polar_max,
                          polar_membership)
from fidlab.verify import _rotated

I2 = np.eye(2, dtype=complex)
POLAR_MODULE = sys.modules["fidlab.polar"]  # fidlab.polar is the function


def _pd_inverse(H):
    w, V = npl.eigh(hermitianize(H))
    return hermitianize((V * (1.0 / w)) @ V.conj().T)


def test_block_psd_identity():
    assert block_psd(I2, I2, I2)


@pytest.mark.parametrize("X, C, Y", [
    (np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0))),
    (np.zeros((0, 0)), np.zeros((0, 2)), I2),
    (I2, np.zeros((2, 0)), np.zeros((0, 0))),
], ids=["both", "X", "Y"])
def test_block_psd_refuses_empty_operands(X, C, Y):
    with pytest.raises(DimensionMismatch, match="X and Y must be nonempty"):
        block_psd(X, C, Y)


def test_block_psd_refuses_non_finite_operands():
    with pytest.raises(NotPsd, match="^Y has a non-finite entry"):
        block_psd(I2, np.zeros((2, 2)), np.diag([np.inf, 1.0]))


def test_block_psd_large_offdiagonal():
    assert not block_psd(I2, 2 * I2, I2)


@pytest.mark.parametrize("scale,expect", [(1.0, True), (1.1, False)])
def test_block_psd_contraction_boundary(scale, expect):
    rng = rng_for(20)
    X = random_pd(3, rng)
    Y = random_pd(3, rng)
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    K = G / npl.norm(G, 2)
    C = psd_sqrt(X) @ (scale * K) @ psd_sqrt(Y)
    direct = bool(
        npl.eigvalsh(
            hermitianize(np.block([[X, C], [C.conj().T, Y]]))
        )[0] >= -1e-9
    )
    got = block_psd(X, C, Y)
    assert got == direct
    if abs(scale - 1.0) > 1e-3:
        assert got == expect


def test_block_psd_support_condition():
    X = np.diag([1.0, 0.0]).astype(complex)
    C = np.array([[0.0, 0.0], [0.1, 0.0]], dtype=complex)
    assert not block_psd(X, C, I2)


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("side", ["X", "Y"])
def test_block_psd_rotated_kernel(side, dim):
    # one operand has a rank-1 kernel in a random direction k; a C on the
    # supports is accepted, and weight 1e-3 on that kernel is refused
    rng = rng_for(23, dim)
    U, _ = npl.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    w = np.r_[0.0, rng.uniform(0.5, 2.0, dim - 1)]
    D, sD, k = (U * w) @ U.conj().T, (U * np.sqrt(w)) @ U.conj().T, U[:, 0]
    P = random_pd(dim, rng)
    X, Y, sX, sY = (D, P, sD, psd_sqrt(P)) if side == "X" else (P, D, psd_sqrt(P), sD)
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    C = 0.5 * sX @ (G / npl.norm(G, 2)) @ sY
    assert block_psd(X, C, Y)
    u = rng.standard_normal(dim)
    off = 1e-3 * (np.outer(k, u) if side == "X" else np.outer(u, k.conj()))
    assert not block_psd(X, C + off, Y)


def test_mfmax_membership_boundary():
    assert mfmax_membership(I2 / 2, I2 / 2)


def test_mfmax_membership_interior():
    assert mfmax_membership(I2, I2)


def test_mfmax_membership_extreme_point():
    rng = rng_for(21)
    L0 = random_pd(2, rng)
    L1 = _pd_inverse(4 * L0)
    assert mfmax_membership(L0, L1)
    assert not mfmax_membership(L0, L1 - 1e-3 * I2)


def test_mfmax_membership_refuses_a_commuting_pair_just_outside_the_body():
    # polar_max = 2 sqrt(1e-4 * 2497.5) = 0.99950; the dual block's lowest
    # eigenvalue, -2e-7, sat inside a tolerance of 1e-10 (1 + ||block||)
    L0, L1 = np.diag([1e-4, 1.0]), np.diag([2497.5, 0.25])
    assert polar_max(L0, L1) < 0.9996
    assert not mfmax_membership(L0, L1)
    assert mfmax_membership(L0 / 0.9994, L1 / 0.9994)


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_mfmax_membership_agrees_with_the_polar_on_ill_conditioned_straddling_pairs(dim):
    # rotated operands with eigenvalues 10^U(-4, 0) and 10^U(0, 4), scaled to sit
    # 10^U(-8, -2) inside or outside the boundary polar_max = 1
    for t in range(200):
        rng = rng_for(23, dim, t)
        L0, L1 = (_rotated(10.0 ** rng.uniform(lo, lo + 4.0, dim), rng) for lo in (-4.0, 0.0))
        s = polar_max(L0, L1) / (1.0 + 10.0 ** rng.uniform(-8.0, -2.0) * rng.choice([-1.0, 1.0]))
        v = polar_max(L0 / s, L1 / s)
        if abs(v - 1.0) > 1e-8:
            assert mfmax_membership(L0 / s, L1 / s) == (v >= 1.0), (t, v)


def test_mfmax_membership_is_false_on_singular_or_indefinite_operands():
    assert not mfmax_membership(np.diag([1.0, 0.0]), 100 * I2)
    assert not mfmax_membership(I2, np.diag([1.0, -1e-3]))
    with pytest.raises(NotPsd):
        mfmax_membership(np.diag([np.nan, 1.0]), I2)


def test_certificate_self_pair():
    rng = rng_for(22)
    rho = random_pd(2, rng)
    rho = rho / np.trace(rho).real
    cert = duality_certificate("max", rho, rho)
    assert cert.primal_value == pytest.approx(1.0, abs=1e-10)
    assert cert.dual_value == pytest.approx(1.0, abs=1e-10)
    assert cert.gap < 1e-10
    assert cert.is_valid


def test_certificate_max_qubit_seed31():
    rng = rng_for(31)
    X = random_pd(2, rng)
    Y = random_pd(2, rng)
    cert = duality_certificate("max", X, Y)
    assert cert.is_valid
    assert cert.gap < 1e-8


def test_certificate_min_qutrit_seed32():
    rng = rng_for(32)
    X = random_pd(3, rng)
    Y = random_pd(3, rng)
    cert = duality_certificate("min", X, Y)
    assert cert.is_valid
    assert cert.gap < 1e-8


def test_certificate_half_identity():
    rng = rng_for(33)
    X = random_pd(2, rng)
    Y = random_pd(2, rng)
    cert = duality_certificate("half", X, Y)
    assert cert.dual_value == pytest.approx(fidelity_half(X, Y), abs=1e-8)
    assert cert.is_valid


def test_certificate_rejects_unknown_kind():
    with pytest.raises(ValueError):
        duality_certificate("median", I2, I2)


@pytest.mark.parametrize("kind", ["max", "min", "half"])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_dual_optimizers_sit_on_the_dual_body_boundary(kind, dim):
    rng = rng_for(34, dim)
    X = random_pd(dim, rng)
    Y = random_pd(dim, rng)
    assert duality_certificate(kind, X, Y).dual_feasible
    pair = dual_optimizers(kind, X, Y)
    assert polar_membership(kind, pair.first, pair.second)
    shrunk = 1.0 - 1e-6
    assert not polar_membership(kind, shrunk * pair.first, shrunk * pair.second)


def _rotated(spectrum, rng):
    d = len(spectrum)
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    U, _ = npl.qr(G)
    return hermitianize((U * np.asarray(spectrum)) @ U.conj().T)


@pytest.mark.parametrize("spectra", [
    ([3e-5, 1.4, 6.6, 9.0], [7e-3, 0.7, 3.8, 7.8]),
    ([0.05, 2.0, 8.3], [5e-5, 4.4, 16.4]),
])
def test_certificates_valid_on_ill_conditioned_pairs(spectra):
    # the optimizers lie on the boundaries, so the feasibility tests must
    # allow for round-off that grows with the condition numbers
    for t in range(40):
        rng = rng_for(36, t)
        X = _rotated(spectra[0], rng)
        Y = _rotated(spectra[1], rng)
        for kind in ("max", "min", "half"):
            assert duality_certificate(kind, X, Y).is_valid


def test_certificate_seed_is_retired():
    rng = rng_for(35)
    X = random_pd(2, rng)
    Y = random_pd(2, rng)
    with pytest.raises(TypeError):
        duality_certificate("min", X, Y, seed=4)


KAPPAS = [(1e6, 1e4), (1e4, 1e6), (1e8, 1e4), (1e4, 1e8)]


def _kappa_pairs(kappas, dim):
    # 10 rotated pairs with spectra geomspace(1, 1/kappa, dim) * U(0.5, 2)
    for t in range(10):
        rng = rng_for(37, dim, t)
        yield tuple(_rotated(np.geomspace(1.0, 1.0 / k, dim) * rng.uniform(0.5, 2.0, dim), rng)
                    for k in kappas)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("kappas", KAPPAS)
def test_max_certificate_valid_across_condition_numbers(kappas, dim):
    # the optimizers come from one SVD of sqrt(X) sqrt(Y), never from the
    # products sqrt(Y) X sqrt(Y), whose condition number is kappa(X) kappa(Y)
    for X, Y in _kappa_pairs(kappas, dim):
        assert duality_certificate("max", X, Y).is_valid
        pair = dual_optimizers("max", X, Y)
        assert abs(polar_max(pair.first, pair.second) - 1.0) <= 1e-9


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("kappas", KAPPAS)
def test_min_certificate_valid_across_condition_numbers(kappas, dim):
    # C*, L0* and L1* all come from one eigh of Y^{-1/2} X Y^{-1/2} taken in
    # Y's eigenbasis, so the dual pair sits on the boundary to round-off
    for X, Y in _kappa_pairs(kappas, dim):
        assert duality_certificate("min", X, Y).is_valid
        pair = dual_optimizers("min", X, Y)
        assert abs(_polar_min(psd_pair(pair.first, pair.second), end=0) - 1.0) <= 1e-9


def _bracket_and_argmin(L0, L1, monkeypatch):
    """_polar_min_bracket, with the t and the operator e^t L0 + e^-t L1 of its least evaluation."""
    S0, S1 = spectrum(L0), spectrum(L1)
    evals, eigvalsh = [], npl.eigvalsh

    def recorded(A):
        w = eigvalsh(A)
        evals.append((w[0], A))
        return w

    with monkeypatch.context() as m:
        m.setattr(npl, "eigvalsh", recorded)
        lower, upper = _polar_min_bracket(S0, S1)
    A = min(evals, key=lambda e: e[0])[1]
    (x, y), *_ = npl.lstsq(np.c_[L0.ravel(), L1.ravel()], A.ravel(), rcond=None)
    return lower, upper, 0.5 * np.log(x.real / y.real), A


def _mp_polar_min(mp, L0, L1, t0, width=1e-2):
    """min_t lambda_min(e^t L0 + e^-t L1) at mp.dps digits, by golden section on t0 +- width."""
    M0, M1 = mp.matrix(L0.tolist()), mp.matrix(L1.tolist())

    def g(t):
        return min(mp.eighe(mp.exp(t) * M0 + mp.exp(-t) * M1, eigvals_only=True))

    r = (mp.sqrt(5) - 1) / 2
    a, b = mp.mpf(t0) - width, mp.mpf(t0) + width
    c, d = b - r * (b - a), a + r * (b - a)
    gc, gd = g(c), g(d)
    while b - a > 1e-14:
        if gc < gd:
            b, d, gd = d, c, gc
            c = b - r * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + r * (b - a)
            gd = g(d)
    # the minimizer is inside the window, not on its edge
    assert abs((a + b) / 2 - t0) < 0.9 * width
    return g((a + b) / 2)


def test_polar_min_bracket_is_within_round_off_of_a_40_digit_reference(monkeypatch):
    # At kappa(X) = kappa(Y) = 1e8 the boundary pair L* has polar 1 to ~1e-9, and
    # both ends of the bracket sit within the round-off of one eigvalsh of
    # A(t*) = e^t* L0* + e^-t* L1*, eps ||A(t*)||_2 ~ 1e-8, in either direction.
    # On random dim-3 pairs the bracket's 1e-10 width dominates, one-sidedly.
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    pairs = [dual_optimizers("min", X, Y) for X, Y in _kappa_pairs((1e8, 1e8), 2)]
    pairs = [(p.first, p.second) for p in pairs]
    for t in range(4):
        rng = rng_for(38, 3, t)
        pairs.append((random_pd(3, rng), random_pd(3, rng)))
    for L0, L1 in pairs:
        lower, upper, t0, A = _bracket_and_argmin(L0, L1, monkeypatch)
        ref = float(_mp_polar_min(mp, L0, L1, t0))
        floor = 4 * np.finfo(float).eps * npl.norm(A, 2)
        assert lower - ref <= floor
        assert ref - upper <= floor


def test_qubit_polar_lower_is_within_round_off_of_a_40_digit_reference(monkeypatch):
    # dim 2 reads the exact qubit form, not the bracket's lower end, which sits
    # up to the bracket's 1e-10 relative width below the true polar
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    for t in range(10):
        rng = rng_for(39, 2, t)
        L0, L1 = random_pd(2, rng), random_pd(2, rng)
        t0 = _bracket_and_argmin(L0, L1, monkeypatch)[2]
        ref = float(_mp_polar_min(mp, L0, L1, t0))
        assert abs(_polar_min(psd_pair(L0, L1), end=0) - ref) <= 1e-12 * ref


def _mp_polar_max(mp, L0, L1):
    """2 sqrt(lambda_min(L0 L1)) at mp.dps digits."""
    eigs = mp.eig(mp.matrix(L0.tolist()) * mp.matrix(L1.tolist()), left=False, right=False)
    return 2 * mp.sqrt(min(mp.re(e) for e in eigs))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_polar_max_of_ill_conditioned_dual_optimizers_is_exact(dim):
    # At kappa(X) = kappa(Y) = 1e8 polar_max reads the polar of L* to ~1e-14;
    # what sits up to ~1e-8 off the boundary is L* itself, not polar_max
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    for X, Y in _kappa_pairs((1e8, 1e8), dim):
        pair = dual_optimizers("max", X, Y)
        L0, L1 = hermitianize(pair.first), hermitianize(pair.second)
        assert abs(polar_max(L0, L1) - float(_mp_polar_max(mp, L0, L1))) <= 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("kappas", KAPPAS)
def test_reverse_test_exact_across_condition_numbers(kappas, dim):
    for X, Y in _kappa_pairs(kappas, dim):
        rt = optimal_reverse_test(X, Y)
        f = fidelity_min(X, Y)
        assert abs(classical_fidelity(rt.p, rt.q) - f) <= 1e-12 * f
        recon_x = sum(p * s for p, s in zip(rt.p, rt.states))
        recon_y = sum(q * s for q, s in zip(rt.q, rt.states))
        assert npl.norm(recon_x - X) <= 1e-12 * npl.norm(X)
        assert npl.norm(recon_y - Y) <= 1e-12 * npl.norm(Y)


def _optimal_parts(kind, X, Y):
    """The admitted pair, C*, the dual pair and the twist of `duality_certificate`."""
    P = psd_pair(X, Y, definite=True)
    C, pair, T = _optimizers(kind, P)
    return P.X, P.Y, C, pair, T


@pytest.mark.parametrize("kind", ["max", "min"])
def test_witness_shift_makes_the_dual_block_psd_at_40_digits(kind):
    # the block the certificate decomposes, lifted by its shift, has no negative
    # eigenvalue at 40 digits: with c^2 = sqrt(tr L1* / tr L0*), as _witness_shift
    # balances the block, (L0* + eps/(2 c^2) I, L1* + eps c^2/2 I) is exactly dual
    # feasible even where L* is ~1e-8 off the boundary
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    for dim in (2, 3, 4):
        for X, Y in _kappa_pairs((1e8, 1e8), dim):
            X, Y, C, pair, T = _optimal_parts(kind, X, Y)
            shift = certify._witness_shift(X, Y, pair.first, pair.second, T)
            assert shift <= _CERT_TOL * np.sqrt(np.trace(X).real * np.trace(Y).real)
            assert duality_certificate(kind, X, Y).is_valid
            c2 = float(np.sqrt(np.trace(pair.second).real / np.trace(pair.first).real))
            weight = float(np.trace(X).real / c2 + c2 * np.trace(Y).real)
            eps = mp.mpf(2.0 * shift) / mp.mpf(weight)
            B = mp.matrix(certify._dual_block(pair.first, pair.second, T).tolist())
            lift = mp.diag([eps / c2] * dim + [eps * c2] * dim)
            assert min(mp.eighe(B + lift, eigvals_only=True)) >= 0


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("twist", ["zero", "antihermitian"])
def test_dual_block_is_the_block_form_bit_for_bit(dim, twist):
    rng = rng_for(76, dim)
    L0, L1 = random_pd(dim, rng), random_pd(dim, rng)
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    T = 0.0 if twist == "zero" else 0.5 * (G - G.conj().T)
    eye = np.eye(dim)
    expect = hermitianize(np.block([[2.0 * L0, T - eye], [-T - eye, 2.0 * L1]]))
    B = certify._dual_block(L0, L1, T)
    assert B.dtype == expect.dtype and B.tobytes() == expect.tobytes()


def test_min_dual_pair_needs_its_twist():
    # on a non-commuting pair the min L* is dual feasible only with its twist
    rng = rng_for(73, 3)
    X, Y, C, pair, T = _optimal_parts("min", random_pd(3, rng), random_pd(3, rng))
    tol = _CERT_TOL * np.sqrt(np.trace(X).real * np.trace(Y).real)
    assert certify._witness_shift(X, Y, pair.first, pair.second, T) <= tol
    assert certify._witness_shift(X, Y, pair.first, pair.second, 0.0) > tol


@pytest.mark.parametrize("kind", ["max", "min"])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_certificate_refuses_a_shrunk_dual_pair(kind, dim, monkeypatch):
    def shrunk(*args):
        C, pair, T = _optimizers(*args)
        s = 1.0 - 1e-6
        return C, OperatorPair._of_psd(s * pair.first, s * pair.second), T

    monkeypatch.setattr(certify, "_optimizers", shrunk)
    rng = rng_for(74, dim)
    cert = duality_certificate(kind, random_pd(dim, rng), random_pd(dim, rng))
    assert not cert.dual_feasible
    assert not cert.is_valid


@pytest.mark.parametrize("dim", [3, 12, 16])
def test_half_certificate_refuses_a_shrunk_dual_pair(dim, monkeypatch):
    # (1 - 1e-6) L* has polar 1 - 1e-6 < 1 - _CERT_TOL: below the crossover the Gram
    # says so, above it the sqrt(X) witness closes the bracket on that value
    def shrunk(*args):
        C, pair, T = _optimizers(*args)
        s = 1.0 - 1e-6
        return C, OperatorPair._of_psd(s * pair.first, s * pair.second), T

    monkeypatch.setattr(certify, "_optimizers", shrunk)
    rng = rng_for(74, dim)
    cert = duality_certificate("half", random_pd(dim, rng), random_pd(dim, rng))
    assert not cert.dual_feasible
    assert not cert.is_valid


@pytest.mark.parametrize("dim", [12, 16, 32])
@pytest.mark.parametrize("kappas", [(1.0, 1.0), (1e8, 1e8)])
def test_half_witness_closes_on_one(kappas, dim):
    # at the half optimizers S_L0*(S_L1*(sqrt X)) = sqrt X: the Collatz-Wielandt bracket at
    # the witness sqrt X closes on polar 1 (both ends within 2.6e-12 of 1 at kappa = 1e8)
    for X, Y in list(_kappa_pairs(kappas, dim))[:2]:
        P = psd_pair(X, Y, definite=True)
        pair = _optimizers("half", P)[1]
        lower, upper = _polar_half_bracket(spectrum(pair.first), spectrum(pair.second),
                                           P.Xs.sqrt())
        assert 1 - 1e-11 <= lower <= upper <= 1 + 1e-11
        assert duality_certificate("half", X, Y).is_valid


def _refuse_gram_and_lanczos(monkeypatch):
    """Make the half bracket's two fallbacks raise, so that only its witness can close it."""
    def refuse(*args):
        raise AssertionError("the half bracket left its witness")

    for name in ("_lanczos_bracket", "_composed_lyapunov_matrix"):
        monkeypatch.setattr(POLAR_MODULE, name, refuse)


@pytest.mark.parametrize("dim", [3, 8])
@pytest.mark.parametrize("kappas", [(1.0, 1.0), (1e4, 1e4), (1e8, 1e8)])
def test_half_witness_closes_below_the_lanczos_dim(kappas, dim, monkeypatch):
    # below dim 12 too, the witness sqrt X closes the bracket on L*'s polar with no Gram and no
    # Lanczos step: both ends within 1e-10 of 1 on every pair (1.7e-11 seen at dim 3 and
    # kappa = 1e8, 2.4e-14 at kappa = 1e4)
    _refuse_gram_and_lanczos(monkeypatch)
    for X, Y in _kappa_pairs(kappas, dim):
        P = psd_pair(X, Y, definite=True)
        pair = _optimizers("half", P)[1]
        lower, upper = _polar_half_bracket(spectrum(pair.first), spectrum(pair.second),
                                           P.Xs.sqrt())
        assert 1 - 1e-10 <= lower <= upper <= 1 + 1e-10
        assert duality_certificate("half", X, Y).is_valid


def _mp_hermitian(M):
    """The Hermitian part of an mp matrix."""
    return (M + M.H) / 2


def _mp_function(mp, A, f):
    """f(A) for a float Hermitian A, through mp.eighe at mp.dps digits."""
    w, V = mp.eighe(mp.matrix(A.tolist()))
    return V * mp.diag([f(x) for x in w]) * V.H


def _mp_lyapunov(mp, L, H):
    """S_L(H), the solution S of S L + L S = H, through mp.eighe of the float L."""
    w, V = mp.eighe(mp.matrix(L.tolist()))
    Ht = V.H * H * V
    for i in range(len(w)):
        for j in range(len(w)):
            Ht[i, j] /= w[i] + w[j]
    return V * Ht * V.H


@pytest.mark.parametrize("kappas", [(1.0, 1.0), (1e8, 1e8)])
def test_half_witness_never_overstates_the_polar_at_40_digits(kappas):
    # For every positive definite H, lambda_max(H^-1/2 Phi(H) H^-1/2) >= rho(Phi),
    # Phi = S_L0* o S_L1*, so its -1/2 power at 40 digits is a rigorous lower bound on
    # the polar of the float L*. The float lower end at the witness sqrt X, which the
    # half certificate reads at dim 12, is held to it: the witness accepts no pair whose
    # polar is below its own lower end by more than round-off
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    dim = 12
    X, Y = next(_kappa_pairs(kappas, dim))
    P = psd_pair(X, Y, definite=True)
    pair = _optimizers("half", P)[1]
    H = P.Xs.sqrt()
    lower = _polar_half_bracket(spectrum(pair.first), spectrum(pair.second), H)[0]
    F = _mp_lyapunov(mp, pair.first, _mp_lyapunov(mp, pair.second, mp.matrix(H.tolist())))
    R = _mp_function(mp, H, lambda x: x ** -0.5)
    top = max(mp.eighe(_mp_hermitian(R * F * R), eigvals_only=True))
    assert lower <= float(top ** -0.5) + 4 * dim * np.finfo(float).eps


@pytest.mark.parametrize("kappas", [(1.0, 1.0), (1e8, 1e8)])
def test_dim3_half_witness_never_overstates_the_polar_at_40_digits(kappas, monkeypatch):
    # the check above at dim 3, where the half certificate now also reads the witness's
    # lower end (the Gram and Lanczos are refused, so no other path can answer). Phi(H) is
    # formed in L*'s eigenbases, and its round-off, about eps ||Phi(H)||, meets H^-1/2 twice:
    # the float lower end stays within 8 eps kappa(H) of the rigorous one (6.9 seen at
    # kappa(X) = 1e8, where kappa(H) = 1e4; 2.6 at kappa(X) = 1)
    _refuse_gram_and_lanczos(monkeypatch)
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    dim = 3
    for X, Y in list(_kappa_pairs(kappas, dim))[:3]:
        P = psd_pair(X, Y, definite=True)
        pair = _optimizers("half", P)[1]
        H = P.Xs.sqrt()
        lower = _polar_half_bracket(spectrum(pair.first), spectrum(pair.second), H)[0]
        F = _mp_lyapunov(mp, pair.first, _mp_lyapunov(mp, pair.second, mp.matrix(H.tolist())))
        R = _mp_function(mp, H, lambda x: x ** -0.5)
        top = max(mp.eighe(_mp_hermitian(R * F * R), eigvals_only=True))
        kappa_h = float(np.sqrt(P.Xs.eigenvalues[-1] / P.Xs.eigenvalues[0]))
        assert lower <= float(top ** -0.5) + 8 * kappa_h * np.finfo(float).eps


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_optimal_measurement_attains_fidelity_max_at_50_digits(dim):
    # the basis is (2 L0*)^-1's, from the max SVD of sqrt(X) sqrt(Y): at
    # kappa(X) = kappa(Y) = 1e8 the classical fidelity of its outcome distributions meets
    # a 50-digit F_max to ~3e-15, where the eigenbasis of
    # Y^-1/2 (Y^1/2 X Y^1/2)^1/2 Y^-1/2, whose product squares kappa, misses it by up to 1.1e-9
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    for X, Y in _kappa_pairs((1e8, 1e8), dim):
        els = optimal_measurement(X, Y).elements
        p, q = ([np.trace(E @ A).real for E in els] for A in (X, Y))
        sY = _mp_function(mp, Y, mp.sqrt)
        M = sY * mp.matrix(X.tolist()) * sY
        ref = float(sum(mp.sqrt(max(x, 0)) for x in mp.eighe(_mp_hermitian(M),
                                                                 eigvals_only=True)))
        assert abs(classical_fidelity(p, q) - ref) <= 1e-13 * ref


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_optimal_twist_attains_fidelity_min(dim):
    for t in range(10):
        rng = rng_for(75, dim, t)
        X, Y = random_pd(dim, rng), random_pd(dim, rng)
        A = optimal_twist(X, Y)
        assert np.array_equal(A, A.conj().T)
        J = np.eye(dim) + 1j * A
        f = fidelity_min(X, Y)
        assert abs(fidelity_max(X, J.conj().T @ Y @ J) - f) <= 1e-12 * f
