import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.linalg as npl
import pytest

import fidlab
from fidlab import linalg_core
from fidlab.channels import random_pd, rng_for
from fidlab.errors import DimensionMismatch, NotPositiveDefinite, NotPsd
from fidlab.linalg_core import (
    OperatorPair,
    hermitianize,
    pinch,
    pinv,
    psd_pair,
    psd_spectrum,
    psd_sqrt,
    schur_reduce,
    spectrum,
    support_projector,
)

PLUS = np.full((2, 2), 0.5, dtype=complex)


def test_psd_sqrt_identity():
    assert np.allclose(psd_sqrt(np.eye(3, dtype=complex)), np.eye(3))


def test_psd_sqrt_diagonal():
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0]).astype(complex)),
                       np.diag([2.0, 3.0]))


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(0)
    G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    A = hermitianize(G @ G.conj().T)
    s = psd_sqrt(A)
    assert np.allclose(s @ s, A, atol=1e-10)


def test_pinv_rank_deficient_diagonal():
    assert np.allclose(pinv(np.diag([2.0, 0.0]).astype(complex)),
                       np.diag([0.5, 0.0]))


def test_pinv_invertible_diagonal():
    assert np.allclose(pinv(np.diag([1.0, 4.0]).astype(complex)),
                       np.diag([1.0, 0.25]))


def test_support_projector_diagonal():
    assert np.allclose(support_projector(np.diag([1.0, 0.0]).astype(complex)),
                       np.diag([1.0, 0.0]))


def test_support_projector_full_rank():
    rng = np.random.default_rng(1)
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    A = hermitianize(G @ G.conj().T) + 0.1 * np.eye(3)
    assert np.allclose(support_projector(A), np.eye(3), atol=1e-10)


def test_support_projector_rank_one():
    assert np.allclose(support_projector(PLUS), PLUS, atol=1e-12)


def test_schur_reduce_nested_supports():
    X = np.diag([0.3, 0.0]).astype(complex)
    Y = np.diag([1.0, 0.0]).astype(complex)
    assert np.allclose(schur_reduce(X, Y), X, atol=1e-12)


def test_schur_reduce_plus_vs_zero():
    Y = np.diag([1.0, 0.0]).astype(complex)
    assert np.allclose(schur_reduce(PLUS, Y), np.zeros((2, 2)), atol=1e-12)


def test_pinch_diagonal_unchanged():
    D = np.diag([0.2, 0.8]).astype(complex)
    assert np.allclose(pinch(D), D)


def test_pinch_drops_off_diagonals():
    assert np.allclose(pinch(PLUS), np.diag([0.5, 0.5]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_pinch_refuses_a_non_finite_entry(bad):
    with pytest.raises(NotPsd, match="^X has a non-finite entry"):
        pinch(np.array([[1.0, 0.0], [bad, 1.0]]))


def test_psd_spectrum_rejects_negative():
    # the refusal names the tolerance it applied, Spectrum.tol = 1e-10 * max |eigenvalue|
    with pytest.raises(NotPsd, match=r"^A has eigenvalue -5\.000e-01 below -tol = -1\.000e-10$"):
        psd_spectrum(np.diag([1.0, -0.5]).astype(complex), "A")


def test_operator_pair_validates():
    with pytest.raises(NotPsd):
        OperatorPair(first=np.diag([-1.0, 1.0]).astype(complex),
                     second=np.eye(2, dtype=complex))
    with pytest.raises(DimensionMismatch):
        OperatorPair(first=np.eye(2, dtype=complex),
                     second=np.eye(3, dtype=complex))


def test_spectrum_reconstructs():
    rng = np.random.default_rng(2)
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    A = hermitianize(G)
    sp = spectrum(A)
    assert np.allclose(sp.reconstruct(), A, atol=1e-12)
    assert np.all(np.diff(sp.eigenvalues) >= 0)
    assert np.allclose(sorted(sp.eigenvalues), sorted(npl.eigvalsh(A)))


def _rotated_rank(dim, rank, rng):
    """Y of rank `rank` whose kernel has a random basis, with that basis."""
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    U, _ = npl.qr(G)
    Y = (U * np.r_[rng.uniform(0.2, 2.0, rank), np.zeros(dim - rank)]) @ U.conj().T
    return hermitianize(Y), U


ROTATED = [(dim, rank) for dim in range(3, 9) for rank in sorted({1, dim // 2, dim - 1})]


@pytest.mark.parametrize("dim, rank", ROTATED)
def test_support_projector_rotated_kernel(dim, rank):
    Y, U = _rotated_rank(dim, rank, rng_for(80, dim, rank))
    P = support_projector(Y)
    assert np.allclose(P @ P, P, atol=1e-10)
    assert np.trace(P).real == pytest.approx(rank, abs=1e-10)
    assert np.allclose(P, U[:, :rank] @ U[:, :rank].conj().T, atol=1e-10)


@pytest.mark.parametrize("dim, rank", ROTATED)
def test_pinv_rotated_kernel_penrose_conditions(dim, rank):
    Y, _ = _rotated_rank(dim, rank, rng_for(81, dim, rank))
    P = pinv(Y)
    assert np.allclose(Y @ P @ Y, Y, atol=1e-9)
    assert np.allclose(P @ Y @ P, P, atol=1e-9)
    assert np.allclose((Y @ P).conj().T, Y @ P, atol=1e-9)
    assert np.allclose((P @ Y).conj().T, P @ Y, atol=1e-9)


@pytest.mark.parametrize("dim, rank", ROTATED)
def test_schur_reduce_rotated_kernel(dim, rank):
    rng = rng_for(82, dim, rank)
    Y, U = _rotated_rank(dim, rank, rng)
    X = random_pd(dim, rng)
    # the Schur complement of X's kernel block, taken in Y's eigenbasis
    Xt = U.conj().T @ X @ U
    A, B, C = Xt[:rank, :rank], Xt[:rank, rank:], Xt[rank:, rank:]
    reduced = A - B @ npl.inv(C) @ B.conj().T
    expect = U[:, :rank] @ reduced @ U[:, :rank].conj().T
    assert np.allclose(schur_reduce(X, Y), expect, atol=1e-9)


# the operand spectrum memo: keyed by content, read-only, bounded, and the
# PSD/PD verdict and the operand's name decided on every call, hit or miss


def test_memo_is_keyed_by_content():
    X = random_pd(3, rng_for(83, 3))
    psd_spectrum(X)
    X[0, 0] += 1.0  # mutated in place: same object, new content
    w, V = npl.eigh(hermitianize(X))
    sp = psd_spectrum(X)
    assert np.array_equal(sp.eigenvalues, w)
    assert np.allclose(np.abs(sp.eigenvectors.conj().T @ V), np.eye(3), atol=1e-12)
    assert np.array_equal(psd_pair(X, np.eye(3)).Xs.eigenvalues, w)


def test_memoized_spectra_are_read_only():
    X, Y = (random_pd(3, rng_for(84, 3, k)) for k in range(2))
    P = psd_pair(X, Y)
    for sp in (psd_spectrum(X), psd_spectrum(X), P.Xs, P.Ys):
        assert not sp.eigenvalues.flags.writeable and not sp.eigenvectors.flags.writeable
        with pytest.raises(ValueError):
            sp.eigenvalues[0] = 0.0


def test_spectrum_keeps_its_derived_matrices_read_only():
    Y, _ = _rotated_rank(4, 3, rng_for(89, 4))
    for sp in (psd_spectrum(Y), spectrum(Y)):
        for derived in ("sqrt", "inv_sqrt"):
            first = getattr(sp, derived)()
            assert getattr(sp, derived)() is first and not first.flags.writeable
        sup = sp.support()
        assert sp.support() is sup
        assert not (sup.eigenvalues.flags.writeable or sup.eigenvectors.flags.writeable)


# the kernel is kept like the support: a memoized operand's Schur reduction does not
# rebuild its mask on every call
def test_spectrum_keeps_its_kernel_read_only():
    Y, _ = _rotated_rank(4, 3, rng_for(89, 4))
    for sp in (psd_spectrum(Y), spectrum(Y)):
        K = sp.kernel()
        assert sp.kernel() is K and K.shape == (4, 1) and not K.flags.writeable
        assert np.allclose(Y @ K, 0.0, atol=1e-12)


# the public matrix functions hand out their own arrays: writing into one
# leaves the kept matrices of the operands' spectra, and so every later
# fidelity on those operands, unchanged
@pytest.mark.parametrize("call", [
    lambda X, Y: psd_sqrt(Y),
    lambda X, Y: psd_sqrt(X),
    lambda X, Y: pinv(Y),
    lambda X, Y: support_projector(Y),
    lambda X, Y: schur_reduce(X, Y),
    lambda X, Y: schur_reduce(Y, X),
    # its rotation reverses the columns of the memoized, read-only eigenvectors
    lambda X, Y: fidlab.frame_from_operator(Y[:2, :2]).rotation,
], ids=["psd_sqrt_Y", "psd_sqrt_X", "pinv", "support_projector", "schur_reduce_XY",
        "schur_reduce_YX", "frame_from_operator"])
@pytest.mark.parametrize("rank", [2, 3])
def test_public_matrix_functions_return_writable_copies(call, rank):
    rng = rng_for(90, 3, rank)
    X, (Y, _) = random_pd(3, rng), _rotated_rank(3, rank, rng)
    before = fidlab.fidelity_max(X, Y), fidlab.fidelity_half(X, Y)
    out = call(X, Y)
    assert out.flags.writeable
    out[...] = 7.0
    assert (fidlab.fidelity_max(X, Y), fidlab.fidelity_half(X, Y)) == before


def test_memo_hit_raises_as_a_miss_does():
    X = random_pd(2, rng_for(85, 2))
    Ysing, Yneg = np.diag([1.0, 0.0]), np.diag([1.0, -0.5])
    psd_pair(X, Ysing)  # admitted and memoized as the PSD "Y"
    with pytest.raises(NotPositiveDefinite, match="^X is not"):
        psd_pair(Ysing, X, definite=True)
    with pytest.raises(NotPositiveDefinite, match="^L1 is not"):
        psd_pair(X, Ysing, ("L0", "L1"), definite=True)
    for names in (("X", "Y"), ("Y", "X")):
        with pytest.raises(NotPsd, match=f"^{names[1]} has eigenvalue"):
            psd_pair(X, Yneg, names)
    with pytest.raises(NotPsd, match="^Z has eigenvalue"):
        psd_spectrum(Yneg, "Z")


def test_memo_stays_within_its_bound():
    rng = rng_for(86, 2)
    for _ in range(3 * linalg_core._MEMO_ENTRIES):
        psd_spectrum(random_pd(2, rng))
        assert len(linalg_core._SPECTRA) <= linalg_core._MEMO_ENTRIES
    assert len(linalg_core._SPECTRA) == linalg_core._MEMO_ENTRIES


def test_memo_is_thread_safe():
    # more threads than cores, a short switch interval and a memo overrun many
    # times: an unlocked evict-then-insert loses the race within a second
    rng = rng_for(88, 2)
    operands = [random_pd(2, rng) for _ in range(1000)]
    expect = [npl.eigvalsh(H) for H in operands]

    def admit_all(shift):
        for k in range(shift, shift + len(operands)):
            w = psd_spectrum(operands[k % len(operands)]).eigenvalues
            assert np.allclose(w, expect[k % len(operands)], atol=1e-12)
            assert len(linalg_core._SPECTRA) <= linalg_core._MEMO_ENTRIES

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            assert len(list(pool.map(admit_all, range(0, 1000, 50), timeout=60))) == 20
    finally:
        sys.setswitchinterval(interval)


_PAIR_VALUES = ["fidelity_max", "fidelity_min", "fidelity_half",
                "polar_max", "polar_min", "polar_half"]


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_cold_and_warm_results_are_bit_identical(dim):
    rng = rng_for(87, dim)
    for _ in range(50):
        X, Y = random_pd(dim, rng), random_pd(dim, rng)
        cold = []
        for name in _PAIR_VALUES:
            linalg_core._SPECTRA.clear()
            cold.append(getattr(fidlab, name)(X, Y))
        assert [getattr(fidlab, name)(X, Y) for name in _PAIR_VALUES] == cold


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("name", _PAIR_VALUES)
def test_non_finite_operands_are_refused(name, bad):
    B = np.diag([bad, 1.0])
    first, second = ("L0", "L1") if name.startswith("polar") else ("X", "Y")
    with pytest.raises(NotPsd, match=f"^{first} has a non-finite entry"):
        getattr(fidlab, name)(B, np.eye(2))
    with pytest.raises(NotPsd, match=f"^{second} has a non-finite entry"):
        getattr(fidlab, name)(np.eye(2), B)
    with pytest.raises(NotPsd, match="^Z has a non-finite entry"):
        psd_spectrum(B, "Z")


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("name", ["spectrum", "pinv"])
def test_spectrum_and_pinv_refuse_non_finite_entries(name, bad):
    # a NaN tolerance would keep no support, and pinv would return the zero matrix
    with pytest.raises(NotPsd, match="^operator has a non-finite entry"):
        getattr(fidlab, name)(np.diag([bad, 1.0]))
