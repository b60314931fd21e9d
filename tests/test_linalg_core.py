import numpy as np
import numpy.linalg as npl
import pytest

from fidlab.channels import random_pd, rng_for
from fidlab.errors import DimensionMismatch, NotPsd
from fidlab.linalg_core import (
    OperatorPair,
    hermitianize,
    pinch,
    pinv,
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


def test_psd_spectrum_rejects_negative():
    with pytest.raises(NotPsd):
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
