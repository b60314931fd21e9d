import numpy as np
import numpy.linalg as npl
import pytest

from fidlab.channels import random_pd, rng_for
from fidlab.errors import SingularPair
from fidlab.linalg_core import hermitianize, spectrum
from fidlab.polar import polar_half
from fidlab.superop import (_composed_lyapunov_matrix, _composed_lyapunov_operator,
                            composed_lyapunov_spectrum, lyapunov_solve, positive_fixed_point)


def _kron_superop(Z):
    """
    S_Z as a dim^2 x dim^2 matrix in column-stacking coordinates, built
    directly from the Lyapunov equation: S Z + Z S = X reads
    (Z^T (x) I + I (x) Z) vec(S) = vec(X), so S_Z is that matrix's inverse.
    Independent of the eigenbasis division the library uses.
    """
    d = Z.shape[0]
    I = np.eye(d)
    return npl.inv(np.kron(Z.T, I) + np.kron(I, Z))


def test_lyapunov_solve_identity():
    rng = np.random.default_rng(1)
    X = hermitianize(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    assert np.allclose(lyapunov_solve(np.eye(3, dtype=complex), X), X / 2)


def test_lyapunov_solve_frozen_entries():
    Z = np.diag([1.0, 3.0]).astype(complex)
    X = np.ones((2, 2), dtype=complex)
    S = lyapunov_solve(Z, X)
    assert np.allclose(S, np.array([[0.5, 0.25], [0.25, 1.0 / 6.0]]))
    assert np.allclose(S @ Z + Z @ S, X, atol=1e-12)


def test_lyapunov_solve_singular_pair():
    Z = np.diag([0.0, 1.0]).astype(complex)
    X = np.eye(2, dtype=complex)
    with pytest.raises(SingularPair):
        lyapunov_solve(Z, X)


def test_lyapunov_solve_singular_but_compatible():
    Z = np.diag([0.0, 1.0]).astype(complex)
    X = np.diag([0.0, 4.0]).astype(complex)
    S = lyapunov_solve(Z, X)
    assert np.allclose(S @ Z + Z @ S, X, atol=1e-12)


def test_lyapunov_superop_identity():
    assert np.allclose(_kron_superop(np.eye(2, dtype=complex)), 0.5 * np.eye(4))


def test_lyapunov_superop_matches_solve():
    rng = np.random.default_rng(2)
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    Z = hermitianize(G @ G.conj().T) + 0.1 * np.eye(3)
    X = hermitianize(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    S_direct = lyapunov_solve(Z, X)
    # the matrix represents the inverse map S_Z, not X -> SZ + ZS
    S_kron = (_kron_superop(Z) @ X.flatten(order="F")).reshape((3, 3), order="F")
    assert np.allclose(S_kron, S_direct, atol=1e-10)


def test_composed_spectrum_scalar():
    sp = composed_lyapunov_spectrum(np.array([[1.0]], dtype=complex),
                                    np.array([[1.0]], dtype=complex))
    assert np.allclose(sp.eigenvalues, [0.25])


def test_composed_spectrum_diagonal_pair():
    L0 = np.diag([1.0, 4.0]).astype(complex)
    L1 = np.diag([4.0, 1.0]).astype(complex)
    sp = composed_lyapunov_spectrum(L0, L1)
    assert np.allclose(sorted(sp.eigenvalues),
                       sorted([1 / 16, 1 / 16, 1 / 25, 1 / 25]), atol=1e-12)


def _explicit_composed(L0, L1):
    # S_{L1}^{1/2} S_{L0} S_{L1}^{1/2} from the full superoperator matrices
    w, V = npl.eigh(hermitianize(_kron_superop(L1)))
    M1h = (V * np.sqrt(w)) @ V.conj().T
    return hermitianize(M1h @ _kron_superop(L0) @ M1h)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_composed_spectrum_matches_explicit_matrix(dim):
    for trial in range(3):
        rng = rng_for(90, dim, trial)
        L0, L1 = random_pd(dim, rng), random_pd(dim, rng)
        M = _explicit_composed(L0, L1)
        ev = npl.eigvalsh(M)
        sp = composed_lyapunov_spectrum(L0, L1)
        assert np.max(np.abs(sp.eigenvalues - ev)) <= 1e-12 * ev[-1]
        assert np.max(np.abs(sp.reconstruct() - M)) <= 1e-12 * ev[-1]
        assert polar_half(L0, L1) == pytest.approx(ev[-1] ** -0.5, rel=1e-12, abs=0)


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_composed_operator_is_the_gram_form_matrix_free(dim):
    # in the orthonormal Hermitian basis E_ii, (E_ij + E_ji)/sqrt2, i(E_ij - E_ji)/sqrt2
    # (i < j) of L1's eigenbasis, apply(Z) has the coordinates G x of Z's coordinates x
    rng = rng_for(91, dim)
    S0, S1 = spectrum(random_pd(dim, rng)), spectrum(random_pd(dim, rng))
    apply, w1 = _composed_lyapunov_operator(S0, S1)
    G = _composed_lyapunov_matrix(S0, S1)
    iu, ju = np.triu_indices(dim, 1)

    def coords(Z):
        return np.r_[Z.diagonal().real, 2 ** 0.5 * Z[iu, ju].real, 2 ** 0.5 * Z[iu, ju].imag]

    Z = hermitianize(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    AZ = apply(Z)
    assert np.allclose(AZ, AZ.conj().T, rtol=0, atol=1e-13 * npl.norm(AZ))
    assert np.allclose(coords(AZ), G @ coords(Z), rtol=0, atol=1e-13 * npl.norm(G))
    assert np.allclose(w1, (S1.eigenvalues[:, None] + S1.eigenvalues) ** -0.5)


def test_positive_fixed_point_identity():
    A, alpha = positive_fixed_point(np.eye(2, dtype=complex),
                                    np.eye(2, dtype=complex))
    assert np.allclose(A, np.eye(2) / 2, atol=1e-9)
    assert abs(alpha - 0.25) < 1e-9


def test_positive_fixed_point_diagonal():
    L0 = np.diag([1.0, 4.0]).astype(complex)
    L1 = np.diag([4.0, 1.0]).astype(complex)
    A, alpha = positive_fixed_point(L0, L1)
    assert abs(alpha - 1 / 16) < 1e-8
    assert np.max(np.abs(A - np.diag(np.diag(A)))) < 1e-8
