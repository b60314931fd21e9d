# src/fidlab/superop.py
#
# Linear transforms on operator space: the Lyapunov operator S_Z solving
# X = S Z + Z S, the spectrum of the composition S_{L0} o S_{L1}, and a
# PSD-cone power iteration for its leading eigenvector. Everything is built
# from the spectrum of Z: S_Z is diagonal on the matrix units |v_i><v_j| of
# Z's eigenbasis with weights 1 / (lambda_i + lambda_j), so the private
# helpers take a Spectrum and never decompose Z again. S_{L0} o S_{L1}
# commutes with H -> H^dagger, so its spectrum is that of its restriction to
# Hermitian operators: a real symmetric Gram matrix A A^T of size dim^2 in
# L1's eigenbasis, which polar_half takes below dim 12 and as its fallback and
# the tests take as their reference. Its matrix-free twin, the one way S_{L0} o S_{L1}
# acts on an operator, applies the symmetric form S_L1^(1/2) S_L0 S_L1^(1/2) to one d x d
# matrix by four d x d matmuls, for polar_half's Lanczos bracket at dims >= 12, the half
# certificate's witness check and the power iteration (in L1's eigenbasis). Operand pairs
# (L0, L1) are admitted by `linalg_core.psd_pair`; lyapunov_solve's X is a Hermitian
# right-hand side, not a PSD operand, so it passes only psd_pair's gate `_hermitian_pair`.

from __future__ import annotations

from functools import lru_cache

import numpy as np
import numpy.linalg as npl

from .errors import NoConvergence, SingularPair
from .linalg_core import (Spectrum, _admitted, _hermitian_pair, _operand_spectrum, hermitianize,
                          psd_pair)

__all__ = [
    "lyapunov_solve",
    "composed_lyapunov_spectrum",
    "positive_fixed_point",
]


def lyapunov_solve(Z: np.ndarray, X: np.ndarray) -> np.ndarray:
    """
    Solve S Z + Z S = X for Hermitian X and PSD Z.

    In the eigenbasis of Z the solution is entrywise division by
    (lambda_i + lambda_j). Entries with vanishing denominator must have a
    vanishing right-hand side, otherwise the equation is unsolvable.
    """
    Z, X = _hermitian_pair(Z, X, ("Z", "X"))
    Zs = _admitted(_operand_spectrum(Z), "Z")
    w, V = Zs.eigenvalues, Zs.eigenvectors
    if Zs.is_definite:
        return _definite_lyapunov_solve(w, V, X)
    Vh = V.conj().T
    Xt = Vh @ X @ V
    denom = w[:, None] + w
    singular = denom <= Zs.tol
    # relative to the Frobenius norm of Xt, which bounds the operator norm of X
    if np.any(singular & (np.abs(Xt) > 1e-10 * npl.norm(Xt))):
        raise SingularPair("X has weight on the kernel block of S_Z")
    St = np.where(singular, 0.0, Xt / np.where(singular, 1.0, denom))
    return hermitianize(V @ St @ Vh)


def _definite_lyapunov_solve(w: np.ndarray, V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """
    S_Z(X) for Hermitian X and positive definite Z = V diag(w) V^dagger, stacked alike over
    any leading axes of w, V and X: every w_i + w_j is positive, so nothing is masked, and
    one stacked pass costs about what one solve does on small matrices.
    """
    Vh = V.conj().swapaxes(-1, -2)
    return hermitianize(V @ ((Vh @ X @ V) / (w[..., :, None] + w[..., None, :])) @ Vh)


@lru_cache(maxsize=64)
def _hermitian_basis(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """
    Index tables of the orthonormal real basis of dim x dim Hermitian
    operators: E_ii for each i, then (E_ij + E_ji)/sqrt2 for i < j, then
    i(E_ij - E_ji)/sqrt2 for i < j. Returns the pairs (rows[p], cols[p]),
    diagonal pairs first, the pair of each basis element, and a per-pair
    scale, 1/sqrt2 on the diagonal and 1 off it, that folds the basis
    normalization into the pair weights.
    """
    diag = np.arange(dim)
    iu, ju = np.triu_indices(dim, 1)
    rows, cols = np.r_[diag, iu], np.r_[diag, ju]
    pair_of = np.r_[np.arange(rows.size), np.arange(dim, rows.size)]
    scale = np.where(rows == cols, 0.5 ** 0.5, 1.0)
    for table in (rows, cols, pair_of, scale):
        table.setflags(write=False)
    return rows, cols, pair_of, scale


def _composed_lyapunov_matrix(S0: Spectrum, S1: Spectrum) -> np.ndarray:
    """
    S_{L1}^{1/2} S_{L0} S_{L1}^{1/2} restricted to Hermitian operators, as
    the real symmetric Gram matrix A A^T in L1's basis of _hermitian_basis.
    There S_{Lk} is diagonal with weights 1 / (lambda_i + lambda_j), and
    A = diag(w1) R diag(w0), w_k = (lambda_i + lambda_j)^(-1/2), where R is
    the orthogonal matrix of H -> W H W^dagger, W = V1^dagger V0. Entry
    ((i, j), (k, l)) of R is Re or Im of P = X + X' or Q = X - X', with
    X = W_ik conj(W_jl) and X' = W_il conj(W_jk), times the two pairs'
    scales, which are folded into w0 and w1.
    """
    d = S0.dim
    rows, cols, pair_of, scale = _hermitian_basis(d)
    W = S1.eigenvectors.conj().T @ S0.eigenvectors
    Wr, Wc = W[rows], W[cols]
    X, Xp = Wr[:, rows] * Wc[:, cols].conj(), Wr[:, cols] * Wc[:, rows].conj()
    P, Q = X + Xp, X - Xp
    R = np.concatenate([np.concatenate([P.real, -Q.imag[:, d:]], axis=1),
                        np.concatenate([P.imag[d:], Q.real[d:, d:]], axis=1)])
    w0, w1 = ((S.eigenvalues[rows] + S.eigenvalues[cols]) ** -0.5 * scale
              for S in (S0, S1))
    A = w1[pair_of, None] * R * w0[pair_of]
    return A @ A.T


def _composed_lyapunov_operator(S0: Spectrum, S1: Spectrum):
    """
    The matrix-free twin of _composed_lyapunov_matrix: (apply, w1), where apply(Z) is
    S_{L1}^{1/2} S_{L0} S_{L1}^{1/2} (Z) for a d x d matrix Z in L1's eigenbasis, by the
    entrywise weights w1 = (mu_i + mu_j)^(-1/2) and 1 / (lambda_i + lambda_j) and the
    change of basis W = V1^dagger V0: four d x d matmuls per application. Entrywise
    division by w1 is S_{L1}^{-1/2}, so there S_{L0} o S_{L1} (H) = apply(w1 H) / w1. The
    weights are complex with zero imaginary part, which skips numpy's mixed-type cast.
    """
    W = S1.eigenvectors.conj().T @ S0.eigenvectors
    Wh = W.conj().T.copy()
    w1 = ((S1.eigenvalues[:, None] + S1.eigenvalues) ** -0.5).astype(complex)
    c0 = (1.0 / (S0.eigenvalues[:, None] + S0.eigenvalues)).astype(complex)

    def apply(Z: np.ndarray) -> np.ndarray:
        return w1 * (W @ (c0 * (Wh @ (w1 * Z) @ W)) @ Wh)

    return apply, w1


def composed_lyapunov_spectrum(L0: np.ndarray, L1: np.ndarray) -> Spectrum:
    """
    All dim^2 eigenvalues of S_{L0} o S_{L1}, via the similar Hermitian form
    S_{L1}^{1/2} S_{L0} S_{L1}^{1/2}. Eigenvector k is the eigen-operator
    H_k in column-stacking coordinates, H_k.flatten(order="F"). The form
    commutes with H -> H^dagger, so its eigenpairs are those of its real
    restriction to Hermitian operators, mapped back from L1's basis of
    _hermitian_basis. Every eigenvalue is strictly positive.
    """
    _, _, S0, S1 = psd_pair(L0, L1, ("L0", "L1"), definite=True)
    d = S0.dim
    rows, cols, _, _ = _hermitian_basis(d)
    w, x = npl.eigh(_composed_lyapunov_matrix(S0, S1))
    off = (x[d:rows.size] + 1j * x[rows.size:]) * 0.5 ** 0.5
    H = np.zeros((d * d, d, d), dtype=complex)
    H[:, rows[:d], cols[:d]] = x[:d].T
    H[:, rows[d:], cols[d:]] = off.T
    H[:, cols[d:], rows[d:]] = off.conj().T
    V1 = S1.eigenvectors
    G = V1 @ H @ V1.conj().T
    return Spectrum(eigenvalues=w, eigenvectors=G.transpose(0, 2, 1).reshape(d * d, d * d).T)


def positive_fixed_point(
    L0: np.ndarray,
    L1: np.ndarray,
    max_iter: int = 10000,
    tol: float = 1e-10,
) -> tuple[np.ndarray, float]:
    """
    Power iteration for S_{L0} o S_{L1} restricted to the PSD cone.

    Starts at I/dim and renormalizes by trace each step, so iterates stay in
    the state simplex. Returns (A*, alpha*) with
    ||S_{L0}(S_{L1}(A)) - alpha* A||_F <= tol alpha* at the last iterate A: the residual
    is relative to alpha*, so the stop, like A*, does not depend on the units of (L0, L1).
    Each step is _composed_lyapunov_operator's apply(w1 A) / w1 in L1's eigenbasis, where
    I/dim is unchanged; A is mapped back once. The rate is the map's relative spectral gap,
    so near-identity pairs (gap about 1e-3) reach max_iter and raise NoConvergence.
    """
    _, _, S0, S1 = psd_pair(L0, L1, ("L0", "L1"), definite=True)
    apply, w1 = _composed_lyapunov_operator(S0, S1)
    dim = S0.dim
    A = np.eye(dim, dtype=complex) / dim
    residual = np.inf
    for _ in range(max_iter):
        B = apply(w1 * A) / w1
        alpha = float(np.trace(B).real)
        if alpha <= 0:
            raise NoConvergence("iterate left the positive cone")
        # ||B - alpha A|| / alpha, on unit-trace terms that do not overflow at any scale
        B /= alpha
        residual = float(npl.norm(B - A))
        A = B
        if residual <= tol:
            return hermitianize(S1.eigenvectors @ A @ S1.eigenvectors.conj().T), alpha
    raise NoConvergence(
        f"positive_fixed_point: residual {residual:.3e} after {max_iter} steps"
    )
