# src/fidlab/superop.py
#
# Linear transforms on operator space: the Lyapunov operator S_Z solving
# X = S Z + Z S, its dim^2 x dim^2 matrix representation (column-stacking
# vectorization), the spectrum of the composition S_{L0} o S_{L1}, and a
# PSD-cone power iteration for its leading eigenvector. Everything is built
# from the spectrum of Z: S_Z is diagonal in the basis kron(conj V, V) with
# weights 1 / (lambda_i + lambda_j), so the private helpers take a Spectrum
# and never decompose Z again.

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .errors import NoConvergence, SingularPair
from .linalg_core import Spectrum, as_square, hermitianize, psd_spectrum, spectrum

__all__ = [
    "vec",
    "unvec",
    "SuperOperator",
    "lyapunov_solve",
    "lyapunov_superop",
    "composed_lyapunov_spectrum",
    "positive_fixed_point",
]


def vec(X: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(X, dtype=complex).flatten(order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of vec for a dim x dim matrix."""
    return np.asarray(v, dtype=complex).reshape((dim, dim), order="F")


@dataclass(frozen=True)
class SuperOperator:
    """A linear map on dim x dim operators, stored as a dim^2 x dim^2 matrix."""

    dim: int
    matrix: np.ndarray

    def apply(self, H: np.ndarray) -> np.ndarray:
        H = as_square(H)
        return unvec(self.matrix @ vec(H), self.dim)


def lyapunov_solve(Z: np.ndarray, X: np.ndarray) -> np.ndarray:
    """
    Solve S Z + Z S = X for Hermitian X and PSD Z.

    In the eigenbasis of Z the solution is entrywise division by
    (lambda_i + lambda_j). Entries with vanishing denominator must have a
    vanishing right-hand side, otherwise the equation is unsolvable.
    """
    X = hermitianize(as_square(X))
    return _lyapunov_solve(psd_spectrum(Z, "Z"), X)


def _lyapunov_solve(Zs: Spectrum, X: np.ndarray) -> np.ndarray:
    """S_Z(X) for Hermitian X, from the spectrum of Z."""
    w, V = Zs.eigenvalues, Zs.eigenvectors
    Xt = V.conj().T @ X @ V
    denom = w[:, None] + w[None, :]
    singular = denom <= Zs.tol
    # the Frobenius norm of Xt bounds the operator norm of X
    if np.any(singular & (np.abs(Xt) > 1e-10 * (1.0 + npl.norm(Xt)))):
        raise SingularPair("X has weight on the kernel block of S_Z")
    St = np.where(singular, 0.0, Xt / np.where(singular, 1.0, denom))
    return hermitianize(V @ St @ V.conj().T)


def _lyapunov_power(Zs: Spectrum, p: float) -> np.ndarray:
    """
    The matrix of S_Z^p: the matrix unit |v_i><v_j| of Z's eigenbasis, at
    index j*dim + i of column stacking, has eigenvalue (lambda_i + lambda_j)^(-p).
    """
    w, V = Zs.eigenvalues, Zs.eigenvectors
    basis = np.kron(V.conj(), V)
    weights = ((w[:, None] + w[None, :]) ** -p).flatten(order="F")
    return hermitianize((basis * weights) @ basis.conj().T)


def lyapunov_superop(Z: np.ndarray) -> SuperOperator:
    """Matrix representation of S_Z for strictly positive Z."""
    Zs = psd_spectrum(Z, "Z", definite=True)
    return SuperOperator(dim=Zs.dim, matrix=_lyapunov_power(Zs, 1.0))


def _composed_lyapunov_matrix(S0: Spectrum, S1: Spectrum) -> np.ndarray:
    """S_{L1}^{1/2} S_{L0} S_{L1}^{1/2}, Hermitian and similar to S_{L0} o S_{L1}."""
    M1h = _lyapunov_power(S1, 0.5)
    return hermitianize(M1h @ _lyapunov_power(S0, 1.0) @ M1h)


def composed_lyapunov_spectrum(L0: np.ndarray, L1: np.ndarray) -> Spectrum:
    """
    All dim^2 eigenvalues of S_{L0} o S_{L1}, via the similar Hermitian form
    S_{L1}^{1/2} S_{L0} S_{L1}^{1/2}. Every eigenvalue is strictly positive.
    """
    S0 = psd_spectrum(L0, "L0", definite=True)
    S1 = psd_spectrum(L1, "L1", definite=True)
    return spectrum(_composed_lyapunov_matrix(S0, S1))


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
    S_{L0}(S_{L1}(A*)) = alpha* A* up to residual tol in Frobenius norm.
    """
    S0 = psd_spectrum(L0, "L0", definite=True)
    S1 = psd_spectrum(L1, "L1", definite=True)
    dim = S0.dim
    A = np.eye(dim, dtype=complex) / dim
    alpha = 0.0
    residual = np.inf
    for _ in range(max_iter):
        B = _lyapunov_solve(S0, _lyapunov_solve(S1, A))
        alpha = float(np.trace(B).real)
        residual = float(npl.norm(B - alpha * A))
        if alpha <= 0:
            raise NoConvergence("iterate left the positive cone")
        A = B / alpha
        if residual < tol:
            return hermitianize(A), alpha
    raise NoConvergence(
        f"positive_fixed_point: residual {residual:.3e} after {max_iter} steps"
    )
