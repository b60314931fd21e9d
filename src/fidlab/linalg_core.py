# src/fidlab/linalg_core.py
#
# One spectrum per operand: `psd_spectrum` validates and decomposes a PSD
# operand once, and everything else about it is read off that Spectrum —
# its tolerance 1e-10 * (1 + max |lambda|), its PSD/PD/singular verdicts,
# square root, inverse square root, pseudoinverse, support, kernel and the
# Schur reduction of another operator onto that support. The public matrix functions are
# one-liners over it. Operand pairs are admitted here too: `psd_pair` decomposes
# each operand once, and its (X, Y, Xs, Ys) is what every two-operand kernel takes;
# `_hermitian_pair` is the gate under it, refusing empty or unequal operands.

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .errors import DimensionMismatch, NotPositiveDefinite, NotPsd

_EPS = float(np.finfo(float).eps)

__all__ = [
    "hermitianize",
    "as_square",
    "Spectrum",
    "spectrum",
    "psd_spectrum",
    "psd_pair",
    "psd_sqrt",
    "pinv",
    "support_projector",
    "schur_reduce",
    "pinch",
    "OperatorPair",
]


def hermitianize(A: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (A + A^*) / 2."""
    return (A + A.conj().T) / 2


def as_square(A: np.ndarray) -> np.ndarray:
    """Coerce to a complex square 2-d array or raise DimensionMismatch."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    return A


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @property
    def norm(self) -> float:
        """Operator norm, max |lambda|."""
        w = self.eigenvalues
        return float(max(-w[0], w[-1])) if w.size else 0.0

    @property
    def tol(self) -> float:
        """Positivity and rank tolerance 1e-10 * (1 + max |lambda|)."""
        return 1e-10 * (1.0 + self.norm)

    @property
    def is_psd(self) -> bool:
        return not self.dim or bool(self.eigenvalues[0] >= -self.tol)

    @property
    def is_singular(self) -> bool:
        """Singular at round-off: lambda_min <= dim * eps * max |lambda|."""
        return bool(self.eigenvalues[0] <= self.dim * _EPS * self.norm)

    def matrix(self, values: np.ndarray) -> np.ndarray:
        """V diag(values) V^dagger: a function of the matrix, given on its eigenvalues."""
        V = self.eigenvectors
        return hermitianize((V * values) @ V.conj().T)

    def reconstruct(self) -> np.ndarray:
        return self.matrix(self.eigenvalues)

    def support(self) -> "Spectrum":
        """The eigenpairs with |lambda| > tol, which span the range."""
        live = np.abs(self.eigenvalues) > self.tol
        return Spectrum(self.eigenvalues[live], self.eigenvectors[:, live])

    def sqrt_spectrum(self) -> "Spectrum":
        """The spectrum of the square root; eigenvalues in [-tol, 0) are clamped to 0."""
        return Spectrum(np.sqrt(np.maximum(self.eigenvalues, 0.0)), self.eigenvectors)

    def sqrt(self) -> np.ndarray:
        return self.sqrt_spectrum().reconstruct()

    def inv_sqrt(self) -> np.ndarray:
        """H^(-1/2) on the support, 0 on the kernel (H PSD)."""
        sup = self.support()
        return sup.matrix(sup.eigenvalues ** -0.5)

    def pinv(self) -> np.ndarray:
        """Moore-Penrose inverse: eigenvalues with |lambda| <= tol are sent to 0."""
        sup = self.support()
        return sup.matrix(1.0 / sup.eigenvalues)

    def kernel(self) -> np.ndarray:
        """The eigenvectors with |lambda| <= tol, an orthonormal basis of the kernel."""
        return self.eigenvectors[:, np.abs(self.eigenvalues) <= self.tol]

    def schur_complement(self, X: np.ndarray, x_tol: float) -> np.ndarray | None:
        """
        X11 - X12 X22^+ X21 for the blocks of X induced by this operator's
        support, in the coordinates of support().eigenvectors. None when X22
        is at most x_tol, i.e. supp X already lies in the support.
        """
        K = self.kernel()
        if not K.shape[1]:
            return None
        off = spectrum(K.conj().T @ X @ K)
        if off.norm <= x_tol:
            return None
        S = self.support().eigenvectors
        X12 = S.conj().T @ X @ K
        return hermitianize(S.conj().T @ X @ S - X12 @ off.pinv() @ X12.conj().T)


def spectrum(H: np.ndarray) -> Spectrum:
    """Hermitian eigendecomposition (symmetrizes the input first)."""
    w, V = npl.eigh(hermitianize(as_square(H)))
    return Spectrum(eigenvalues=w, eigenvectors=V)


def psd_spectrum(H: np.ndarray, name: str = "operator", definite: bool = False) -> Spectrum:
    """
    The spectrum of a PSD operand; raises NotPsd below -tol, or, when
    `definite`, NotPositiveDefinite unless every eigenvalue is above tol.
    """
    return _admitted(spectrum(H), name, definite)


def _admitted(sp: Spectrum, name: str, definite: bool) -> Spectrum:
    if definite and not (sp.dim and sp.eigenvalues[0] > sp.tol):
        raise NotPositiveDefinite(f"{name} is not strictly positive definite")
    if not sp.is_psd:
        raise NotPsd(f"{name} has eigenvalue {sp.eigenvalues[0]:.3e} below -PSD_TOL")
    return sp


def _hermitian_pair(A: np.ndarray, B: np.ndarray, names=("X", "Y")) -> tuple[np.ndarray, ...]:
    """Hermitian parts of two square operands of one nonzero dimension, else DimensionMismatch."""
    A, B = hermitianize(as_square(A)), hermitianize(as_square(B))
    if A.shape != B.shape:
        raise DimensionMismatch(
            f"{names[0]} has dimension {A.shape[0]} but {names[1]} has {B.shape[0]}")
    if not A.size:
        raise DimensionMismatch(f"{names[0]} and {names[1]} are empty")
    return A, B


def psd_pair(A: np.ndarray, B: np.ndarray, names: tuple[str, str] = ("X", "Y"),
             definite: bool = False) -> tuple[np.ndarray, np.ndarray, Spectrum, Spectrum]:
    """
    (A_h, B_h, SA, SB): the Hermitian parts of an ordered pair of PSD operands
    and their spectra, each operand hermitianized and decomposed once. Raises
    DimensionMismatch as _hermitian_pair does, then as psd_spectrum does.
    """
    A, B = _hermitian_pair(A, B, names)
    return (A, B, _admitted(Spectrum(*npl.eigh(A)), names[0], definite),
            _admitted(Spectrum(*npl.eigh(B)), names[1], definite))


def psd_sqrt(H: np.ndarray) -> np.ndarray:
    """
    Matrix square root of a PSD matrix via eigendecomposition.
    Eigenvalues in [-tol, 0) are clamped to 0; anything lower raises NotPsd.
    """
    return psd_spectrum(H).sqrt()


def pinv(H: np.ndarray) -> np.ndarray:
    """
    Moore-Penrose inverse of a Hermitian matrix via eigendecomposition.
    Eigenvalues with |lambda| <= tol are sent to 0.
    """
    return spectrum(H).pinv()


def support_projector(H: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the support (range) of a PSD matrix."""
    sup = psd_spectrum(H).support()
    return sup.matrix(np.ones(sup.dim))


def schur_reduce(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """
    Reduce X onto the support of Y by a Schur complement:
    X11 - X12 X22^{-1} X21 in the block decomposition induced by supp Y.
    If supp X is already contained in supp Y, X is returned unchanged.
    """
    X, _, Xs, Ys = psd_pair(X, Y)
    reduced = Ys.schur_complement(X, Xs.tol)
    if reduced is None:
        return X
    S = Ys.support().eigenvectors
    return hermitianize(S @ reduced @ S.conj().T)


def pinch(X: np.ndarray) -> np.ndarray:
    """Delete off-diagonal entries in the standard basis."""
    X = as_square(X)
    return np.diag(np.diag(X))


@dataclass(frozen=True)
class OperatorPair:
    """An ordered pair of PSD Hermitian matrices of equal dimension."""

    first: np.ndarray
    second: np.ndarray

    def __post_init__(self) -> None:
        a, b, _, _ = psd_pair(self.first, self.second, ("first", "second"))
        object.__setattr__(self, "first", a)
        object.__setattr__(self, "second", b)

    @classmethod
    def _of_psd(cls, first: np.ndarray, second: np.ndarray) -> "OperatorPair":
        """A pair of Hermitian matrices PSD by construction, not decomposed again."""
        pair = object.__new__(cls)
        object.__setattr__(pair, "first", first)
        object.__setattr__(pair, "second", second)
        return pair

    @property
    def dim(self) -> int:
        return self.first.shape[0]
