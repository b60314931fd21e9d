# src/fidlab/linalg_core.py
#
# One admission and one spectrum per operand. `_hermitian` is the one gate: it refuses a
# non-square, non-finite or out-of-range operand (largest |entry| neither 0 nor in
# [1e-100, 1e100], where the kernels' products of three operand-scale factors stay finite)
# and returns its Hermitian part, which `_operand_spectrum` decomposes once per process: a
# memo of the latest 64 spectra (read-only arrays), keyed by dimension and bytes, of admitted
# operands only. All else is read off a Spectrum, computed once and shared read-only: trace,
# norm, tolerance 1e-10 * max |lambda|, PSD/PD/singular verdicts, support, kernel, square
# roots and Schur reductions; the public matrix functions are one-liners over it. `psd_pair`
# admits a pair into a `_SpectralPair`, the (X, Y, Xs, Ys) every two-operand kernel takes.
# A caller holding an admitted part reads its PSD/PD verdict, per call, off the memo,
# `_admitted(_operand_spectrum(H), name)`, and never gates it again. `spectrum()` serves the
# matrices the code forms itself (L*, differences, slack and Schur blocks): it refuses only a
# non-finite entry and is never memoized.

from __future__ import annotations

import functools
import math
import threading
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
    """Return the Hermitian part (A + A^*) / 2, of each matrix of a stack (last two axes)."""
    H = A + A.conj().swapaxes(-1, -2)
    if H.dtype.kind not in "fc":
        return H / 2
    # halved in place: the sum is already a new array
    H *= 0.5
    return H


def as_square(A: np.ndarray) -> np.ndarray:
    """Coerce to a complex square 2-d array or raise DimensionMismatch."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    return A


def _hermitian(A: np.ndarray, name: str, bounded: bool = True) -> np.ndarray:
    """The Hermitian part; DimensionMismatch, or NotPsd if not finite or (bounded) out of range."""
    A = as_square(A)
    top = float(np.abs(A).max(initial=0.0))
    if not math.isfinite(top):
        raise NotPsd(f"{name} has a non-finite entry")
    if bounded and not (top == 0.0 or 1e-100 <= top <= 1e100):
        raise NotPsd(f"{name} has largest |entry| {top:.3e}, outside [1e-100, 1e100]")
    return hermitianize(A)


def _trace(A: np.ndarray) -> float:
    """Re tr A, the real diagonal summed as floats: on small matrices a third of ndarray.trace."""
    return math.fsum(A.real.diagonal().tolist())


@functools.lru_cache(maxsize=64)
def _eye(d: int) -> np.ndarray:
    """The read-only d x d identity."""
    return _read_only(np.eye(d))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _kept:
    """
    A property computed on first read and stored on the instance, where every later
    read finds it first: functools.cached_property without the per-read lock it takes
    before Python 3.12. Two threads racing on a first read both compute the same value.
    """

    def __init__(self, fn) -> None:
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True)
class Spectrum:
    """
    Eigendecomposition of a Hermitian matrix, eigenvalues ascending. trace, norm, tol, the
    is_psd / is_definite / is_singular verdicts, support(), kernel(), sqrt_spectrum(),
    sqrt() and inv_sqrt() are computed on first use and kept: every later call returns
    the same object, whose arrays are read-only. They are read off the eigenpairs as they
    were then, so a Spectrum's arrays are not to be changed.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @_kept
    def norm(self) -> float:
        """Operator norm, max |lambda|."""
        w = self.eigenvalues
        return float(max(-w[0], w[-1])) if w.size else 0.0

    @_kept
    def trace(self) -> float:
        """tr H, the sum of the eigenvalues."""
        return math.fsum(self.eigenvalues.tolist())

    @_kept
    def tol(self) -> float:
        """Positivity and rank tolerance 1e-10 * max |lambda|, relative to the operator's scale."""
        return 1e-10 * self.norm

    @_kept
    def is_psd(self) -> bool:
        return not self.dim or bool(self.eigenvalues[0] >= -self.tol)

    @_kept
    def is_definite(self) -> bool:
        """Every eigenvalue above tol: the kernel is empty and the support is everything."""
        return bool(self.dim and self.eigenvalues[0] > self.tol)

    @_kept
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
        """The eigenpairs with |lambda| > tol, which span the range (read-only, kept)."""
        return self._support

    @_kept
    def _support(self) -> "Spectrum":
        live = np.abs(self.eigenvalues) > self.tol
        return Spectrum(_read_only(self.eigenvalues[live]), _read_only(self.eigenvectors[:, live]))

    def sqrt_spectrum(self) -> "Spectrum":
        """The spectrum of the square root; eigenvalues in [-tol, 0) are clamped to 0 (kept)."""
        return self._sqrt_spectrum

    @_kept
    def _sqrt_spectrum(self) -> "Spectrum":
        return Spectrum(_read_only(np.sqrt(np.maximum(self.eigenvalues, 0.0))), self.eigenvectors)

    def sqrt(self) -> np.ndarray:
        """H^(1/2) (read-only, kept)."""
        return self._sqrt

    @_kept
    def _sqrt(self) -> np.ndarray:
        return _read_only(self.sqrt_spectrum().reconstruct())

    def inv_sqrt(self) -> np.ndarray:
        """H^(-1/2) on the support, 0 on the kernel (H PSD; read-only, kept)."""
        return self._inv_sqrt

    @_kept
    def _inv_sqrt(self) -> np.ndarray:
        sup = self.support()
        return _read_only(sup.matrix(sup.eigenvalues ** -0.5))

    def pinv(self) -> np.ndarray:
        """Moore-Penrose inverse: eigenvalues with |lambda| <= tol are sent to 0."""
        sup = self.support()
        return sup.matrix(1.0 / sup.eigenvalues)

    def kernel(self) -> np.ndarray:
        """The eigenvectors with |lambda| <= tol, a basis of the kernel (read-only, kept)."""
        return self._kernel

    @_kept
    def _kernel(self) -> np.ndarray:
        return _read_only(self.eigenvectors[:, np.abs(self.eigenvalues) <= self.tol])

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
    """Hermitian eigendecomposition (symmetrizes first); NotPsd if not finite, at any scale."""
    w, V = npl.eigh(_hermitian(H, "operator", bounded=False))
    return Spectrum(eigenvalues=w, eigenvectors=V)


def psd_spectrum(H: np.ndarray, name: str = "operator") -> Spectrum:
    """A PSD operand's spectrum; NotPsd if not finite, outside [1e-100, 1e100] or below -tol."""
    return _admitted(_operand_spectrum(_hermitian(H, name)), name)


# the operand spectra of _operand_spectrum, oldest first; writes hold the lock
_MEMO_ENTRIES = 64
_SPECTRA: dict[tuple[int, bytes], Spectrum] = {}
_SPECTRA_LOCK = threading.Lock()


def _operand_spectrum(H: np.ndarray) -> Spectrum:
    """
    The spectrum of an operand's Hermitian part H, decomposed once per content:
    memoized by H's dimension and bytes, the oldest of _MEMO_ENTRIES evicted first.
    """
    key = (H.shape[0], H.tobytes())
    sp = _SPECTRA.get(key)
    if sp is None:
        w, V = npl.eigh(H)
        sp = Spectrum(_read_only(w), _read_only(V))
        with _SPECTRA_LOCK:
            if len(_SPECTRA) >= _MEMO_ENTRIES:
                del _SPECTRA[next(iter(_SPECTRA))]
            _SPECTRA[key] = sp
    return sp


def _admitted(sp: Spectrum, name: str, definite: bool = False) -> Spectrum:
    if definite:
        if not sp.is_definite:
            raise NotPositiveDefinite(f"{name} is not strictly positive definite")
    elif not sp.is_psd:
        raise NotPsd(f"{name} has eigenvalue {sp.eigenvalues[0]:.3e} below -tol = -{sp.tol:.3e}")
    return sp


def _hermitian_pair(A: np.ndarray, B: np.ndarray, names=("X", "Y")) -> tuple[np.ndarray, ...]:
    """Two operands admitted by _hermitian, of one nonzero dimension; else DimensionMismatch."""
    A, B = _hermitian(A, names[0]), _hermitian(B, names[1])
    if A.shape != B.shape:
        raise DimensionMismatch(
            f"{names[0]} has dimension {A.shape[0]} but {names[1]} has {B.shape[0]}")
    if not A.size:
        raise DimensionMismatch(f"{names[0]} and {names[1]} are empty")
    return A, B


class _SpectralPair:
    """
    Two Hermitian operands and their spectra, unpacking as (X, Y, Xs, Ys): what every
    two-operand kernel takes. min_frame is fidelity's min frame of the pair, kept by
    the first kernel that builds it. A pair lives for one call or one request.
    """

    __slots__ = ("X", "Y", "Xs", "Ys", "min_frame")

    def __init__(self, X: np.ndarray, Y: np.ndarray, Xs: Spectrum, Ys: Spectrum) -> None:
        self.X, self.Y, self.Xs, self.Ys = X, Y, Xs, Ys
        self.min_frame = None

    def __iter__(self):
        return iter((self.X, self.Y, self.Xs, self.Ys))


def psd_pair(A: np.ndarray, B: np.ndarray, names: tuple[str, str] = ("X", "Y"),
             definite: bool = False) -> _SpectralPair:
    """
    The _SpectralPair (A_h, B_h, SA, SB): the Hermitian parts of an ordered pair of PSD
    operands and their spectra, each operand hermitianized and decomposed once. Raises
    DimensionMismatch as _hermitian_pair does, then as psd_spectrum does.
    """
    A, B = _hermitian_pair(A, B, names)
    return _SpectralPair(A, B, _admitted(_operand_spectrum(A), names[0], definite),
                         _admitted(_operand_spectrum(B), names[1], definite))


def psd_sqrt(H: np.ndarray) -> np.ndarray:
    """
    Matrix square root of a PSD matrix via eigendecomposition; eigenvalues in [-tol, 0) are
    clamped to 0. NotPsd below -tol, or if not finite or outside [1e-100, 1e100].
    """
    return psd_spectrum(H).sqrt().copy()


def pinv(H: np.ndarray) -> np.ndarray:
    """
    Moore-Penrose inverse of a Hermitian matrix via eigendecomposition; eigenvalues with
    |lambda| <= tol are sent to 0. NotPsd if not finite or outside [1e-100, 1e100].
    """
    return _operand_spectrum(_hermitian(H, "operator")).pinv()


def support_projector(H: np.ndarray) -> np.ndarray:
    """Projector onto the support of a PSD matrix; refuses what psd_spectrum refuses."""
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
