# src/fidlab/certify.py
#
# SDP-style feasibility and optimality certificates: block positivity via
# the support/Schur-complement criterion, dual-body membership for the max
# kind, and zero-duality-gap certificates pairing the primal and dual
# optimizers of `fidelity._optimizers` (max: one SVD, min: one eigh). F_max
# and F_min are max tr C over [[X, C], [C^dagger, Y]] >= 0 (C Hermitian for
# min); the dual of that program is [[2 L0, -I + iA], [-I - iA, 2 L1]] >= 0
# with A Hermitian (A = 0 for max), so one eigvalsh of that block at the
# optimal twist A* checks the dual pair at every dim. The half kind has no
# such block and keeps its polar, taken on one stacked eigh of L* as it stands (Hermitian
# and PSD by construction, so neither admitted nor memoized): the lower end of
# polar._witness_bracket at the witness sqrt X, which S_L0* o S_L1* fixes, so at every
# dim >= 3 one Collatz-Wielandt check gives it (certified up to round-off, which can
# exceed the rigorous bound by 8 eps kappa(sqrt X)), with no Lanczos step and no Gram.
# `_certificate` is the kernel over an admitted pair and reads definiteness off its
# spectra. Each certificate costs about its LAPACK calls: dual values are inner products
# <L, X>, tr X and tr Y are kept with their spectra, blocks Hermitian by construction are
# not symmetrized again, and a definite pair looks for no kernel. No external SDP solver
# is used.

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .errors import DimensionMismatch, NotPsd
from .fidelity import _fidelity_half, _optimizers
from .linalg_core import (_EPS, Spectrum, _SpectralPair, _admitted, _eye, _hermitian,
                          _hermitian_pair, _operand_spectrum, _trace, psd_pair)
from .polar import _witness_bracket

__all__ = ["Certificate", "block_psd", "mfmax_membership", "duality_certificate"]

# relative tolerance of a certificate's gap and of its dual pair's polar
_CERT_TOL = 1e-7


@dataclass(frozen=True)
class Certificate:
    """Primal and dual values, feasibility flags and gap; valid if gap <= _CERT_TOL |primal|."""

    kind: str
    primal_value: float
    dual_value: float
    primal_feasible: bool
    dual_feasible: bool
    gap: float

    @property
    def is_valid(self) -> bool:
        return (
            self.primal_feasible
            and self.dual_feasible
            and self.gap <= _CERT_TOL * abs(self.primal_value)
        )


def block_psd(X: np.ndarray, C: np.ndarray, Y: np.ndarray) -> bool:
    """
    Positivity of [[X, C], [C^dagger, Y]] via the support conditions (I - pi_X) C = 0,
    C (I - pi_Y) = 0 and the generalized Schur complement X - C Y^{-1} C^dagger >= 0. NotPsd
    if an entry is not finite, or X's or Y's largest |entry| is outside [1e-100, 1e100].
    """
    X, Y = _hermitian(X, "X"), _hermitian(Y, "Y")
    C = np.asarray(C, dtype=complex)
    if not (X.size and Y.size):
        raise DimensionMismatch("X and Y must be nonempty")
    if C.shape != (X.shape[0], Y.shape[0]):
        raise DimensionMismatch("C has incompatible shape")
    if not np.isfinite(C).all():
        raise NotPsd("C has a non-finite entry")
    return _block_psd(X, _admitted(_operand_spectrum(X), "X"), C,
                      _admitted(_operand_spectrum(Y), "Y"))


def _block_psd(X: np.ndarray, Xs: Spectrum, C: np.ndarray, Ys: Spectrum) -> bool:
    # a definite pair has no kernel; else (I - pi_X) C = 0 is K_X^dagger C = 0, K_X the kernel,
    # relative to sqrt(||X|| ||Y||) >= ||C||
    if not (Xs.is_definite and Ys.is_definite):
        KX, KY = Xs.kernel(), Ys.kernel()
        tol = 1e-9 * (Xs.norm * Ys.norm) ** 0.5
        if npl.norm(KX.conj().T @ C, 2) > tol or npl.norm(C @ KY, 2) > tol:
            return False
    # X - C Y^+ C^dagger = X - B B^dagger with B = C V D^{-1/2} on supp Y = V D V^dagger:
    # round-off eps sqrt(kappa(Y)), not eps kappa(Y); eigvalsh reads one triangle of the
    # Hermitian difference
    sup = Ys if Ys.is_definite else Ys.support()
    B = (C @ sup.eigenvectors) * sup.eigenvalues ** -0.5
    return bool(npl.eigvalsh(X - B @ B.conj().T)[0] >= -Xs.tol)


def _dual_block(L0: np.ndarray, L1: np.ndarray, T=0.0, c2: float = 1.0) -> np.ndarray:
    """
    [[2 c2 L0, -I + T], [-I - T, 2 L1 / c2]] for an antihermitian twist T = iA (0 for max):
    exactly Hermitian, to the sign of a zero, when L0 and L1 are Hermitian and T antihermitian.
    """
    d = L0.shape[0]
    eye = _eye(d)
    # slice assignment, not np.block: the same entries at a third of the cost; 0 - (T + I)
    # keeps the zeros of T = 0 positive, as T - I does, and scaling by a power of 2 is exact,
    # so the diagonal blocks are 2 (c2 L0) and 2 (L1 / c2) to the bit
    B = np.empty((2 * d, 2 * d), dtype=complex)
    B[:d, :d], B[:d, d:] = (2.0 * c2) * L0, T - eye
    B[d:, :d], B[d:, d:] = 0.0 - (T + eye), L1 / (0.5 * c2)
    return B


def _witness_shift(L0: np.ndarray, L1: np.ndarray, T, tx: float, ty: float) -> float:
    """
    What (L0, L1) must rise by in dual value to be exactly feasible: B = _dual_block(L0, L1, T)
    balanced by diag(c I, I/c), c^2 = sqrt(tr L1 / tr L0), keeps its inertia, and with
    eps = max(0, -lambda_min(B)) + 4 d eps_mach max|lambda(B)| (eigvalsh's round-off) lifting
    (L0, L1) by (eps/(2 c^2) I, eps c^2/2 I) makes it PSD, at eps/2 (tx / c^2 + c^2 ty),
    tx = tr X and ty = tr Y.
    """
    c2 = math.sqrt(_trace(L1) / _trace(L0))
    w = npl.eigvalsh(_dual_block(L0, L1, T, c2)).tolist()
    w0, w1 = w[0], w[-1]
    eps = max(0.0, -w0) + 4 * L0.shape[0] * _EPS * max(abs(w0), abs(w1))
    return 0.5 * eps * (tx / c2 + c2 * ty)


def mfmax_membership(L0: np.ndarray, L1: np.ndarray) -> bool:
    """
    Eigenvalue test of [[2 L0, -I], [-I, 2 L1]] >= 0 in the polar's units: the congruence
    diag((2 L0)^{-1/2}, (2 L1)^{-1/2}) gives [[I, -K], [-K^dagger, I]], whose lowest
    eigenvalue is 1 - 1/polar_max; a member has it >= -1e-9. False when L0 or L1 is
    singular or not PSD. Its round-off is about eps times the larger condition number
    kappa (against 40-digit references at dims 2-8: <= 5e-13 at kappa <= 1e4, 3.4e-11
    at 1e6, 7.4e-9 at 1e8), so beyond kappa ~1e7 it can exceed the tolerance.
    """
    S0, S1 = (_operand_spectrum(L) for L in _hermitian_pair(L0, L1, ("L0", "L1")))
    if S0.is_singular or S1.is_singular:
        return False
    K = 0.5 * S0.matrix(S0.eigenvalues ** -0.5) @ S1.matrix(S1.eigenvalues ** -0.5)
    eye = np.eye(K.shape[0])
    return bool(npl.eigvalsh(np.block([[eye, -K], [-K.conj().T, eye]]))[0] >= -1e-9)


def duality_certificate(kind: str, X: np.ndarray, Y: np.ndarray) -> Certificate:
    """
    Analytic primal optimizer + analytic dual optimizer + feasibility
    checks + duality gap for the chosen fidelity kind.

    For max and min the dual pair (L0*, L1*) is checked on one eigvalsh of its
    dual block at the optimal twist (`_witness_shift`): it is feasible when the shift
    s = eps/2 (tr X / c^2 + c^2 tr Y) that makes it exactly feasible is at most
    _CERT_TOL sqrt(tr X tr Y), a scale >= F that holds eigvalsh's round-off where F << tr X,
    and is unit-free. A valid certificate guarantees primal_value <= F <= dual_value + s.
    For half the dual pair is feasible when the lower end p of its polar's bracket is at
    least 1 - _CERT_TOL; L*/p is then feasible and worth dual_value/p. At dim 2 p is the
    exact qubit form; at dims >= 3 it is the lower end of the Collatz-Wielandt bracket at
    the witness sqrt X (polar._witness_bracket), a lower bound whether or not the bracket
    closes, but only up to round-off: it can exceed the rigorous bound at the float L* by
    up to 8 eps kappa(sqrt X). S_{L0*} o S_{L1*} fixes sqrt X, so it closes to 1e-10
    relative (within 1.7e-11 of 1 at kappa(X) = kappa(Y) = 1e8).
    """
    return _certificate(kind, psd_pair(X, Y, definite=True))


def _certificate(kind: str, P: _SpectralPair) -> Certificate:
    X, Y, Xs, Ys = P.X, P.Y, P.Xs, P.Ys
    _admitted(Xs, "X", definite=True)
    _admitted(Ys, "Y", definite=True)
    C, pair, T = _optimizers(kind, P)
    L0, L1 = pair.first, pair.second
    if C is None:
        # half: tr sqrt(X) sqrt(Y) is attained by construction
        primal_value = _fidelity_half(P)
        primal_feasible = True
        # at the half optimizers S_{L0*}(S_{L1*}(sqrt X)) = sqrt X, so sqrt X is the witness
        # whose bracket's lower end bounds L*'s polar; L* is Hermitian and finite by
        # construction (one stacked eigh decomposes both)
        w, V = npl.eigh(np.array((L0, L1)))
        lower = _witness_bracket(Spectrum(w[0], V[0]), Spectrum(w[1], V[1]), Xs.sqrt())[0]
        dual_feasible = lower >= 1.0 - _CERT_TOL
    else:
        primal_value = _trace(C)
        primal_feasible = _block_psd(X, Xs, C, Ys)
        # tr X and tr Y as their spectra's sums, kept with the spectra
        tx, ty = Xs.trace, Ys.trace
        dual_feasible = _witness_shift(L0, L1, T, tx, ty) <= _CERT_TOL * math.sqrt(tx * ty)
    # tr L X = <L, X> for Hermitian L
    dual_value = float(np.vdot(L0, X).real + np.vdot(L1, Y).real)
    return Certificate(
        kind=kind,
        primal_value=primal_value,
        dual_value=dual_value,
        primal_feasible=primal_feasible,
        dual_feasible=dual_feasible,
        gap=abs(primal_value - dual_value),
    )
