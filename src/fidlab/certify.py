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
# such block and keeps its polar. `_certificate` is the kernel over an admitted
# pair and reads definiteness off its spectra. No external SDP solver is used.

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .errors import DimensionMismatch
from .fidelity import _fidelity_half, _optimizers
from .linalg_core import (Spectrum, _admitted, _hermitian_pair, as_square, hermitianize,
                          psd_pair, psd_spectrum, spectrum)
from .polar import polar_half

__all__ = ["Certificate", "block_psd", "mfmax_membership", "duality_certificate"]

# relative tolerance of a certificate's gap and of its dual pair's polar
_CERT_TOL = 1e-7


@dataclass(frozen=True)
class Certificate:
    """A primal/dual pair of values with feasibility flags and their gap."""

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
            and self.gap <= _CERT_TOL * (1.0 + abs(self.primal_value))
        )


def block_psd(X: np.ndarray, C: np.ndarray, Y: np.ndarray) -> bool:
    """
    Positivity of the block matrix [[X, C], [C^dagger, Y]] via the support
    conditions (I - pi_X) C = 0, C (I - pi_Y) = 0 and the generalized Schur
    complement X - C Y^{-1} C^dagger >= 0.
    """
    X = hermitianize(as_square(X))
    Y = hermitianize(as_square(Y))
    C = np.asarray(C, dtype=complex)
    if C.shape != (X.shape[0], Y.shape[0]):
        raise DimensionMismatch("C has incompatible shape")
    return _block_psd(X, psd_spectrum(X, "X"), C, psd_spectrum(Y, "Y"))


def _block_psd(X: np.ndarray, Xs: Spectrum, C: np.ndarray, Ys: Spectrum) -> bool:
    # (I - pi_X) C = 0 is K_X^dagger C = 0, K_X the kernel; definite operands take no norm
    KX, KY = Xs.kernel(), Ys.kernel()
    if KX.shape[1] or KY.shape[1]:
        tol = 1e-9 * (1.0 + npl.norm(C, 2))
        if npl.norm(KX.conj().T @ C, 2) > tol or npl.norm(C @ KY, 2) > tol:
            return False
    # X - C Y^+ C^dagger through B = C Y^{+1/2}: round-off eps sqrt(kappa(Y)), not eps kappa(Y)
    B = C @ Ys.inv_sqrt()
    return bool(npl.eigvalsh(hermitianize(X - B @ B.conj().T))[0] >= -Xs.tol)


def _dual_block(L0: np.ndarray, L1: np.ndarray, T=0.0) -> np.ndarray:
    """[[2 L0, -I + T], [-I - T, 2 L1]] for an antihermitian twist T = iA (0 for max)."""
    eye = np.eye(L0.shape[0])
    return hermitianize(np.block([[2.0 * L0, T - eye], [-T - eye, 2.0 * L1]]))


def _witness_shift(X: np.ndarray, Y: np.ndarray, L0: np.ndarray, L1: np.ndarray,
                   T) -> float:
    """
    eps/2 tr(X + Y), what (L0, L1) must rise by in dual value to be exactly
    feasible: with B = _dual_block(L0, L1, T) and
    eps = max(0, -lambda_min(B)) + 4 d eps_mach max|lambda(B)|, the second term
    eigvalsh's round-off, B + eps I >= 0 is the block of (L0 + eps/2 I, L1 + eps/2 I).
    """
    w = npl.eigvalsh(_dual_block(L0, L1, T))
    eps = max(0.0, -w[0]) + 4 * L0.shape[0] * np.finfo(float).eps * max(abs(w[0]), abs(w[-1]))
    return 0.5 * eps * float(np.trace(X + Y).real)


def mfmax_membership(L0: np.ndarray, L1: np.ndarray) -> bool:
    """Direct eigenvalue test of [[2 L0, -I], [-I, 2 L1]] >= 0."""
    return spectrum(_dual_block(*_hermitian_pair(L0, L1, ("L0", "L1")))).is_psd


def duality_certificate(kind: str, X: np.ndarray, Y: np.ndarray) -> Certificate:
    """
    Analytic primal optimizer + analytic dual optimizer + feasibility
    checks + duality gap for the chosen fidelity kind.

    For max and min the dual pair (L0*, L1*) is checked on one eigvalsh of its
    dual block at the optimal twist (`_witness_shift`): it is feasible when the
    shift eps/2 tr(X + Y) that makes it exactly feasible is at most
    _CERT_TOL (1 + |primal_value|). A valid certificate then guarantees
    primal_value <= F(X, Y) <= dual_value + eps/2 tr(X + Y). For half the dual
    pair is feasible when its polar is at least 1 - _CERT_TOL; L*/p is then
    feasible and worth dual_value/p.
    """
    return _certificate(kind, *psd_pair(X, Y, definite=True))


def _certificate(kind: str, X: np.ndarray, Y: np.ndarray, Xs: Spectrum,
                 Ys: Spectrum) -> Certificate:
    _admitted(Xs, "X", definite=True)
    _admitted(Ys, "Y", definite=True)
    C, pair, T = _optimizers(kind, X, Y, Xs, Ys)
    if C is None:
        # half: tr sqrt(X) sqrt(Y) is attained by construction
        primal_value = _fidelity_half(X, Y, Xs, Ys)
        primal_feasible = True
        dual_feasible = polar_half(pair.first, pair.second) >= 1.0 - _CERT_TOL
    else:
        primal_value = float(np.trace(C).real)
        primal_feasible = _block_psd(X, Xs, C, Ys)
        shift = _witness_shift(X, Y, pair.first, pair.second, T)
        dual_feasible = shift <= _CERT_TOL * (1.0 + abs(primal_value))
    dual_value = float((np.trace(pair.first @ X) + np.trace(pair.second @ Y)).real)
    return Certificate(
        kind=kind,
        primal_value=primal_value,
        dual_value=dual_value,
        primal_feasible=primal_feasible,
        dual_feasible=dual_feasible,
        gap=abs(primal_value - dual_value),
    )
