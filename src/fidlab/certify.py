# src/fidlab/certify.py
#
# SDP-style feasibility and optimality certificates: block positivity via
# the support/Schur-complement criterion, dual-body membership for the max
# kind, and zero-duality-gap certificates pairing the primal and dual
# optimizers of `fidelity._optimizers` (max: one SVD, min: one eigh); the
# dual pair is feasible iff its polar is >= 1. No external SDP solver is used.

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .errors import DimensionMismatch
from .fidelity import _operands, _optimizers
from .linalg_core import Spectrum, as_square, hermitianize, psd_spectrum, spectrum
from .polar import _polar_lower, _warn_dead_knobs

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


def mfmax_membership(L0: np.ndarray, L1: np.ndarray) -> bool:
    """Direct eigenvalue test of [[2 L0, -I], [-I, 2 L1]] >= 0."""
    L0 = hermitianize(as_square(L0))
    L1 = hermitianize(as_square(L1))
    if L0.shape != L1.shape:
        raise DimensionMismatch("pair members differ in dimension")
    k = L0.shape[0]
    eye = np.eye(k)
    return spectrum(np.block([[2.0 * L0, -eye], [-eye, 2.0 * L1]])).is_psd


def duality_certificate(
    kind: str, X: np.ndarray, Y: np.ndarray, seed=None
) -> Certificate:
    """
    Analytic primal optimizer + analytic dual optimizer + feasibility
    checks + duality gap for the chosen fidelity kind. The dual pair is
    feasible iff its polar is at least 1 - _CERT_TOL. `seed` is deprecated
    and ignored.
    """
    _warn_dead_knobs("duality_certificate", seed=seed)
    X, Y, Xs, Ys = _operands(X, Y, definite=True)
    C, pair = _optimizers(kind, X, Y, Xs, Ys)
    if C is None:
        # half: tr sqrt(X) sqrt(Y) is attained by construction
        primal_value = float(np.trace(Xs.sqrt() @ Ys.sqrt()).real)
        primal_feasible = True
    else:
        primal_value = float(np.trace(C).real)
        primal_feasible = _block_psd(X, Xs, C, Ys)
    dual_value = float((np.trace(pair.first @ X) + np.trace(pair.second @ Y)).real)
    # L* sits on the boundary, polar p = 1 up to round-off; L*/p is feasible and
    # worth dual_value/p, so p >= 1 - _CERT_TOL keeps the gap's tolerance
    dual_feasible = _polar_lower(kind, pair.first, pair.second) >= 1.0 - _CERT_TOL
    return Certificate(
        kind=kind,
        primal_value=primal_value,
        dual_value=dual_value,
        primal_feasible=primal_feasible,
        dual_feasible=dual_feasible,
        gap=abs(primal_value - dual_value),
    )
