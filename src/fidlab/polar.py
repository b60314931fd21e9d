# src/fidlab/polar.py
#
# Polar functionals of the three fidelities: closed spectral forms for the
# max and half kinds; for min the exact qubit form at dim 2 and at dims >= 3 a
# certified branch-and-bound bracket over one scalar (bounded and split by the
# chord of a concave function); the membership semantics (polar >= 1 <=>
# dual-body membership), and the max polar's lower bound from one explicit
# POVM decomposition on the eigenbases of L0 and of polar_max's slack. Each polar
# is a kernel over the pair `linalg_core.psd_pair` admits, so the dim-2 closed
# form sees only valid pairs, and `_POLARS` maps each kind to it. Max and min duality
# certificates do not come here: `certify` checks their dual pair on one
# eigenvalue of the dual block at the optimal twist.

from __future__ import annotations

import heapq
import math

import numpy as np
import numpy.linalg as npl

from .errors import DecompositionInfeasible, LengthMismatch, NoConvergence
from .fidelity import _weights
from .linalg_core import Spectrum, hermitianize, psd_pair, spectrum
from .superop import _composed_lyapunov_matrix
from .qubit_geom import _DUAL_BODY_FLOOR, _polar_min_qubit

__all__ = [
    "polar_classical",
    "polar_max",
    "polar_min",
    "polar_half",
    "polar",
    "polar_membership",
    "povm_lower_bound",
]

# _polar_min_bracket stops once upper - lower <= _BRACKET_REL_WIDTH * upper,
# and raises NoConvergence rather than exceed _BRACKET_MAX_EVALS eigvalsh.
_BRACKET_REL_WIDTH = 1e-10
_BRACKET_MAX_EVALS = 1000
_DUAL_NAMES = ("L0", "L1")
# weight of the slack's eigenbasis in _max_decomposition; its bound falls short
# of polar_max by about _POVM_EPS sqrt(kappa(L0)) / 2 relative
_POVM_EPS = 1e-9


def polar_classical(l0, l1) -> float:
    """min over i of 2 sqrt(l0_i l1_i)."""
    l0, l1 = _weights(l0, l1)
    if l0.size == 0:
        raise LengthMismatch("empty weight vectors")
    return float(np.min(2.0 * np.sqrt(l0 * l1)))


def polar_max(L0: np.ndarray, L1: np.ndarray) -> float:
    """2 sqrt( lambda_min( sqrt(L1) L0 sqrt(L1) ) ); 0 on singular inputs."""
    return _polar_max(*psd_pair(L0, L1, _DUAL_NAMES))


def _polar_max(L0: np.ndarray, L1: np.ndarray, S0: Spectrum, S1: Spectrum) -> float:
    if S0.is_singular or S1.is_singular:
        return 0.0
    s1 = S1.sqrt()
    lam_min = float(npl.eigvalsh(hermitianize(s1 @ L0 @ s1))[0])
    return 2.0 * float(np.sqrt(max(lam_min, 0.0)))


def _polar_min_bracket(S0: Spectrum, S1: Spectrum) -> tuple[float, float]:
    """
    Certified bracket [lower, upper] of the min polar of the PSD pair with
    spectra S0, S1, of relative width _BRACKET_REL_WIDTH; (0, 0) on singular
    inputs.

    Swapping the minimizations in 2 sqrt(ab) = min_{s>0} (s a + b/s) gives
    polar_min = min_t g(t), g(t) = lambda_min(e^t L0 + e^{-t} L1), whose
    minimizer lies in [log(lmin(L1)/lmax(L0)), log(lmax(L1)/lmin(L0))] / 2.
    On a cell [m-h, m+h], e^t L0 + e^{-t} L1 = cosh(s) M + sinh(s) D with
    s = t - m and M, D fixed, so g(m+s) = cosh(s) f(tanh s) with
    f(tau) = lambda_min(M + tau D) concave. f lies above its chord through
    phi_pm = g(m +- h) / cosh(h); with alpha = (phi_+ + phi_-)/2 and
    beta = (phi_+ - phi_-) / (2 tanh h) that reads
    g(m+s) >= alpha cosh(s) + beta sinh(s). Its minimum over the cell is
    sqrt(alpha^2 - beta^2) at tanh(s) = -beta/alpha when |beta| < alpha tanh h,
    and the smaller end value otherwise; it is never below
    min(phi_+, phi_-). Best-first branch and bound on that bound closes the
    bracket, splitting each cell at the bound's minimizer clamped to the
    middle 90% of the cell; `upper` is the least evaluated g.

    Round-off: beyond the bracket's width, each end is off from the exact
    polar by up to the round-off of one eigvalsh of A = e^t L0 + e^{-t} L1
    at the minimizer, about eps * ||A||_2, in either direction (up to
    1.1 eps ||A||_2 seen against 40-digit references; tests/test_certify.py
    holds both ends to 4 eps ||A||_2).
    """
    if S0.is_singular or S1.is_singular:
        return 0.0, 0.0
    w0, w1 = S0.eigenvalues, S1.eigenvalues
    L0, L1 = S0.reconstruct(), S1.reconstruct()

    def g(t: float) -> float:
        return max(float(npl.eigvalsh(math.exp(t) * L0 + math.exp(-t) * L1)[0]), 0.0)

    def cell(a: float, b: float, ga: float, gb: float) -> tuple:
        h = 0.5 * (b - a)
        c, th = math.cosh(h), math.tanh(h)
        alpha, half_diff = 0.5 * (ga + gb) / c, 0.5 * (gb - ga) / c
        lower, s = (ga, -h) if ga <= gb else (gb, h)
        # |beta| < alpha tanh h with beta = half_diff / tanh h; a zero-width cell has th = 0
        if abs(half_diff) < alpha * th * th:
            beta = half_diff / th
            lower = min(lower, math.sqrt((alpha - beta) * (alpha + beta)))
            s = math.atanh(-beta / alpha)
        return (lower, a, b, ga, gb, a + h + min(max(s, -0.9 * h), 0.9 * h))

    a, b = 0.5 * math.log(w1[0] / w0[-1]), 0.5 * math.log(w1[-1] / w0[0])
    ga, gb = g(a), g(b)
    cells, upper = [cell(a, b, ga, gb)], min(ga, gb)
    for _ in range(_BRACKET_MAX_EVALS - 2):
        lower, a, b, ga, gb, m = heapq.heappop(cells)
        if upper - lower <= _BRACKET_REL_WIDTH * upper:
            return lower, upper
        gm = g(m)
        upper = min(upper, gm)
        heapq.heappush(cells, cell(a, m, ga, gm))
        heapq.heappush(cells, cell(m, b, gm, gb))
    raise NoConvergence(
        f"polar_min bracket still open after {_BRACKET_MAX_EVALS} eigenvalue evaluations"
    )


def _polar_min(L0: np.ndarray, L1: np.ndarray, S0: Spectrum, S1: Spectrum, end: int = 1) -> float:
    """The exact qubit form at dim 2; at dims >= 3, end 0 (lower) or 1 (upper) of the bracket."""
    if S0.dim == 2:
        return _polar_min_qubit(L0, L1, S0, S1)
    return _polar_min_bracket(S0, S1)[end]


def polar_min(L0: np.ndarray, L1: np.ndarray) -> float:
    """
    min over unit vectors psi of 2 sqrt(<psi|L0|psi> <psi|L1|psi>): the exact
    qubit closed form at dim 2, and at dims >= 3 the upper end of the
    certified bracket of _polar_min_bracket.
    """
    return _polar_min(*psd_pair(L0, L1, _DUAL_NAMES))


def polar_half(L0: np.ndarray, L1: np.ndarray) -> float:
    """
    ( max eigenvalue of S_{L0} o S_{L1} )^{-1/2}, the top eigenvalue taken
    from the real symmetric Gram form of the composed Lyapunov operator on
    Hermitian operators; 0 on singular inputs (continuity of the polar).
    """
    return _polar_half(*psd_pair(L0, L1, _DUAL_NAMES))


def _polar_half(L0: np.ndarray, L1: np.ndarray, S0: Spectrum, S1: Spectrum) -> float:
    if S0.is_singular or S1.is_singular:
        return 0.0
    top = float(npl.eigvalsh(_composed_lyapunov_matrix(S0, S1))[-1])
    return top ** -0.5


_POLARS = {"max": _polar_max, "min": _polar_min, "half": _polar_half}


def polar(kind: str, L0: np.ndarray, L1: np.ndarray) -> float:
    """Dispatch by kind in {max, min, half}."""
    if kind not in _POLARS:
        raise ValueError(f"unknown polar kind {kind!r}")
    return _POLARS[kind](*psd_pair(L0, L1, _DUAL_NAMES))


def polar_membership(kind: str, L0: np.ndarray, L1: np.ndarray) -> bool:
    """
    True iff the pair lies in the dual body: its polar is >= 1 - 1e-9. For min
    that polar is the exact qubit form at dim 2 (its round-off is two-sided,
    ~1e-14 relative) and the certified lower end of the bracket at dims >= 3.
    """
    p = _polar_min(*psd_pair(L0, L1, _DUAL_NAMES), end=0) if kind == "min" else polar(kind, L0, L1)
    return p >= _DUAL_BODY_FLOOR


def _max_decomposition(L0: np.ndarray, L1: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """
    (elements, l0, l1): a POVM of 2 dim elements M_i with L_k = sum_i l_k,i M_i,
    whose classical polar is within O(_POVM_EPS sqrt(kappa(L0))) below
    p = polar_max; None on singular pairs.

    With (a_i, E_i) the eigenpairs of L0/p, the slack P = L1/p - (L0/p)^{-1}/4
    is PSD (that is polar_max >= p); with (b_j, F_j) its eigenpairs and
    delta = sqrt(a_min a_max), the POVM {(1-eps) E_i} u {eps F_j} carries
    l0 = p (a_i - eps delta)/(1-eps), l1 = p (1/(4a_i) - eps/(4 delta))/(1-eps)
    on the E_i and l0 = p delta, l1 = p (b_j/eps + 1/(4 delta)) on the F_j.
    By AM-GM the E_i give p sqrt((1 - eps delta/a_i)(1 - eps a_i/delta))/(1-eps)
    <= p and the F_j give >= p. The b_j are clamped at 0; a p above the polar
    then leaves a residual, and any residual above 1e-8 (1 + ||L_k||) raises
    DecompositionInfeasible rather than return a bound above the polar.
    """
    L0, L1, S0, S1 = psd_pair(L0, L1, _DUAL_NAMES)
    p = _polar_max(L0, L1, S0, S1)
    if p == 0.0:
        return None
    eps, dim = _POVM_EPS, S0.dim
    a = S0.eigenvalues / p
    delta = math.sqrt(a[0] * a[-1])
    P = spectrum(L1 / p - S0.matrix(0.25 / a))
    b = np.maximum(P.eigenvalues, 0.0)
    vecs = np.concatenate([S0.eigenvectors, P.eigenvectors], axis=1)
    weights = np.r_[np.full(dim, 1.0 - eps), np.full(dim, eps)]
    elements = weights[:, None, None] * np.einsum("ik,jk->kij", vecs, vecs.conj())
    l0 = p * np.r_[(a - eps * delta) / (1.0 - eps), np.full(dim, delta)]
    l1 = p * np.r_[(0.25 / a - 0.25 * eps / delta) / (1.0 - eps), b / eps + 0.25 / delta]
    for name, L, S, l in (("L0", L0, S0, l0), ("L1", L1, S1, l1)):
        miss = float(npl.norm(np.tensordot(l, elements, 1) - L))
        if miss > 1e-8 * (1.0 + S.norm):
            raise DecompositionInfeasible(f"the decomposition misses {name} by {miss:.3e}")
    return elements, l0, l1


def povm_lower_bound(L0: np.ndarray, L1: np.ndarray) -> float:
    """
    The classical polar of one explicit POVM decomposition
    L_k = sum_i l_k,i M_i (see _max_decomposition): a lower bound on
    polar_max within O(1e-9 sqrt(kappa(L0))) relative; 0 on singular pairs.
    """
    dec = _max_decomposition(L0, L1)
    return 0.0 if dec is None else polar_classical(dec[1], dec[2])
