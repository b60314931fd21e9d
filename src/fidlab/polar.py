# src/fidlab/polar.py
#
# Polar functionals of the three fidelities: closed spectral forms for the
# max and half kinds; for min the exact qubit form at dim 2 and at dims >= 3 a
# certified branch-and-bound bracket over one scalar (bounded and split by the
# chord of a concave function); the membership semantics (polar >= 1 <=>
# dual-body membership), and a randomized POVM-decomposition lower bound for
# the max polar. Every dual pair (L0, L1) is admitted by `linalg_core.psd_pair`
# before any routing, so the dim-2 closed form sees only valid pairs. Max and
# min duality certificates do not come here: `certify` checks their dual pair
# on one eigenvalue of the dual block at the optimal twist.

from __future__ import annotations

import heapq
import math

import numpy as np
import numpy.linalg as npl

from .channels import rng_for
from .errors import DecompositionInfeasible, LengthMismatch, NoConvergence
from .fidelity import _weights
from .linalg_core import Spectrum, hermitianize, psd_pair, spectrum
from .superop import _composed_lyapunov_matrix, vec
from .qubit_geom import _polar_min_qubit

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


def polar_classical(l0, l1) -> float:
    """min over i of 2 sqrt(l0_i l1_i)."""
    l0, l1 = _weights(l0, l1)
    if l0.size == 0:
        raise LengthMismatch("empty weight vectors")
    return float(np.min(2.0 * np.sqrt(l0 * l1)))


def polar_max(L0: np.ndarray, L1: np.ndarray) -> float:
    """2 sqrt( lambda_min( sqrt(L1) L0 sqrt(L1) ) ); 0 on singular inputs."""
    L0, _, S0, S1 = psd_pair(L0, L1, _DUAL_NAMES)
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


def _polar_min(L0: np.ndarray, L1: np.ndarray, end: int) -> float:
    """The exact qubit form at dim 2; at dims >= 3, end 0 (lower) or 1 (upper) of the bracket."""
    L0, L1, S0, S1 = psd_pair(L0, L1, _DUAL_NAMES)
    if S0.dim == 2:
        return _polar_min_qubit(L0, L1, S0, S1)
    return _polar_min_bracket(S0, S1)[end]


def polar_min(L0: np.ndarray, L1: np.ndarray) -> float:
    """
    min over unit vectors psi of 2 sqrt(<psi|L0|psi> <psi|L1|psi>): the exact
    qubit closed form at dim 2, and at dims >= 3 the upper end of the
    certified bracket of _polar_min_bracket.
    """
    return _polar_min(L0, L1, 1)


def polar_half(L0: np.ndarray, L1: np.ndarray) -> float:
    """
    ( max eigenvalue of S_{L0} o S_{L1} )^{-1/2}, the top eigenvalue taken
    from the real symmetric Gram form of the composed Lyapunov operator on
    Hermitian operators; 0 on singular inputs (continuity of the polar).
    """
    _, _, S0, S1 = psd_pair(L0, L1, _DUAL_NAMES)
    if S0.is_singular or S1.is_singular:
        return 0.0
    top = float(npl.eigvalsh(_composed_lyapunov_matrix(S0, S1))[-1])
    return top ** -0.5


def polar(kind: str, L0: np.ndarray, L1: np.ndarray) -> float:
    """Dispatch by kind in {max, min, half}."""
    if kind == "max":
        return polar_max(L0, L1)
    if kind == "min":
        return polar_min(L0, L1)
    if kind == "half":
        return polar_half(L0, L1)
    raise ValueError(f"unknown polar kind {kind!r}")


def polar_membership(kind: str, L0: np.ndarray, L1: np.ndarray) -> bool:
    """
    True iff the pair lies in the dual body: its polar is >= 1 - 1e-9. For min
    that polar is the exact qubit form at dim 2 (its round-off is two-sided,
    ~1e-14 relative) and the certified lower end of the bracket at dims >= 3.
    """
    p = _polar_min(L0, L1, 0) if kind == "min" else polar(kind, L0, L1)
    return p >= 1.0 - 1e-9


def _real_embed(H: np.ndarray) -> np.ndarray:
    v = vec(H)
    return np.concatenate([v.real, v.imag])


def _povm_from_vectors(G: np.ndarray) -> list[np.ndarray] | None:
    """Rank-1 POVM S^{-1/2} g_i g_i^dagger S^{-1/2} from a vector family."""
    raw = [np.outer(g, g.conj()) for g in G]
    S = spectrum(sum(raw))
    if S.eigenvalues[0] <= S.tol:
        return None
    Sih = S.inv_sqrt()
    return [hermitianize(Sih @ A @ Sih) for A in raw]


def _decomposition_value(
    elements: list[np.ndarray], L0: np.ndarray, L1: np.ndarray, strict: bool
) -> float | None:
    """
    hat-F^C of the best coefficients found for this POVM, or None.

    NNLS gives a vertex of each coefficient polytope; when the POVM spans
    more than the Hermitian space, the leftover affine freedom is used by
    a concave epigraph program maximizing min_i (log l0_i + log l1_i).
    In strict mode any fit with residual above 1e-8 is rejected so the
    returned value is a true lower bound.
    """
    from scipy.linalg import null_space
    from scipy.optimize import linprog, minimize, nnls

    live = [M for M in elements if npl.norm(M) > 1e-12]
    if not live:
        return None
    n = len(live)
    A = np.column_stack([_real_embed(M) for M in live])
    c0, r0 = nnls(A, _real_embed(L0))
    c1, r1 = nnls(A, _real_embed(L1))
    base = float(np.min(2.0 * np.sqrt(np.maximum(c0 * c1, 0.0))))
    if r0 > 1e-8 or r1 > 1e-8:
        # soft penalty so direction refinement can walk toward feasibility
        return None if strict else base - 50.0 * (r0 + r1)
    if not strict:
        return base
    N = null_space(A)
    k = N.shape[1]
    if k == 0:
        return base

    def interior(c: np.ndarray) -> np.ndarray | None:
        # strictly positive point of {c + N xi >= 0} via max-min LP
        res = linprog(
            c=np.r_[np.zeros(k), -1.0],
            A_ub=np.c_[-N, np.ones(n)],
            b_ub=c,
            bounds=[(None, None)] * (k + 1),
            method="highs",
        )
        if not res.success or -res.fun <= 1e-12:
            return None
        return c + N @ res.x[:k]

    l0 = interior(c0)
    l1 = interior(c1)
    if l0 is None or l1 is None:
        return base

    def l_of(x):
        return l0 + N @ x[:k], l1 + N @ x[k : 2 * k]

    def cons_f(x):
        a, b = l_of(x)
        return (
            np.log(np.maximum(a, 1e-300))
            + np.log(np.maximum(b, 1e-300))
            - x[-1]
        )

    def cons_jac(x):
        a, b = l_of(x)
        J = np.zeros((n, 2 * k + 1))
        J[:, :k] = N / np.maximum(a, 1e-300)[:, None]
        J[:, k : 2 * k] = N / np.maximum(b, 1e-300)[:, None]
        J[:, -1] = -1.0
        return J

    t0 = float(np.min(np.log(np.maximum(l0, 1e-300)) + np.log(np.maximum(l1, 1e-300))))
    res = minimize(
        lambda x: -x[-1],
        np.r_[np.zeros(2 * k), t0],
        jac=lambda x: np.r_[np.zeros(2 * k), -1.0],
        method="SLSQP",
        constraints=[{"type": "ineq", "fun": cons_f, "jac": cons_jac}],
        options={"maxiter": 500, "ftol": 1e-14},
    )
    base = max(base, 2.0 * float(np.exp(t0 / 2.0)))
    if res.x is None or not np.all(np.isfinite(res.x)):
        return base
    a, b = l_of(res.x)
    if a.min() < -1e-12 or b.min() < -1e-12:
        return base
    prods = np.maximum(a, 0.0) * np.maximum(b, 0.0)
    return max(base, float(np.min(2.0 * np.sqrt(prods))))


def povm_lower_bound(
    L0: np.ndarray,
    L1: np.ndarray,
    n_outcomes: int,
    trials: int = 100,
    seed: int = 0,
) -> float:
    """
    Best classical polar over sampled POVM decompositions
    L_theta = sum_i l_{theta, i} M_i.

    Random rank-1 POVMs are sampled, coefficients fitted by nonnegative
    least squares, and the most promising direction sets refined by a
    derivative-free local search. Only decompositions with fit residual
    below 1e-8 contribute, so the result is a true lower bound for the max
    polar.
    """
    from scipy.optimize import minimize

    L0, L1, _, _ = psd_pair(L0, L1, _DUAL_NAMES)
    dim = L0.shape[0]
    if n_outcomes < dim * dim:
        raise ValueError("n_outcomes must be at least dim^2")
    best = None
    # joint eigenbasis: exact for commuting pairs
    _, V = npl.eigh(L0 + L1)
    eig_els = [np.outer(V[:, i], V[:, i].conj()) for i in range(dim)]
    cand = _decomposition_value(eig_els, L0, L1, strict=True)
    if cand is not None:
        best = cand

    def vectors_value(flat: np.ndarray, strict: bool) -> float | None:
        G = (
            flat[: n_outcomes * dim] + 1j * flat[n_outcomes * dim :]
        ).reshape(n_outcomes, dim)
        els = _povm_from_vectors(G)
        if els is None:
            return None if strict else -100.0
        return _decomposition_value(els, L0, L1, strict=strict)

    starts: list[tuple[float, np.ndarray]] = []
    for t in range(trials):
        rng = rng_for(seed, t)
        flat = rng.standard_normal(2 * n_outcomes * dim)
        v = vectors_value(flat, strict=False)
        if v is not None:
            starts.append((v, flat))
        v_strict = vectors_value(flat, strict=True)
        if v_strict is not None:
            best = v_strict if best is None else max(best, v_strict)
    starts.sort(key=lambda sv: -sv[0])
    for _, flat in starts[: min(8, len(starts))]:
        res = minimize(
            lambda x: -(vectors_value(x, strict=False) or -100.0),
            flat,
            method="Nelder-Mead",
            options={"maxiter": 2000, "fatol": 1e-12, "xatol": 1e-9},
        )
        v = vectors_value(res.x, strict=True)
        if v is not None:
            best = v if best is None else max(best, v)
    if best is None:
        raise DecompositionInfeasible(
            f"no nonnegative decomposition found in {trials} trials"
        )
    return float(best)
