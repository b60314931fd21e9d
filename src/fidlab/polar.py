# src/fidlab/polar.py
#
# Polar functionals of the three fidelities. At dim 2 every polar is a scalar function of
# the pair's five spectral invariants (`qubit_geom`): min from one real quartic's roots,
# half from one 3 x 3 eigenvalue problem. Above dim 2: for half a certified
# Collatz-Wielandt bracket on rho(S_L0 o S_L1), closed at once by a given witness (the
# half certificate's sqrt X) at every dim, else by Lanczos at dims >= 12, with the dense
# d^2 x d^2 Gram at dims 3-11 and wherever the bracket cannot close; for min a certified
# branch-and-bound bracket over one scalar (bounded and split by the chord of a concave
# function). Max is one closed spectral form at every dim. Then the membership semantics
# (polar >= 1 <=> dual-body membership, decided on a bracket's certified lower end), and
# the max polar's lower bound from one explicit POVM decomposition on the eigenbases of
# L0 and of polar_max's slack. Each polar is a kernel over the pair
# `linalg_core.psd_pair` admits, and `_POLARS` maps each kind to it; polar_half and
# polar_min return their bracket's upper end. Max and min duality certificates do not
# come here: `certify` checks their dual pair on one eigenvalue of the dual block at the
# optimal twist.

from __future__ import annotations

import heapq
import math

import numpy as np
import numpy.linalg as npl

from .errors import DecompositionInfeasible, LengthMismatch, NoConvergence
from .fidelity import _weights
from .linalg_core import Spectrum, _SpectralPair, _trace, hermitianize, psd_pair, spectrum
from .superop import _composed_lyapunov_matrix, _composed_lyapunov_operator
from .qubit_geom import _DUAL_BODY_FLOOR, _polar_half_qubit, _polar_min_qubit

__all__ = [
    "polar_classical",
    "polar_max",
    "polar_min",
    "polar_half",
    "polar",
    "polar_membership",
    "povm_lower_bound",
]

# the min and half brackets close once upper - lower <= _BRACKET_REL_WIDTH * upper;
# _polar_min_bracket raises NoConvergence rather than exceed _BRACKET_MAX_EVALS eigvalsh.
_BRACKET_REL_WIDTH = 1e-10
_BRACKET_MAX_EVALS = 1000
# _polar_half_bracket runs Lanczos at dims >= _LANCZOS_MIN_DIM, where it beats the dense
# d^2 x d^2 Gram. Per call on random pairs (A A^dagger/d + 0.05 I), 2-vCPU VM, Lanczos vs
# Gram: 0.61 vs 0.52 ms at dim 10, 0.67 vs 1.30 at 12, 0.94 vs 4.9 at 16, 1.7 vs 28 at 24,
# 2.8 vs 116 at 32. It takes at most _LANCZOS_STEPS_PER_DIM * dim steps, which random
# pairs need 15-24 of at dim 12; a run that fails there (near-identity pairs) costs 0.63x
# the Gram it then falls back to (0.34x at dim 16). The Ritz residual is read every
# _LANCZOS_CHECK_EVERY steps from step _LANCZOS_FIRST_READ (before it, it was far above
# _LANCZOS_FIRST_TARGET on every pair measured), and the bracket is first checked below
# _LANCZOS_FIRST_TARGET relative.
_LANCZOS_MIN_DIM = 12
_LANCZOS_STEPS_PER_DIM = 2
_LANCZOS_CHECK_EVERY = 3
_LANCZOS_FIRST_READ = 9
_LANCZOS_FIRST_TARGET = 1e-7
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
    """
    2 sigma_min(sqrt(L0) sqrt(L1)); 0 if singular. Relative error within (beta + 1) eps
    max kappa(L_k) <= 8 eps max kappa(L_k): eigh returns the exact spectrum of some L_k + E_k,
    ||E_k|| <= beta eps ||L_k|| (beta at most 6.2 on 1,500 pairs at each of dims 2-4), which
    lies between (1 -+ beta eps kappa_k) L_k; the polar, monotone and 1/2-homogeneous in each
    operand, moves by at most beta eps (kappa_0 + kappa_1) / 2, and the SVD of the well-scaled
    D0^(1/2) W D1^(1/2) adds about eps sqrt(kappa_0 kappa_1). Seen: 4.8 eps kappa on dim-2
    boundary pairs L0 = L1^-1 / 4 (3,000 pairs), where both small eigenvalues carry eigh's
    round-off at once, under 1 on them at dims 3-4, and 2 on near-orthogonal pairs.
    """
    return _polar_max(psd_pair(L0, L1, _DUAL_NAMES))


def _polar_max(P: _SpectralPair) -> float:
    S0, S1 = P.Xs, P.Ys
    if S0.is_singular or S1.is_singular:
        return 0.0
    # sigma(sqrt(L0) sqrt(L1)) = sigma(D0^{1/2} V0^dagger V1 D1^{1/2}); the squared form
    # 2 sqrt(lambda_min(sqrt(L1) L0 sqrt(L1))) loses the small singular values
    W = S0.eigenvectors.conj().T @ S1.eigenvectors
    M = np.sqrt(S0.eigenvalues)[:, None] * W * np.sqrt(S1.eigenvalues)
    return 2.0 * float(npl.svd(M, compute_uv=False)[-1])


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


def _polar_min(P: _SpectralPair, end: int = 1) -> float:
    """The exact qubit form at dim 2; at dims >= 3, end 0 (lower) or 1 (upper) of the bracket."""
    if P.Xs.dim == 2:
        return _polar_min_qubit(P.Xs, P.Ys)
    return _polar_min_bracket(P.Xs, P.Ys)[end]


def polar_min(L0: np.ndarray, L1: np.ndarray) -> float:
    """
    min over unit vectors psi of 2 sqrt(<psi|L0|psi> <psi|L1|psi>): at dim 2 the exact
    qubit form off the pair's spectral invariants (qubit_geom._polar_min_qubit), and at
    dims >= 3 the upper end of the certified bracket of _polar_min_bracket.
    """
    return _polar_min(psd_pair(L0, L1, _DUAL_NAMES))


def polar_half(L0: np.ndarray, L1: np.ndarray) -> float:
    """
    ( max eigenvalue of S_{L0} o S_{L1} )^{-1/2}: the upper end of the certified bracket
    of _polar_half_bracket, of relative width _BRACKET_REL_WIDTH at dims >= 12, the dense
    Gram value at dims 3-11 and the exact value off the pair's spectral invariants at
    dim 2; 0 on singular inputs (continuity of the polar).
    """
    return _polar_half(psd_pair(L0, L1, _DUAL_NAMES))


def _polar_half(P: _SpectralPair, end: int = 1) -> float:
    """End 0 (lower) or 1 (upper) of _polar_half_bracket of the pair."""
    return _polar_half_bracket(P.Xs, P.Ys)[end]


def _polar_half_bracket(S0: Spectrum, S1: Spectrum, witness: np.ndarray | None = None
                        ) -> tuple[float, float]:
    """
    Certified bracket [lower, upper] of the half polar rho(Phi)^{-1/2},
    Phi = S_{L0} o S_{L1}, of the pair with spectra S0, S1; (0, 0) on singular inputs.

    At dim 2 both ends are qubit_geom._polar_half_qubit, one 3 x 3 eigenvalue problem off
    the pair's five spectral invariants, and `witness` is not read. At dims >= 3 both S_L
    preserve the PSD cone, so for every positive definite H the Collatz-Wielandt bounds
    lambda_min <= rho <= lambda_max of H^{-1/2} Phi(H) H^{-1/2} hold (_collatz_wielandt).
    The bracket is taken at the witness H when one is given and closes it (_witness_rho),
    else, at dims >= _LANCZOS_MIN_DIM, by _lanczos_bracket; it closes at relative width
    _BRACKET_REL_WIDTH. Below that dim with no witness, and whenever neither closes (a
    reducible Phi, as for commuting or block-diagonal pairs, has no positive definite
    Perron vector), both ends are the top eigenvalue of the dense Gram
    _composed_lyapunov_matrix, exact up to eigvalsh's round-off.

    Round-off: against that Gram value, both ends of a closed bracket held it within
    7.4e-16 relative in either direction, on random, kappa = 1e4 and near-identity pairs
    at dims 12-24, and the qubit form within 2.0e-15 on 30,000 random, scaled,
    kappa = 1e8, near-scalar, commuting and L0 ~ L1^-1 pairs (tests/test_polar.py holds
    both to 1e-13). At the half certificate's witness sqrt X both ends held the Gram value
    within 5.8e-15 relative on random pairs at dims 3-11, and sat within 1.7e-11 of 1 at
    kappa(X) = kappa(Y) = 1e8 (2.7e-12 at dims 12-32); there Phi(H)'s round-off meets
    H^{-1/2} twice, so the lower end can exceed the rigorous bound at the float pair by up
    to 8 eps kappa(H) (6.9 seen at dim 3, kappa(H) = 1e4; tests/test_certify.py).
    """
    if S0.dim == 2:
        v = _polar_half_qubit(S0, S1)
        return v, v
    if S0.is_singular or S1.is_singular:
        return 0.0, 0.0
    bracket = None if witness is None else _closed(_witness_rho(S0, S1, witness))
    if bracket is None and S0.dim >= _LANCZOS_MIN_DIM:
        bracket = _lanczos_bracket(*_composed_lyapunov_operator(S0, S1))
    if bracket is not None:
        return bracket
    top = float(npl.eigvalsh(_composed_lyapunov_matrix(S0, S1))[-1]) ** -0.5
    return top, top


def _witness_rho(S0: Spectrum, S1: Spectrum, H: np.ndarray) -> tuple[float, float] | None:
    """
    _collatz_wielandt at the witness H, with H in L1's eigenbasis: S_L1 divides entrywise by
    mu_i + mu_j there, and S_L0 by lambda_i + lambda_j after the change of basis
    W = V1^dagger V0, which leaves Phi(H) = S_L0(S_L1(H)) in L0's eigenbasis.
    """
    V1 = S1.eigenvectors
    V1h = V1.conj().T
    W = V1h @ S0.eigenvectors
    mu, lam = S1.eigenvalues, S0.eigenvalues
    H1 = V1h @ H @ V1
    F0 = (W.conj().T @ (H1 / (mu[:, None] + mu)) @ W) / (lam[:, None] + lam)
    return _collatz_wielandt(H1, F0, 0.0, W)


def _collatz_wielandt(H: np.ndarray, F: np.ndarray, theta: float, basis: np.ndarray | None = None
                      ) -> tuple[float, float] | None:
    """
    (rho_lo, rho_hi) bracketing rho(Phi) from F = Phi(H), H and F Hermitian (Cholesky and
    eigvalsh read one triangle of each) and F given in `basis` when one is (Phi(H) =
    basis F basis^dagger): the extreme eigenvalues of C^{-1} Phi(H) C^{-dagger},
    H = C C^dagger by one Cholesky once H's trace is made positive, with rho_lo raised to
    theta, a Rayleigh quotient of the symmetric form (<= rho), and kept <= rho_hi; None when
    H is not positive definite.
    """
    if _trace(H) < 0:
        H, F = -H, -F
    try:
        C = npl.cholesky(H)
    except npl.LinAlgError:
        return None
    K = npl.inv(C)
    if basis is not None:
        K = K @ basis
    # eigvalsh reads one triangle of the Hermitian congruence
    w = npl.eigvalsh(K @ F @ K.conj().T)
    return min(max(float(w[0]), theta), float(w[-1])), float(w[-1])


def _closed(rho: tuple[float, float] | None) -> tuple[float, float] | None:
    """The polar bracket (rho_hi^{-1/2}, rho_lo^{-1/2}) when it is _BRACKET_REL_WIDTH-closed."""
    if rho is None or rho[0] <= 0.0:
        return None
    lower, upper = rho[1] ** -0.5, rho[0] ** -0.5
    return (lower, upper) if upper - lower <= _BRACKET_REL_WIDTH * upper else None


def _lanczos_bracket(apply, w1: np.ndarray) -> tuple[float, float] | None:
    """
    The polar bracket from Lanczos with full reorthogonalization on the symmetric form
    S_{L1}^{1/2} S_{L0} S_{L1}^{1/2} = apply, started at the image S_{L1}^{1/2}(I) of I:
    its top Ritz pair (theta, z) gives H = S_{L1}^{-1/2}(z) = z / w1 and
    Phi(H) = apply(z) / w1 from the stored products, and _collatz_wielandt at H closes
    the bracket. The Ritz residual is read every _LANCZOS_CHECK_EVERY steps, or at once
    when the Krylov space is (nearly) invariant; H is checked once the residual relative
    to theta falls below a target, first _LANCZOS_FIRST_TARGET, then the residual that
    the last check's width, taken as linear in it, predicts for closing. None, so that
    the caller falls back, when H is not positive definite at a check, when an
    invariant Krylov space does not close it, or after _LANCZOS_STEPS_PER_DIM * dim
    steps.
    """
    d = w1.shape[0]
    steps = _LANCZOS_STEPS_PER_DIM * d
    # each Lanczos vector is a d x d complex matrix, held as its 2 d^2 real floats, so
    # that Re <A, B> = Re tr(A^dagger B), the inner product Phi is symmetric in, is a dot
    Q, AQ = np.empty((steps, 2 * d * d)), np.empty((steps, 2 * d * d))
    T = np.zeros((steps, steps))
    start = np.diag(np.diag(w1)).astype(complex)
    Q[0] = (start / npl.norm(start)).ravel().view(float)
    target = _LANCZOS_FIRST_TARGET
    for k in range(steps):
        # kept Hermitian: past convergence, round-off otherwise grows the Perron vector
        # times i, a second top eigenvector that spoils the Ritz vector
        AQ[k] = hermitianize(apply(Q[k].view(complex).reshape(d, d))).ravel().view(float)
        # full reorthogonalization, which also takes off the three-term recurrence's
        # alpha_k q_k + beta_{k-1} q_{k-1}
        c = Q[:k + 1] @ AQ[k]
        r = AQ[k] - c @ Q[:k + 1]
        T[k, k], beta = c[k], math.sqrt(r @ r)
        invariant = beta <= _BRACKET_REL_WIDTH * c[k]
        read = k + 1 >= _LANCZOS_FIRST_READ and (k + 1) % _LANCZOS_CHECK_EVERY == 0
        if invariant or read or k + 1 == steps:
            theta, Y = npl.eigh(T[:k + 1, :k + 1])
            y = Y[:, -1]
            residual = beta * abs(y[-1]) / theta[-1]
            if invariant or residual <= target:
                z, Az = y @ Q[:k + 1], y @ AQ[:k + 1]
                # z's own Rayleigh quotient is <= rho however orthogonal Q is
                rho = _collatz_wielandt(*((v.view(complex).reshape(d, d) / w1) for v in (z, Az)),
                                        float(z @ Az) / float(z @ z))
                if rho is None or rho[0] <= 0.0:
                    return None
                bracket = _closed(rho)
                if bracket is not None:
                    return bracket
                if invariant:
                    return None
                target = residual * _BRACKET_REL_WIDTH / (1.0 - math.sqrt(rho[0] / rho[1]))
        if k + 1 < steps:
            T[k, k + 1] = T[k + 1, k] = beta
            np.divide(r, beta, out=Q[k + 1])
    return None


_POLARS = {"max": _polar_max, "min": _polar_min, "half": _polar_half}


def polar(kind: str, L0: np.ndarray, L1: np.ndarray) -> float:
    """Dispatch by kind in {max, min, half}."""
    if kind not in _POLARS:
        raise ValueError(f"unknown polar kind {kind!r}")
    return _POLARS[kind](psd_pair(L0, L1, _DUAL_NAMES))


def polar_membership(kind: str, L0: np.ndarray, L1: np.ndarray) -> bool:
    """
    True iff the pair lies in the dual body: its polar is >= 1 - 1e-9. For max that
    polar is polar_max. For min it is the exact qubit form at dim 2 (its round-off is
    two-sided, within 2 eps max kappa(L_k) relative) and the certified lower end of the
    bracket at dims >= 3. For half it is the certified lower end of _polar_half_bracket:
    the exact qubit form at dim 2 (within 1e-13 of the Gram value, either side), the dense
    Gram value at dims 3-11.
    """
    if kind not in _POLARS:
        raise ValueError(f"unknown polar kind {kind!r}")
    P = psd_pair(L0, L1, _DUAL_NAMES)
    p = _polar_max(P) if kind == "max" else _POLARS[kind](P, end=0)
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
    then leaves a residual, and any residual above 1e-8 ||L_k|| raises
    DecompositionInfeasible rather than return a bound above the polar.
    """
    P = psd_pair(L0, L1, _DUAL_NAMES)
    L0, L1, S0, S1 = P
    p = _polar_max(P)
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
        if miss > 1e-8 * S.norm:
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
