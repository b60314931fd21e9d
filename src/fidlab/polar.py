# src/fidlab/polar.py
#
# Polar functionals of the three fidelities. One router, `_polar_bracket(kind, S0, S1)`,
# decides each polar's path over the pair `linalg_core.psd_pair` admits and returns its
# certified bracket (lower, upper), equal ends where the value is exact up to its stated
# round-off: (0, 0) on a singular pair (continuity of the polar); at dim 2 the qubit form
# off the pair's five spectral invariants (`qubit_geom`): max the stable root of a
# quadratic, min one real quartic's roots, half one 3 x 3 eigenvalue problem. Above dim 2:
# max 2 sigma_min(sqrt(L0) sqrt(L1)) by one SVD; min a certified branch-and-bound bracket
# over one scalar (bounded and split by the chord of a concave function); half a certified
# Collatz-Wielandt bracket on rho(S_L0 o S_L1), closed by Lanczos at dims >= 12, with the
# dense d^2 x d^2 Gram at dims 3-11 and wherever Lanczos cannot close it. polar(),
# polar_max, polar_min and polar_half read the upper end, and the membership semantics
# (polar >= 1 <=> dual-body membership) the certified lower end. Then the max polar's
# lower bound from one explicit POVM decomposition on the eigenbases of L0 and of
# polar_max's slack. The half certificate's bracket at its own witness sqrt X is
# `_witness_bracket`; it and Lanczos apply S_L0 o S_L1 by `superop`'s one operator and
# read the bracket `_collatz_wielandt` returns. Max and min duality certificates do not
# come here: `certify` checks their dual pair on one eigenvalue of the dual block.

from __future__ import annotations

import heapq
import math

import numpy as np
import numpy.linalg as npl

from .errors import DecompositionInfeasible, LengthMismatch, NoConvergence
from .fidelity import _weights
from .linalg_core import Spectrum, _trace, hermitianize, psd_pair, spectrum
from .superop import _composed_lyapunov_matrix, _composed_lyapunov_operator
from .qubit_geom import _DUAL_BODY_FLOOR, _polar_half_qubit, _polar_max_qubit, _polar_min_qubit

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
# _polar_bracket runs the half polar's Lanczos at dims >= _LANCZOS_MIN_DIM, where it beats
# the dense d^2 x d^2 Gram. Per call on random pairs (A A^dagger/d + 0.05 I), 2-vCPU VM,
# Lanczos vs Gram: 0.61 vs 0.52 ms at dim 10, 0.67 vs 1.30 at 12, 0.94 vs 4.9 at 16, 1.7
# vs 28 at 24, 2.8 vs 116 at 32. It takes at most _LANCZOS_STEPS_PER_DIM * dim steps,
# which random pairs need 15-24 of at dim 12; a run that fails there (near-identity pairs)
# costs 0.63x the Gram it then falls back to (0.34x at dim 16). The Ritz residual is read
# every _LANCZOS_CHECK_EVERY steps from step _LANCZOS_FIRST_READ (before it, it was far
# above _LANCZOS_FIRST_TARGET on every pair measured), and the bracket is first checked
# below _LANCZOS_FIRST_TARGET relative.
_LANCZOS_MIN_DIM = 12
_LANCZOS_STEPS_PER_DIM = 2
_LANCZOS_CHECK_EVERY = 3
_LANCZOS_FIRST_READ = 9
_LANCZOS_FIRST_TARGET = 1e-7
_DUAL_NAMES = ("L0", "L1")
_KINDS = ("max", "min", "half")
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
    2 sigma_min(sqrt(L0) sqrt(L1)); 0 if singular. At dim 2, polar_max_qubit's stable root
    off the pair's invariants, within 4 eps max kappa(L_k) (qubit_geom). At dims >= 3 one
    SVD (_polar_max), relative error within (beta + 1) eps max kappa(L_k) <= 8 eps max
    kappa(L_k): eigh returns the exact spectrum of some L_k + E_k, ||E_k|| <= beta eps ||L_k||
    (beta at most 6.2 on 1,500 pairs at each of dims 2-4), which lies between
    (1 -+ beta eps kappa_k) L_k; the polar, monotone and 1/2-homogeneous in each operand,
    moves by at most beta eps (kappa_0 + kappa_1) / 2, and the SVD of the well-scaled
    D0^(1/2) W D1^(1/2) adds about eps sqrt(kappa_0 kappa_1). Seen for the SVD: 4.8 eps kappa
    on dim-2 boundary pairs L0 = L1^-1 / 4 (3,000 pairs), where both small eigenvalues carry
    eigh's round-off at once, under 1 on them at dims 3-4, and 2 on near-orthogonal pairs.
    """
    P = psd_pair(L0, L1, _DUAL_NAMES)
    return _polar_bracket("max", P.Xs, P.Ys)[1]


def _polar_max(S0: Spectrum, S1: Spectrum) -> float:
    """2 sigma_min(sqrt(L0) sqrt(L1)) of the definite pair with spectra S0, S1, by one SVD."""
    # sigma(sqrt(L0) sqrt(L1)) = sigma(D0^{1/2} V0^dagger V1 D1^{1/2}); the squared form
    # 2 sqrt(lambda_min(sqrt(L1) L0 sqrt(L1))) loses the small singular values
    W = S0.eigenvectors.conj().T @ S1.eigenvectors
    M = np.sqrt(S0.eigenvalues)[:, None] * W * np.sqrt(S1.eigenvalues)
    return 2.0 * float(npl.svd(M, compute_uv=False)[-1])


def _polar_min_bracket(S0: Spectrum, S1: Spectrum) -> tuple[float, float]:
    """
    Certified bracket [lower, upper] of the min polar of the definite pair with
    spectra S0, S1, of relative width _BRACKET_REL_WIDTH.

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


def polar_min(L0: np.ndarray, L1: np.ndarray) -> float:
    """
    min over unit vectors psi of 2 sqrt(<psi|L0|psi> <psi|L1|psi>): at dim 2 the exact
    qubit form off the pair's spectral invariants (qubit_geom._polar_min_qubit), and at
    dims >= 3 the upper end of the certified bracket of _polar_min_bracket; 0 if singular.
    """
    P = psd_pair(L0, L1, _DUAL_NAMES)
    return _polar_bracket("min", P.Xs, P.Ys)[1]


def polar_half(L0: np.ndarray, L1: np.ndarray) -> float:
    """
    ( max eigenvalue of S_{L0} o S_{L1} )^{-1/2}: the exact value off the pair's spectral
    invariants at dim 2, the dense Gram value at dims 3-11 and the upper end of the
    certified Lanczos bracket, of relative width _BRACKET_REL_WIDTH, at dims >= 12 (the
    Gram value where it does not close); 0 on singular inputs (continuity of the polar).
    """
    P = psd_pair(L0, L1, _DUAL_NAMES)
    return _polar_bracket("half", P.Xs, P.Ys)[1]


def _polar_bracket(kind: str, S0: Spectrum, S1: Spectrum) -> tuple[float, float]:
    """
    Certified bracket [lower, upper] of the kind's polar of the PSD pair with spectra S0,
    S1: the one place each polar's path is decided. (0, 0) on singular inputs. At dim 2
    both ends are the kind's qubit form off the pair's five spectral invariants
    (qubit_geom: _polar_max_qubit, _polar_min_qubit, _polar_half_qubit). At dims >= 3,
    max: both ends are the SVD _polar_max; min: _polar_min_bracket.

    Half at dims >= 3: both S_L preserve the PSD cone, so for every positive definite H
    the Collatz-Wielandt bounds lambda_min <= rho <= lambda_max of H^{-1/2} Phi(H) H^{-1/2},
    Phi = S_{L0} o S_{L1}, hold (_collatz_wielandt). At dims >= _LANCZOS_MIN_DIM
    _lanczos_bracket closes them at relative width _BRACKET_REL_WIDTH. Below that dim, and
    whenever Lanczos does not close (a reducible Phi, as for commuting or block-diagonal
    pairs, has no positive definite Perron vector), both ends are rho^{-1/2} from the top
    eigenvalue of the dense Gram _composed_lyapunov_matrix, exact up to eigvalsh's
    round-off. Against that Gram value, both ends of a closed bracket held it within
    7.4e-16 relative in either direction, on random, kappa = 1e4 and near-identity pairs
    at dims 12-24, and the qubit form within 2.0e-15 on 30,000 random, scaled,
    kappa = 1e8, near-scalar, commuting and L0 ~ L1^-1 pairs (tests/test_polar.py holds
    both to 1e-13).
    """
    if S0.is_singular or S1.is_singular:
        return 0.0, 0.0
    if S0.dim == 2:
        form = {"max": _polar_max_qubit, "min": _polar_min_qubit, "half": _polar_half_qubit}
        p = form[kind](S0, S1)
        return p, p
    if kind == "max":
        p = _polar_max(S0, S1)
        return p, p
    if kind == "min":
        return _polar_min_bracket(S0, S1)
    if S0.dim >= _LANCZOS_MIN_DIM:
        bracket = _lanczos_bracket(*_composed_lyapunov_operator(S0, S1))
        if bracket is not None:
            return bracket
    top = float(npl.eigvalsh(_composed_lyapunov_matrix(S0, S1))[-1]) ** -0.5
    return top, top


def _witness_bracket(S0: Spectrum, S1: Spectrum, H: np.ndarray) -> tuple[float, float]:
    """
    Both Collatz-Wielandt ends of the half polar at the witness H, closed or not
    (_collatz_wielandt): the lower end bounds the polar from below at every positive
    definite H, and is 0 where H is not; the upper end is inf where rho_lo is 0. At dim 2
    and on singular inputs it is _polar_bracket's, the qubit form at dim 2. H is taken
    to L1's eigenbasis, H1 = V1^dagger H V1, where Phi(H1) = apply(w1 H1) / w1 by
    _composed_lyapunov_operator.

    Round-off: at the half certificate's witness sqrt X both ends held the Gram value
    within 5.8e-15 relative on random pairs at dims 3-11, and sat within 1.7e-11 of 1 at
    kappa(X) = kappa(Y) = 1e8 (2.7e-12 at dims 12-32); there Phi(H)'s round-off meets
    H^{-1/2} twice, so the lower end can exceed the rigorous bound at the float pair by up
    to 8 eps kappa(H) (6.9 seen at dim 3, kappa(H) = 1e4; tests/test_certify.py).
    """
    if S0.dim == 2 or S0.is_singular or S1.is_singular:
        return _polar_bracket("half", S0, S1)
    apply, w1 = _composed_lyapunov_operator(S0, S1)
    V1 = S1.eigenvectors
    H1 = V1.conj().T @ H @ V1
    return _collatz_wielandt(H1, apply(w1 * H1) / w1, 0.0)


def _collatz_wielandt(H: np.ndarray, F: np.ndarray, theta: float) -> tuple[float, float]:
    """
    The half polar's bracket (rho_hi^{-1/2}, rho_lo^{-1/2}) from F = Phi(H), H and F
    Hermitian in one basis (Cholesky and eigvalsh read one triangle of each):
    rho_lo <= rho(Phi) <= rho_hi are the extreme eigenvalues of C^{-1} F C^{-dagger},
    H = C C^dagger by one Cholesky once H's trace is made positive, with rho_lo raised to
    theta, a Rayleigh quotient of the symmetric form (<= rho), and kept <= rho_hi.
    (0, inf) when H is not positive definite, and the upper end is inf when rho_lo <= 0.
    """
    if _trace(H) < 0:
        H, F = -H, -F
    try:
        C = npl.cholesky(H)
    except npl.LinAlgError:
        return 0.0, math.inf
    K = npl.inv(C)
    # eigvalsh reads one triangle of the Hermitian congruence
    w = npl.eigvalsh(K @ F @ K.conj().T)
    rho_lo, rho_hi = min(max(float(w[0]), theta), float(w[-1])), float(w[-1])
    return rho_hi ** -0.5, rho_lo ** -0.5 if rho_lo > 0.0 else math.inf


def _lanczos_bracket(apply, w1: np.ndarray) -> tuple[float, float] | None:
    """
    The polar bracket from Lanczos on the symmetric form S_{L1}^{1/2} S_{L0} S_{L1}^{1/2}
    = apply, started at the image S_{L1}^{1/2}(I) of I: its top Ritz pair (theta, z) gives
    H = S_{L1}^{-1/2}(z) = z / w1 and Phi(H) = apply(z) / w1 from the stored products, and
    _collatz_wielandt's bracket at H closes. The Ritz residual is read every
    _LANCZOS_CHECK_EVERY steps, or at once when the Krylov space is (nearly) invariant; H
    is checked once the residual relative to theta falls below a target, first
    _LANCZOS_FIRST_TARGET, then the residual that the last check's width, taken as linear
    in it, predicts for closing. None, so that the caller falls back, when the bracket's
    upper end is inf at a check (H is not positive definite, or rho_lo <= 0), when an
    invariant Krylov space does not close it, or after _LANCZOS_STEPS_PER_DIM * dim steps.

    Each new vector takes one classical Gram-Schmidt pass against every earlier one, not a
    full reorthogonalization: on near-identity pairs the basis loses orthogonality inside
    the step cap (max |Q^T Q - I| 0.95 at step 24, dim 12), the top Ritz value turns
    spurious and the caller falls back; the lower end, z's Rayleigh quotient, stays rigorous.
    """
    d = w1.shape[0]
    steps = _LANCZOS_STEPS_PER_DIM * d
    # each Lanczos vector is a d x d complex matrix, held as its 2 d^2 real floats, so
    # that Re <A, B> = Re tr(A^dagger B), the inner product Phi is symmetric in, is a dot
    Q, AQ = np.empty((steps, 2 * d * d)), np.empty((steps, 2 * d * d))
    T = np.zeros((steps, steps))
    start = np.diag(np.diag(w1))
    Q[0] = (start / npl.norm(start)).ravel().view(float)
    target = _LANCZOS_FIRST_TARGET
    for k in range(steps):
        # kept Hermitian: past convergence, round-off otherwise grows the Perron vector
        # times i, a second top eigenvector that spoils the Ritz vector
        AQ[k] = hermitianize(apply(Q[k].view(complex).reshape(d, d))).ravel().view(float)
        # one Gram-Schmidt pass against every earlier vector, which also takes off the
        # three-term recurrence's alpha_k q_k + beta_{k-1} q_{k-1}
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
                lower, upper = _collatz_wielandt(
                    *((v.view(complex).reshape(d, d) / w1) for v in (z, Az)),
                    float(z @ Az) / float(z @ z))
                if upper == math.inf:
                    return None
                if upper - lower <= _BRACKET_REL_WIDTH * upper:
                    return lower, upper
                if invariant:
                    return None
                target = residual * _BRACKET_REL_WIDTH / (1.0 - lower / upper)
        if k + 1 < steps:
            T[k, k + 1] = T[k + 1, k] = beta
            np.divide(r, beta, out=Q[k + 1])
    return None


def polar(kind: str, L0: np.ndarray, L1: np.ndarray) -> float:
    """Dispatch by kind in {max, min, half}: the upper end of the kind's bracket."""
    if kind not in _KINDS:
        raise ValueError(f"unknown polar kind {kind!r}")
    P = psd_pair(L0, L1, _DUAL_NAMES)
    return _polar_bracket(kind, P.Xs, P.Ys)[1]


def polar_membership(kind: str, L0: np.ndarray, L1: np.ndarray) -> bool:
    """
    True iff the pair lies in the dual body: the certified lower end of its polar's
    bracket (_polar_bracket) is >= 1 - 1e-9. The dim-2 qubit forms and max at every dim
    are exact up to their stated two-sided round-off, so both ends are the value; min at
    dims >= 3 and half at dims >= 12 read the lower end of their bracket, and half at
    dims 3-11, or where Lanczos does not close, the dense Gram value.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown polar kind {kind!r}")
    P = psd_pair(L0, L1, _DUAL_NAMES)
    return _polar_bracket(kind, P.Xs, P.Ys)[0] >= _DUAL_BODY_FLOOR


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
    L0, L1, S0, S1 = psd_pair(L0, L1, _DUAL_NAMES)
    p = _polar_bracket("max", S0, S1)[1]
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
