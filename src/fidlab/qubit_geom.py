# src/fidlab/qubit_geom.py
#
# Exact dim-2 geometry: the convex body M0(M), its boundary as a minimum over t
# (which membership reads) and as the quartic discriminant's root (a reference),
# the induced membership test for the min-fidelity dual body, the qubit polars, and
# the necessary conditions for unital convertibility of dual pairs. The polars are
# unitarily invariant, and a dim-2 pair is fixed up to a joint unitary by five numbers
# of its two spectra (`_qubit_invariants`): so the max, min and half qubit polars are
# scalar functions of them, and polynomial roots are companion-matrix eigenvalues.

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .errors import (
    DegenerateFrame,
    DegenerateZ,
    DimensionMismatch,
    NotPsd,
    RootAmbiguity,
    SOutOfRange,
)
from .linalg_core import (Spectrum, _admitted, _hermitian, _hermitian_pair, _operand_spectrum,
                          psd_pair, spectrum)

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "QubitDualPoint",
    "M0Frame",
    "frame_from_operator",
    "f1",
    "f2",
    "discriminant_D",
    "unique_root_w",
    "w2_min_oracle",
    "m0_membership",
    "m0_extreme_points",
    "mfmin_qubit_membership",
    "polar_max_qubit",
    "polar_min_qubit",
    "convertibility_necessary",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

FRAME_TOL = 1e-10
_DUAL_BODY_FLOOR = 1.0 - 1e-9  # a pair is in a dual body iff its polar is >= this


@dataclass(frozen=True)
class QubitDualPoint:
    """Coefficients of sigma_x, sigma_y, sigma_z, I in a fixed frame."""

    x: float
    y: float
    z: float
    w: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.x, self.y, self.z, self.w))):
            raise NotPsd(f"QubitDualPoint has a non-finite coordinate: {self!r}")

    def to_operator(self) -> np.ndarray:
        return (
            self.x * SIGMA_X + self.y * SIGMA_Y + self.z * SIGMA_Z
            + self.w * np.eye(2, dtype=complex)
        )

    @staticmethod
    def from_operator(H: np.ndarray) -> "QubitDualPoint":
        H = _hermitian(H, "operator", bounded=False)
        if H.shape != (2, 2):
            raise DimensionMismatch("QubitDualPoint needs a 2x2 operator")
        a, b, d = float(H[0, 0].real), complex(H[0, 1]), float(H[1, 1].real)
        return QubitDualPoint(x=b.real, y=-b.imag, z=(a - d) / 2, w=(a + d) / 2)


@dataclass(frozen=True)
class M0Frame:
    """Parameters of M = l sigma_z + m I plus the rotation aligning to it."""

    l: float
    m: float
    rotation: np.ndarray

    def __post_init__(self) -> None:
        # the largest extreme-point coordinate is 2 l^2, which can overflow
        if not all(map(math.isfinite, (self.l, self.m, 2.0 * self.l * self.l))):
            raise DegenerateFrame(
                f"frame parameters l, m and 2 l^2 must be finite, got l={self.l!r} m={self.m!r}")
        # M ~ m I has no frame; membership divides by l^2, which must be a normal float
        if abs(self.l) <= FRAME_TOL * abs(self.m) or self.l * self.l < np.finfo(float).tiny:
            raise DegenerateFrame("frame parameter l vanishes")


def frame_from_operator(M: np.ndarray) -> M0Frame:
    """
    Diagonalize a Hermitian qubit M into l sigma_z + m I, l > 0; NotPsd if M is not finite
    or its largest |entry| is outside [1e-100, 1e100] (other than 0).
    """
    M = _hermitian(M, "operator")
    if M.shape != (2, 2):
        raise DimensionMismatch("frame_from_operator needs a 2x2 operator")
    sp = _operand_spectrum(M)
    (w0, w1), V = sp.eigenvalues, sp.eigenvectors
    # eigenvalues ascend; put the larger eigenvalue on sigma_z's +1 axis (a copy: V is read-only)
    return M0Frame(l=float((w1 - w0) / 2), m=float((w1 + w0) / 2), rotation=V[:, ::-1].copy())


def f1(x: float) -> float:
    """|x| - 1 for |x| >= 2, else x^2 / 4."""
    x = float(x)
    return abs(x) - 1.0 if abs(x) >= 2.0 else x * x / 4.0


def f2(x: float, z: float) -> float:
    """Radial analog of f1: depends on sqrt(x^2 + z^2) only."""
    r2 = float(x) ** 2 + float(z) ** 2
    return np.sqrt(r2) - 1.0 if r2 >= 4.0 else r2 / 4.0


def _quartic(x: float, z: float) -> list[float]:
    """The coefficients c4, ..., c0 of D(x, z, .), highest power of w first."""
    x2 = float(x) * float(x)
    z2 = float(z) * float(z)
    return [
        16.0,
        -8.0 * x2 + 8.0 * z2 + 32.0,
        x2 * x2 + 2.0 * x2 * z2 - 32.0 * x2 + z2 * z2 - 8.0 * z2 + 16.0,
        10.0 * x2 * x2 + 2.0 * x2 * z2 - 8.0 * x2 - 8.0 * z2 * z2 - 32.0 * z2,
        x2 * x2
        - 3.0 * x2 * x2 * z2
        - x2 * x2 * x2
        - 3.0 * x2 * z2 * z2
        + 20.0 * x2 * z2
        - z2 * z2 * z2
        - 8.0 * z2 * z2
        - 16.0 * z2,
    ]


def discriminant_D(x: float, z: float, w: float) -> float:
    """
    The quartic-in-w boundary polynomial, evaluated as printed; RootAmbiguity,
    as in unique_root_w, if a coefficient or the value is not finite (x, z or w
    is not, or overflows).
    """
    coeffs = _quartic(x, z)
    c4, c3, c2, c1, c0 = coeffs
    w = float(w)
    value = ((c4 * w + c3) * w + c2) * w * w + c1 * w + c0
    if not all(map(math.isfinite, (*coeffs, value))):
        raise RootAmbiguity(f"D at (x={x!r}, z={z!r}, w={w!r}) is not finite")
    return value


def unique_root_w(x: float, z: float) -> float:
    """
    The unique real root of D(x, z, .) in [f2(x, z), infinity), via the companion
    matrix of the quartic; RootAmbiguity if a coefficient is not finite (x or z is
    not, or overflows) or filtering does not isolate exactly one root. Domain:
    |x| <= 4, 1e-3 <= |z| <= 3, within 6e-8 of w2_min_oracle; the error grows below
    it (5e-7 at |z| = 3e-4), and some x raise RootAmbiguity (14 of 401 at |z| = 1e-6).
    """
    coeffs = _quartic(x, z)
    if not all(map(math.isfinite, coeffs)):
        raise RootAmbiguity(f"the quartic at (x={x!r}, z={z!r}) has a non-finite coefficient")
    if abs(z) <= 1e-12:
        raise DegenerateZ("z = 0: use the f1 branch instead")
    roots = _polynomial_roots(coeffs)
    floor = f2(x, z)
    scale = 1.0 + max(abs(x), abs(z))
    real = [
        float(r.real)
        for r in roots
        if abs(r.imag) <= 1e-7 * scale and r.real >= floor - 1e-9
    ]
    # collapse numerically coincident roots before counting
    real.sort()
    distinct: list[float] = []
    for r in real:
        if not distinct or r - distinct[-1] > 1e-9 * scale:
            distinct.append(r)
    if len(distinct) != 1:
        raise RootAmbiguity(
            f"expected one admissible root at (x={x}, z={z}), found {distinct}"
        )
    return distinct[0]


def _polynomial_roots(coeffs: list[float]) -> np.ndarray:
    """
    The complex roots of a real polynomial with nonzero leading coefficient, highest power
    first: the eigenvalues of its companion matrix, as numpy.roots takes them.
    """
    C = np.eye(len(coeffs) - 1, k=-1)
    C[0] = np.divide(coeffs[1:], -coeffs[0])
    return npl.eigvals(C)


def _convex_argmin(slope, lo: float, hi: float) -> float:
    """Minimizer in [lo, hi] of a convex function with right derivative `slope`; 64 halvings."""
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def w2_min_oracle(x_prime: float, z: float) -> float:
    """
    Independent boundary oracle: global minimum over real s of the convex
    w2(s) = s^2/4 + sqrt((x' - s)^2 + z^2). Its slope has the sign of s for
    |s| > 2, so the minimizer lies in [-2, 2] and is found by bisection.
    """
    def slope(s: float) -> float:
        r = math.hypot(x_prime - s, z)
        # at z = 0 the slope jumps by 2 at s = x'; take its right limit there
        return s / 2.0 + ((s - x_prime) / r if r > 0.0 else 1.0)

    s = _convex_argmin(slope, -2.0, 2.0)
    return s * s / 4.0 + math.hypot(x_prime - s, z)


def _m0_boundary(x_prime: float, z: float) -> float:
    """
    M0's lower boundary w_b(x', z) in l^2-scaled coordinates: f1(x') at z = 0, and in
    general min over t > 0 of x'^2 / (4 (1 + t)) + z^2 / (4 t) + t, whose slope exceeds
    1/2 at t = 1 + |x'| + |z|; bisection on [0, that] finds it.
    """
    a, b = x_prime * x_prime / 4.0, z * z / 4.0

    def slope(t: float) -> float:
        return 1.0 - a / ((1.0 + t) * (1.0 + t)) - b / (t * t)

    t = _convex_argmin(slope, 0.0, 1.0 + abs(x_prime) + abs(z))
    return a / (1.0 + t) + b / t + t


def m0_membership(frame: M0Frame, p: QubitDualPoint) -> bool:
    """
    Decide whether the operator with frame coordinates p lies in M0(M): with
    the coordinates divided by l^2 and x' = |(x, y)|, whether w is at least the
    boundary w_b(x', z) less 1e-9, a tolerance in w.
    """
    l2 = frame.l * frame.l
    return p.w / l2 >= _m0_boundary(math.hypot(p.x, p.y) / l2, p.z / l2) - 1e-9


def m0_extreme_points(frame: M0Frame, s: float, alpha: float) -> QubitDualPoint:
    """
    The extreme point l^2 (s (cos a sigma_x + sin a sigma_y) + s^2/4 I),
    with the l^2 factor already included in the returned coordinates.
    """
    s = float(s)
    if not -2.0 <= s <= 2.0:
        raise SOutOfRange(f"s = {s} outside [-2, 2]")
    l2 = frame.l * frame.l
    return QubitDualPoint(
        x=l2 * s * float(np.cos(alpha)),
        y=l2 * s * float(np.sin(alpha)),
        z=0.0,
        w=l2 * s * s / 4.0,
    )


def mfmin_qubit_membership(L0: np.ndarray, L1: np.ndarray) -> bool:
    """
    Exact membership of a qubit pair in the min-fidelity dual body:
    4 L1 = L0^{-1} + sqrt(L0) K sqrt(L0) must have
    K = 4 L0^{-1/2} L1 L0^{-1/2} - L0^{-2} inside M0(L0^{-1}). K is written in the
    eigenbasis of L0's eigenvalues lam_0 <= lam_1, where L0^{-1}'s frame is
    l, m = (1/lam_0 -+ 1/lam_1) / 2. A pair with no such frame, because L0 is PSD
    but not positive definite (no L0^{-1}) or M0Frame finds l degenerate (L0 ~ I), is
    decided by polar_membership's rule: exact qubit polar_min >= 1 - 1e-9. L0 must be
    PSD (else NotPsd); an indefinite L1 is not refused but gives False, as either
    indefinite operand does in mfmax_membership.
    """
    L0, L1 = _hermitian_pair(L0, L1, ("L0", "L1"))
    if L0.shape != (2, 2):
        raise DimensionMismatch("mfmin_qubit_membership is dim-2 only")
    S0 = _admitted(_operand_spectrum(L0), "L0")
    if S0.eigenvalues[0] > S0.tol:
        mu, V = 1.0 / S0.eigenvalues, S0.eigenvectors  # L0^{-1}'s eigenvalues descend
        with contextlib.suppress(DegenerateFrame):
            frame = M0Frame((mu[0] - mu[1]) / 2.0, (mu[0] + mu[1]) / 2.0, V)
            K = 4.0 * np.sqrt(np.outer(mu, mu)) * (V.conj().T @ L1 @ V) - np.diag(mu * mu)
            return m0_membership(frame, QubitDualPoint.from_operator(K))
    return _polar_min_qubit(S0, _operand_spectrum(L1)) >= _DUAL_BODY_FLOOR


def _qubit_invariants(S0: Spectrum, S1: Spectrum):
    """
    The five numbers that fix a dim-2 pair up to a joint unitary, in units of its norms:
    ((a1, a2), (b1, b2), s, p, q) with a = eigenvalues(L0) / ||L0|| and
    b = eigenvalues(L1) / ||L1||, ascending, s = ||L0|| ||L1||, and, from W = V0^dagger V1,
    p = |W00|^2 = |W11|^2 and q = |W01|^2 = |W10|^2, each read off its own entry (q formed
    as 1 - p would cancel); None if either operand is singular (or indefinite).
    """
    if S0.is_singular or S1.is_singular:
        return None
    n0, n1 = S0.norm, S1.norm
    (a1, a2), (b1, b2) = S0.eigenvalues.tolist(), S1.eigenvalues.tolist()
    w00, w01 = (S0.eigenvectors[:, 0].conj() @ S1.eigenvectors).tolist()
    return (a1 / n0, a2 / n0), (b1 / n1, b2 / n1), n0 * n1, abs(w00) ** 2, abs(w01) ** 2


def polar_max_qubit(L0: np.ndarray, L1: np.ndarray) -> float:
    """
    2 sqrt(lambda_min(L0 L1)) by the stable root lambda_min = 2 det / (t + sqrt(t^2 - 4 det)),
    with t = tr L0 L1, det = det L0 det L1 and t^2 - 4 det a sum of nonnegative terms, all
    read off the pair's invariants in units of ||L0|| ||L1||; 0 on singular inputs. Relative
    error <= 4 eps max kappa(L_k) against 40-digit references; on pairs L0 = L1^-1 / 4,
    where lambda_min(L0 L1) is double, it reached 2.4 eps kappa (1,000 pairs, kappa to 1e6).
    """
    _, _, S0, S1 = psd_pair(L0, L1, ("L0", "L1"))
    if S0.dim != 2:
        raise DimensionMismatch("polar_max_qubit is dim-2 only")
    return _polar_max_qubit(S0, S1)


def _polar_max_qubit(S0: Spectrum, S1: Spectrum) -> float:
    """polar_max_qubit of the dim-2 pair with spectra S0, S1."""
    inv = _qubit_invariants(S0, S1)
    if inv is None:
        return 0.0
    (a1, a2), (b1, b2), s, p, q = inv
    t = (a1 * b1 + a2 * b2) * p + (a1 * b2 + a2 * b1) * q
    det = a1 * a2 * b1 * b2
    gap2 = (p * p * (a1 * b1 - a2 * b2) ** 2 + q * q * (a1 * b2 - a2 * b1) ** 2
            + 2.0 * p * q * (b1 * b2 * (a2 - a1) ** 2 + a1 * a2 * (b2 - b1) ** 2))
    return 2.0 * math.sqrt(s * 2.0 * det / (t + math.sqrt(gap2)))


def polar_min_qubit(L0: np.ndarray, L1: np.ndarray) -> float:
    """
    Exact min-fidelity polar of a qubit pair, min over unit psi of
    2 sqrt(<psi|L0|psi> <psi|L1|psi>), from the pair's invariants (see _polar_min_qubit).
    Relative error <= 2 eps max kappa(L_k) against 40-digit references, on anti-aligned
    commuting, near-aligned and ill-conditioned pairs with kappa up to 1e8; near kappa = 1
    a few roundings dominate (4.4 eps on 1,500 near-scalar pairs). The paper's piecewise
    closed form for equal Bloch radii is one case.
    """
    _, _, S0, S1 = psd_pair(L0, L1, ("L0", "L1"))
    if S0.dim != 2:
        raise DimensionMismatch("polar_min_qubit is dim-2 only")
    return _polar_min_qubit(S0, S1)


def _polar_min_qubit(S0: Spectrum, S1: Spectrum) -> float:
    """
    polar_min_qubit of the dim-2 pair with spectra S0, S1; 0 if either is singular.

    In units of the norms, with A = L0 / ||L0||, B = L1 / ||L1||, 2 sqrt(ab) = min over x > 0
    of (x a + b) / sqrt(x) swaps the minimizations: the polar is sqrt(s) min_x g(x),
    g(x) = lambda_min(x A + B) / sqrt(x) = det(x A + B) / (sqrt(x) (mean + half-gap)). With
    c_k and r_k the mean and half-gap of each spectrum and u.v = r0 r1 (p - q) the product of
    the Bloch vectors, det(x A + B) = x^2 a1 a2 + 2 m x + b1 b2, m = c0 c1 - u.v written in
    positive terms, and the half-gap squared is (x r0 - r1)^2 + 4 x r0 r1 p. g's critical
    points are the roots of one real quartic; the minimum is taken over x = 1 and |x_k|. g
    is stationary there, so a root's error moves the value only to second order.
    """
    inv = _qubit_invariants(S0, S1)
    if inv is None:
        return 0.0
    (a1, a2), (b1, b2), s, p, q = inv
    c0, r0, c1, r1 = (a1 + a2) / 2, (a2 - a1) / 2, (b1 + b2) / 2, (b2 - b1) / 2
    if r0 * r0 * a1 * a2 < r1 * r1 * b1 * b2:
        # the polar is symmetric in the pair, and swapping it maps x to 1 / x: the quartic
        # is taken with roots of product <= 1, so that a near-scalar L0 gives it no huge root
        # whose companion matrix would blur a critical point's near-double root near x = 1
        (a1, a2), (b1, b2), (c0, r0), (c1, r1) = (b1, b2), (a1, a2), (c1, r1), (c0, r0)
    if r0 == 0.0 or r1 == 0.0:
        # a scalar operand: the product is least on the other's lower eigenvector
        return 2.0 * math.sqrt(s * a1 * b1)
    uv = r0 * r1 * (p - q)
    m = 0.5 * (a1 * (b2 * p + b1 * q) + a2 * (b2 * q + b1 * p))

    def g(x: float) -> float:
        half_gap = math.sqrt((x * r0 - r1) ** 2 + 4.0 * x * r0 * r1 * p)
        return (x * x * a1 * a2 + 2.0 * m * x + b1 * b2) / (math.sqrt(x) * (x * c0 + c1 + half_gap))

    roots = _polynomial_roots([
        r0 * r0 * a1 * a2,
        2.0 * c0 * (c0 * uv - c1 * r0 * r0),
        c0 * c0 * r1 * r1 - 4.0 * c0 * c1 * uv + c1 * c1 * r0 * r0 + 2.0 * r0 * r0 * r1 * r1,
        2.0 * c1 * (c1 * uv - c0 * r1 * r1),
        r1 * r1 * b1 * b2,
    ])
    return math.sqrt(s) * min(g(x) for x in (1.0, *np.abs(roots).tolist()) if x > 0.0)


def _polar_half_qubit(S0: Spectrum, S1: Spectrum) -> float:
    """
    The half polar rho(S_L0 o S_L1)^(-1/2) of the dim-2 pair with spectra S0, S1; 0 if either
    is singular. With the eigenvectors' phases chosen so that W = V0^dagger V1 is real, the
    composed map on Hermitian operators splits into i(E12 - E21), eigenvalue
    1 / ((a1 + a2)(b1 + b2)) in units of 1 / s, and a 3 x 3 block A A^T on
    (E11, E22, (E12 + E21) / sqrt 2): A = diag(h1) R diag(h0), h0 = (2 a1, 2 a2, a1 + a2)^(-1/2)
    and h1 the same for b, with R the matrix of H -> W^T H W there. The map preserves the PSD
    cone and commutes with complex conjugation, so rho has a real symmetric PSD eigenvector
    (Perron): rho is the block's top eigenvalue, and the first part never exceeds it.
    """
    inv = _qubit_invariants(S0, S1)
    if inv is None:
        return 0.0
    (a1, a2), (b1, b2), s, p, q = inv
    t = math.sqrt(2.0 * p * q)
    x0, y0, z0 = (2.0 * a1) ** -0.5, (2.0 * a2) ** -0.5, (a1 + a2) ** -0.5
    x1, y1, z1 = (2.0 * b1) ** -0.5, (2.0 * b2) ** -0.5, (b1 + b2) ** -0.5
    # diag(h1) R diag(h0) entry by entry, as floats: nine products cost less than three arrays
    A = np.array([[x1 * p * x0, x1 * q * y0, -x1 * t * z0],
                  [y1 * q * x0, y1 * p * y0, y1 * t * z0],
                  [z1 * t * x0, -z1 * t * y0, z1 * (p - q) * z0]])
    return math.sqrt(s / float(npl.eigvalsh(A @ A.T)[-1]))


def convertibility_necessary(
    L0: np.ndarray, L1: np.ndarray, L0p: np.ndarray, L1p: np.ndarray
) -> bool:
    """
    Necessary conditions for a unital CP map sending (L0, L1) to (L0p, L1p):
    both polars must not decrease, traces are preserved, the operator norm
    of the difference must not increase, and a rank-1 source forces a
    rank-1 target.
    """
    P, Q = psd_pair(L0, L1, ("L0", "L1")), psd_pair(L0p, L1p, ("L0p", "L1p"))
    if P.Xs.dim != 2 or Q.Xs.dim != 2:
        raise DimensionMismatch("convertibility_necessary is dim-2 only")

    def exceeds(a: float, b: float) -> bool:  # by 1e-9 of the larger, at every scale
        return a > b and not math.isclose(a, b, rel_tol=1e-9)

    t0, t1, t0p, t1p = (float(np.trace(L).real) for L in (P.X, P.Y, Q.X, Q.Y))
    if (exceeds(_polar_max_qubit(P.Xs, P.Ys), _polar_max_qubit(Q.Xs, Q.Ys))
            or exceeds(_polar_min_qubit(P.Xs, P.Ys), _polar_min_qubit(Q.Xs, Q.Ys))
            or not (math.isclose(t0, t0p, rel_tol=1e-9) and math.isclose(t1, t1p, rel_tol=1e-9))
            or exceeds(spectrum(Q.X - Q.Y).norm, spectrum(P.X - P.Y).norm)):
        return False
    r0, r1, r0p, r1p = (S.support().dim for S in (P.Xs, P.Ys, Q.Xs, Q.Ys))
    return not (min(r0, r1) == 1 and min(r0p, r1p) != 1)
