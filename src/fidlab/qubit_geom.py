# src/fidlab/qubit_geom.py
#
# Exact dim-2 geometry: the convex body M0(M) with its quartic discriminant
# boundary, the induced membership test for the min-fidelity dual body,
# closed forms for both qubit polars, and the necessary conditions for
# unital convertibility of dual pairs.

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .errors import (
    DegenerateFrame,
    DegenerateZ,
    DimensionMismatch,
    RootAmbiguity,
    SOutOfRange,
)
from .linalg_core import (Spectrum, _hermitian_pair, as_square, hermitianize, psd_pair,
                          psd_spectrum, spectrum)

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

    def to_operator(self) -> np.ndarray:
        return (
            self.x * SIGMA_X + self.y * SIGMA_Y + self.z * SIGMA_Z
            + self.w * np.eye(2, dtype=complex)
        )

    @staticmethod
    def from_operator(H: np.ndarray) -> "QubitDualPoint":
        H = hermitianize(as_square(H))
        if H.shape != (2, 2):
            raise DimensionMismatch("QubitDualPoint needs a 2x2 operator")
        w, (x, y, z) = _bloch_split(H)
        return QubitDualPoint(x=float(x), y=float(y), z=float(z), w=w)


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
        if abs(self.l) <= FRAME_TOL:
            raise DegenerateFrame("frame parameter l vanishes")


def frame_from_operator(M: np.ndarray) -> M0Frame:
    """Diagonalize a Hermitian qubit M into the form l sigma_z + m I, l > 0."""
    M = as_square(M)
    if M.shape != (2, 2):
        raise DimensionMismatch("frame_from_operator needs a 2x2 operator")
    return _frame(spectrum(M))


def _frame(sp: Spectrum) -> M0Frame:
    w, V = sp.eigenvalues, sp.eigenvectors
    # eigenvalues ascend; put the larger eigenvalue on sigma_z's +1 axis
    U = np.column_stack([V[:, 1], V[:, 0]])
    l = float((w[1] - w[0]) / 2)
    m = float((w[1] + w[0]) / 2)
    return M0Frame(l=l, m=m, rotation=U)


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
    x2 = float(x) ** 2
    z2 = float(z) ** 2
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
    """The quartic-in-w boundary polynomial, evaluated as printed."""
    c4, c3, c2, c1, c0 = _quartic(x, z)
    w = float(w)
    return ((c4 * w + c3) * w + c2) * w * w + c1 * w + c0


def unique_root_w(x: float, z: float) -> float:
    """
    The unique real root of D(x, z, .) in [f2(x, z), infinity), via the
    companion matrix of the quartic. Raises RootAmbiguity if filtering does
    not isolate exactly one root.
    """
    if abs(z) <= 1e-12:
        raise DegenerateZ("z = 0: use the f1 branch instead")
    roots = np.roots(_quartic(x, z))
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


def m0_membership(frame: M0Frame, p: QubitDualPoint) -> bool:
    """
    Decide whether the operator with frame coordinates p lies in M0(M).
    The boundary conditions apply to the coordinates divided by l^2.
    """
    l2 = frame.l * frame.l
    x = p.x / l2
    y = p.y / l2
    z = p.z / l2
    w = p.w / l2
    x_prime = float(np.hypot(x, y))
    if abs(z) <= 1e-12:
        return w >= f1(x_prime) - 1e-9
    return (w >= f2(x_prime, z) - 1e-9) and (
        discriminant_D(x_prime, z, w) >= -1e-7
    )


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
    K = 4 L0^{-1/2} L1 L0^{-1/2} - L0^{-2} inside M0(L0^{-1}).
    L0 proportional to I falls back to the commuting test L1 >= (1/4) L0^{-1}.
    An L0 that is PSD but not positive definite has no L0^{-1}; its pair is
    decided by polar_membership's rule, exact qubit polar_min >= 1 - 1e-9.
    """
    L0, L1 = _hermitian_pair(L0, L1, ("L0", "L1"))
    if L0.shape != (2, 2):
        raise DimensionMismatch("mfmin_qubit_membership is dim-2 only")
    S0 = psd_spectrum(L0, "L0")
    if S0.eigenvalues[0] <= S0.tol:
        return _polar_min_qubit(L0, L1, S0, spectrum(L1)) >= _DUAL_BODY_FLOOR
    # L0^{-1}, with eigenvalues mu ascending
    Minv = Spectrum(1.0 / S0.eigenvalues[::-1], S0.eigenvectors[:, ::-1])
    M = Minv.reconstruct()
    mu = Minv.eigenvalues
    if (mu.max() - mu.min()) / 2.0 <= FRAME_TOL * (1.0 + mu.max()):
        return spectrum(L1 - 0.25 * M).is_psd
    L0_inv_h = S0.inv_sqrt()
    K = hermitianize(4.0 * L0_inv_h @ L1 @ L0_inv_h - M @ M)
    frame = _frame(Minv)
    U = frame.rotation
    K_rot = hermitianize(U.conj().T @ K @ U)
    return m0_membership(frame, QubitDualPoint.from_operator(K_rot))


def polar_max_qubit(L0: np.ndarray, L1: np.ndarray) -> float:
    """
    Closed form for the max-fidelity polar of a qubit pair:
    2 sqrt( (tr L0 L1 - sqrt((tr L0 L1)^2 - 4 det L0 det L1)) / 2 ).
    """
    L0, L1, S0, S1 = psd_pair(L0, L1, ("L0", "L1"))
    if S0.dim != 2:
        raise DimensionMismatch("polar_max_qubit is dim-2 only")
    t = float(np.trace(L0 @ L1).real)
    d = float(np.prod(S0.eigenvalues) * np.prod(S1.eigenvalues))
    disc = max(t * t - 4.0 * d, 0.0)
    lam_min = (t - np.sqrt(disc)) / 2.0
    return 2.0 * float(np.sqrt(max(lam_min, 0.0)))


def _bloch_split(L: np.ndarray) -> tuple[float, np.ndarray]:
    """Trace part c and Bloch vector u with L = c I + u . sigma, off a Hermitian L's entries."""
    a, b, d = L[0, 0].real, L[0, 1], L[1, 1].real
    return float((a + d) / 2), np.array([b.real, -b.imag, (a - d) / 2])


def polar_min_qubit(L0: np.ndarray, L1: np.ndarray) -> float:
    """
    Exact min-fidelity polar of a qubit pair: the minimum of
    (tr L0 rho)(tr L1 rho) over pure states is attained on the circle
    spanned by the two traceless parts, where the product is a degree-2
    trigonometric polynomial, and is read off its exact critical angles
    (the roots of a quartic). This covers the paper's piecewise closed form
    for equal Bloch radii as one case.
    """
    L0, L1, S0, S1 = psd_pair(L0, L1, ("L0", "L1"))
    if S0.dim != 2:
        raise DimensionMismatch("polar_min_qubit is dim-2 only")
    return _polar_min_qubit(L0, L1, S0, S1)


def _polar_min_qubit(L0: np.ndarray, L1: np.ndarray, S0: Spectrum, S1: Spectrum) -> float:
    """polar_min_qubit of an admitted dim-2 pair, given its Hermitian parts and spectra."""
    if S0.is_singular or S1.is_singular:
        return 0.0
    c0, u = _bloch_split(L0)
    c1, v = _bloch_split(L1)
    return 2.0 * float(np.sqrt(max(_circle_min(c0, u, c1, v), 0.0)))


def _circle_min(c0: float, u: np.ndarray, c1: float, v: np.ndarray) -> float:
    """
    Minimize (c0 + u.n)(c1 + v.n) over unit Bloch vectors n. The minimum
    lies on the great circle n = cos(theta) e1 + sin(theta) e2 through u and
    v, where with z = e^{i theta} each factor is c + beta z + conj(beta) / z,
    beta = (a - i b) / 2, and the product is sum_{|k| <= 2} F_k z^k. Its
    critical angles are the arguments of the roots of the quartic
    sum_k k F_k z^(k+2); the minimum is taken over them and theta = 0.
    """
    nu = npl.norm(u)
    nv = npl.norm(v)
    # each Bloch vector is negligible relative to its own trace part, whatever the pair's scale
    if nu < 1e-15 * c0 and nv < 1e-15 * c1:
        return c0 * c1
    e1 = u / nu if nu >= nv else v / nv
    other, c_other = (v, c1) if nu >= nv else (u, c0)
    perp = other - (other @ e1) * e1
    if npl.norm(perp) > 1e-14 * c_other:
        e2 = perp / npl.norm(perp)
    else:
        # collinear traceless parts: any orthogonal direction is neutral
        trial = np.eye(3)[int(np.argmin(np.abs(e1)))]
        perp = trial - (trial @ e1) * e1
        e2 = perp / npl.norm(perp)
    a0, b0 = float(u @ e1), float(u @ e2)
    a1, b1 = float(v @ e1), float(v @ e2)
    beta0, beta1 = complex(a0, -b0) / 2, complex(a1, -b1) / 2
    F2, F1 = beta0 * beta1, c0 * beta1 + c1 * beta0
    roots = np.roots([2 * F2, F1, 0.0, -F1.conjugate(), -2 * F2.conjugate()])
    theta = np.r_[0.0, np.angle(roots)]
    ct, st = np.cos(theta), np.sin(theta)
    g = np.maximum(c0 + a0 * ct + b0 * st, 0.0) * np.maximum(c1 + a1 * ct + b1 * st, 0.0)
    return float(g.min())


def convertibility_necessary(
    L0: np.ndarray, L1: np.ndarray, L0p: np.ndarray, L1p: np.ndarray
) -> bool:
    """
    Necessary conditions for a unital CP map sending (L0, L1) to (L0p, L1p):
    both polars must not decrease, traces are preserved, the operator norm
    of the difference must not increase, and a rank-1 source forces a
    rank-1 target.
    """
    mats = [hermitianize(as_square(L)) for L in (L0, L1, L0p, L1p)]
    for L in mats:
        if L.shape != (2, 2):
            raise DimensionMismatch("convertibility_necessary is dim-2 only")
    L0, L1, L0p, L1p = mats
    if polar_max_qubit(L0, L1) > polar_max_qubit(L0p, L1p) + 1e-9:
        return False
    if polar_min_qubit(L0, L1) > polar_min_qubit(L0p, L1p) + 1e-9:
        return False
    if abs(np.trace(L0).real - np.trace(L0p).real) > 1e-9:
        return False
    if abs(np.trace(L1).real - np.trace(L1p).real) > 1e-9:
        return False
    if spectrum(L0 - L1).norm < spectrum(L0p - L1p).norm - 1e-9:
        return False
    r0, r1, r0p, r1p = (spectrum(L).support().dim for L in mats)
    if min(r0, r1) == 1 and min(r0p, r1p) != 1:
        return False
    return True
