import numpy as np
import numpy.linalg as npl
import pytest

from fidlab.channels import random_pd, rng_for
from fidlab.errors import DegenerateFrame, DegenerateZ, NotPsd, RootAmbiguity, SOutOfRange
from fidlab.linalg_core import hermitianize, spectrum
from fidlab.polar import _polar_min_bracket, polar_membership
from fidlab.qubit_geom import (
    _m0_boundary,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    M0Frame,
    QubitDualPoint,
    convertibility_necessary,
    discriminant_D,
    f1,
    f2,
    frame_from_operator,
    m0_extreme_points,
    m0_membership,
    mfmin_qubit_membership,
    polar_max_qubit,
    polar_min_qubit,
    unique_root_w,
    w2_min_oracle,
)

I2 = np.eye(2, dtype=complex)
FRAME = M0Frame(l=1.0, m=0.0, rotation=I2.copy())


def _pd_inverse(H):
    w, V = npl.eigh(hermitianize(H))
    return hermitianize((V * (1.0 / w)) @ V.conj().T)


def test_f1_values():
    assert f1(3) == pytest.approx(2.0)
    assert f1(1) == pytest.approx(0.25)
    assert f1(2) == pytest.approx(1.0)
    assert f1(-2) == pytest.approx(1.0)


def test_f2_values():
    assert f2(0, 1) == pytest.approx(0.25)
    assert f2(3, 4) == pytest.approx(4.0)


def test_discriminant_frozen_values():
    assert discriminant_D(0, 1, 1) == pytest.approx(0.0, abs=1e-12)
    assert discriminant_D(0, 1, 2) == pytest.approx(507.0, abs=1e-9)


def test_unique_root_values():
    assert unique_root_w(0, 1) == pytest.approx(1.0, abs=1e-9)
    assert unique_root_w(0, 0.3) == pytest.approx(0.3, abs=1e-9)
    assert unique_root_w(1, 1) == pytest.approx(w2_min_oracle(1, 1), abs=1e-6)


@pytest.mark.parametrize("x, z, w", [(1.0, 1e80, 1.0), (np.nan, 1.0, 1.0), (1.0, 1.0, np.inf),
                                     (1e200, 1.0, 1.0), (1.0, 1.0, 1e100)],
                         ids=["z-power-overflows", "x-nan", "w-inf", "x-square-overflows",
                              "value-overflows"])
def test_discriminant_refuses_non_finite_values(x, z, w):
    with pytest.raises(RootAmbiguity, match="is not finite"):
        discriminant_D(x, z, w)


def test_unique_root_rejects_z_zero():
    with pytest.raises(DegenerateZ):
        unique_root_w(1.0, 0.0)


@pytest.mark.parametrize("x, z", [(np.nan, 1.0), (1.0, np.nan), (1.0, np.inf),
                                  (-np.inf, 1.0), (np.inf, 0.0), (1e200, 1.0), (1.0, 1e80)],
                         ids=["x-nan", "z-nan", "z-inf", "x-minus-inf", "x-inf-z-zero",
                              "x-square-overflows", "z-power-overflows"])
def test_unique_root_refuses_non_finite_coefficients(x, z):
    with pytest.raises(RootAmbiguity, match="non-finite coefficient"):
        unique_root_w(x, z)


@pytest.mark.parametrize("z", [1e-3, -1e-3, 3.0])
def test_unique_root_within_its_stated_domain(z):
    # the docstring's domain |x| <= 4, 1e-3 <= |z| <= 3, at its edges
    for x in np.linspace(-4.0, 4.0, 801):
        assert unique_root_w(x, z) == pytest.approx(w2_min_oracle(x, z), abs=6e-8, rel=0)


def test_w2_oracle_values():
    assert w2_min_oracle(1, 0) == pytest.approx(0.25, abs=1e-9)
    assert w2_min_oracle(3, 0) == pytest.approx(2.0, abs=1e-9)
    assert w2_min_oracle(0, 1) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("x_prime", [-2.5, -0.7, 0.0, 1.3, 4.0])
@pytest.mark.parametrize("z", [0.0, 1e-8, 0.4, 2.0])
def test_w2_min_oracle_is_the_minimum(x_prime, z):
    # no sample of the convex w2 lies below the oracle, and one comes within
    # the grid's resolution of it
    s = np.linspace(-6.0, 6.0, 120001)
    w2 = s * s / 4 + np.hypot(x_prime - s, z)
    got = w2_min_oracle(x_prime, z)
    assert got <= w2.min() + 1e-14
    assert got >= w2.min() - 1e-8


def test_m0_membership_boundary_points():
    assert m0_membership(FRAME, QubitDualPoint(x=1, y=0, z=0, w=0.25))
    assert not m0_membership(FRAME, QubitDualPoint(x=0, y=0, z=1, w=0.999))
    assert m0_membership(FRAME, QubitDualPoint(x=0, y=0, z=1, w=1.0))


def test_m0_boundary_matches_the_oracle():
    # w_b(x', z), the minimum over t > 0 that membership decides by, is the same
    # boundary as the independent minimum over s of w2_min_oracle, and f1 at z = 0
    rng = rng_for(95)
    for _ in range(2000):
        x_prime = float(rng.uniform(0.0, 4.0))
        z = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-10.0, np.log10(3.0)))
        assert _m0_boundary(x_prime, z) == pytest.approx(
            w2_min_oracle(x_prime, z), rel=1e-12, abs=0)
    for x_prime in np.linspace(0.0, 4.0, 41):
        assert _m0_boundary(x_prime, 0.0) == pytest.approx(f1(x_prime), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("z", [1e-5, 1e-4, 1e-3])
def test_m0_membership_refuses_points_between_f2_and_the_boundary(z):
    # at small |z| and x' < 2 the boundary lies about |z| above f2; a point a tenth
    # of that gap below the boundary is outside M0, one 1e-10 below it is inside
    for x_prime in (0.5, 1.0, 1.9):
        top = w2_min_oracle(x_prime, z)
        gap = top - f2(x_prime, z)
        assert gap > 1e-7
        assert not m0_membership(FRAME, QubitDualPoint(x=x_prime, y=0, z=z, w=top - 0.1 * gap))
        assert m0_membership(FRAME, QubitDualPoint(x=x_prime, y=0, z=z, w=top - 1e-10))


def test_m0_extreme_points():
    origin = m0_extreme_points(FRAME, 0.0, 0.7)
    assert (origin.x, origin.y, origin.z, origin.w) == (0.0, 0.0, 0.0, 0.0)
    p = m0_extreme_points(FRAME, 2.0, 0.0)
    assert (p.x, p.y, p.z, p.w) == pytest.approx((2.0, 0.0, 0.0, 1.0))
    with pytest.raises(SOutOfRange):
        m0_extreme_points(FRAME, 3.0, 0.0)


def test_frame_degeneracy():
    with pytest.raises(DegenerateFrame):
        M0Frame(l=0.0, m=1.0, rotation=I2.copy())


@pytest.mark.parametrize("l, m", [(np.nan, 0.0), (np.inf, 0.0), (-np.inf, 0.0),
                                  (1.0, np.nan), (1.0, np.inf), (1e200, 0.0)],
                         ids=["l-nan", "l-inf", "l-minus-inf", "m-nan", "m-inf",
                              "l-square-overflows"])
def test_frame_rejects_non_finite_parameters(l, m):
    # a non-finite frame would give non-finite extreme points that membership accepts
    with pytest.raises(DegenerateFrame, match="must be finite"):
        M0Frame(l=l, m=m, rotation=I2.copy())


def test_frame_from_operator():
    fr = frame_from_operator(2.0 * SIGMA_Z + 0.5 * I2)
    assert fr.l == pytest.approx(2.0)
    assert fr.m == pytest.approx(0.5)
    M = fr.rotation @ (fr.l * SIGMA_Z + fr.m * I2) @ fr.rotation.conj().T
    assert np.allclose(M, 2.0 * SIGMA_Z + 0.5 * I2, atol=1e-12)


def test_mfmin_membership_extreme():
    rng = rng_for(40)
    L0 = random_pd(2, rng)
    L1 = 0.25 * _pd_inverse(L0)
    assert mfmin_qubit_membership(L0, L1)
    assert not mfmin_qubit_membership(L0, L1 - 1e-3 * I2)


def _near_boundary_pair(t):
    """
    A qubit pair just outside the min-fidelity dual body: 4 L1 = L0^{-1} + sqrt(L0) K
    sqrt(L0) with K's l^2-scaled frame coordinates at x' in (0.2, 1.8), small |z| in
    (1e-5, 3e-4) and w 30-90% of the way from f2 up to the w2_min_oracle boundary.
    """
    rng = rng_for(3, t)
    L0 = random_pd(2, rng)
    S = spectrum(L0)
    mu, V = 1.0 / S.eigenvalues, S.eigenvectors
    l2 = ((mu[0] - mu[1]) / 2) ** 2
    x_prime = rng.uniform(0.2, 1.8)
    z = rng.uniform(1e-5, 3e-4) * rng.choice([-1.0, 1.0])
    a = rng.uniform(0.0, 2 * np.pi)
    lo, hi = f2(x_prime, z), w2_min_oracle(x_prime, z)
    w = lo + rng.uniform(0.3, 0.9) * (hi - lo)
    K = V @ (l2 * (x_prime * (np.cos(a) * SIGMA_X + np.sin(a) * SIGMA_Y)
                   + z * SIGMA_Z + w * I2)) @ V.conj().T
    sq = S.sqrt()
    return L0, hermitianize(S.pinv() + sq @ K @ sq) / 4


def test_mfmin_membership_agrees_with_the_polar_near_small_z_boundary():
    # K just below M0's boundary at small |z|: the polar rule and M0 both say outside
    for t in range(200):
        L0, L1 = _near_boundary_pair(t)
        assert not polar_membership("min", L0, L1)
        assert not mfmin_qubit_membership(L0, L1)


def test_mfmin_membership_commuting_fallback():
    assert mfmin_qubit_membership(2 * I2, I2)
    assert not mfmin_qubit_membership(I2 / 4, I2 / 4)


@pytest.mark.parametrize("eps", [1e-8, 1e-7, 1e-5])
def test_mfmin_membership_with_l0_proportional_to_i_follows_the_polar_rule(eps):
    # polar_min = 2 sqrt(1e-6 (1 - eps) / 4e-6) = sqrt(1 - eps), just outside the body;
    # L1 - L0^{-1}/4 = diag(-eps / 4e-6, ~1e8) sat inside an eigenvalue tolerance of 1e-2
    L0, L1 = 1e-6 * I2, np.diag([(1.0 - eps) / 4e-6, 1e8]).astype(complex)
    assert polar_min_qubit(L0, L1) == pytest.approx(np.sqrt(1.0 - eps), rel=1e-12)
    assert not mfmin_qubit_membership(L0, L1)
    assert mfmin_qubit_membership(L0, L1 / (1.0 - eps))


def test_mfmin_membership_on_a_singular_l0_is_false():
    # polar_min is 0 whenever L0 has a kernel, so no L1 puts the pair in the body
    assert not mfmin_qubit_membership(np.diag([1.0, 0.0]).astype(complex), 5 * I2)


# an indefinite L1 is not refused: the pair is outside the body, whether it is decided
# through the fallback at L0 ~ I or at a singular L0; only L0 is admitted as PSD
@pytest.mark.parametrize("L0, L1", [
    (I2, -I2),
    (I2, np.diag([5.0, -1e-3]).astype(complex)),
    (np.diag([1.0, 0.0]).astype(complex), np.diag([5.0, -1e-3]).astype(complex)),
], ids=["identity_minus_identity", "identity_indefinite", "singular_indefinite"])
def test_mfmin_membership_on_an_indefinite_l1_is_false(L0, L1):
    assert mfmin_qubit_membership(L0, L1) is False
    with pytest.raises(NotPsd):
        mfmin_qubit_membership(L1, L0)


def test_mfmin_membership_on_a_near_singular_l0_follows_the_polar_rule():
    # lambda_min(L0) in (2 eps ||L0||, 1e-10 (1 + ||L0||)]: too small for the
    # M0 frame, so the pair is decided as polar_membership("min") decides it
    eps = np.finfo(float).eps
    members = 0
    for t in range(200):
        rng = rng_for(61, t)
        U = npl.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        a = float(rng.uniform(0.5, 2.0))
        lam = a * 10 ** rng.uniform(np.log10(3 * eps), -10)
        L0 = U @ np.diag([lam, a]) @ U.conj().T
        S0 = spectrum(L0)
        assert 2 * eps * S0.norm < S0.eigenvalues[0] <= S0.tol
        L1 = random_pd(2, rng)
        # polar_min is homogeneous of degree 1/2 in L1: put the pair's polar near 1
        L1 = L1 * (float(rng.uniform(0.9, 1.1)) / polar_min_qubit(L0, L1)) ** 2
        got = mfmin_qubit_membership(L0, L1)
        assert got == polar_membership("min", L0, L1)
        members += got
    assert 0 < members < 200


def test_polar_max_qubit_values():
    assert polar_max_qubit(I2, I2) == pytest.approx(2.0, abs=1e-12)
    assert polar_max_qubit(I2 + 0.6 * SIGMA_Z, I2 - 0.6 * SIGMA_Z) == pytest.approx(
        1.6, abs=1e-9
    )


def test_polar_min_qubit_values():
    assert polar_min_qubit(I2 + 0.6 * SIGMA_Z, I2 - 0.6 * SIGMA_Z) == pytest.approx(
        1.6, abs=1e-9
    )
    assert polar_min_qubit(I2 + 0.6 * SIGMA_X, I2 + 0.6 * SIGMA_X) == pytest.approx(
        0.8, abs=1e-9
    )


def _assert_matches_bracket(L0, L1):
    upper = _polar_min_bracket(spectrum(L0), spectrum(L1))[1]
    assert polar_min_qubit(L0, L1) == pytest.approx(upper, rel=1e-9, abs=0)


def test_polar_min_qubit_matches_bracket_on_random_pairs():
    for trial in range(500):
        rng = rng_for(91, trial)
        _assert_matches_bracket(random_pd(2, rng), random_pd(2, rng))


def _bloch_operator(c, r, n):
    return c * (I2 + r * (n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z))


@pytest.mark.parametrize("case", ["equal_radii", "collinear", "anticollinear",
                                  "zero_first", "zero_second", "same"])
def test_polar_min_qubit_matches_bracket_on_special_pairs(case):
    for trial in range(20):
        rng = rng_for(92, trial)
        n, m = (x / npl.norm(x) for x in rng.standard_normal((2, 3)))
        (r0, r1), (c0, c1) = rng.uniform(0.05, 0.95, 2), rng.uniform(0.5, 2.0, 2)
        L0, L1 = {
            "equal_radii": (_bloch_operator(c0, r0, n), _bloch_operator(c1, r0, m)),
            "collinear": (_bloch_operator(c0, r0, n), _bloch_operator(c1, r1, n)),
            "anticollinear": (_bloch_operator(c0, r0, n), _bloch_operator(c1, r1, -n)),
            "zero_first": (c0 * I2, _bloch_operator(c1, r1, m)),
            "zero_second": (_bloch_operator(c0, r0, n), c1 * I2),
            "same": (_bloch_operator(c0, r0, n),) * 2,
        }[case]
        _assert_matches_bracket(L0, L1)


def _equal_radii_reference(L0, L1):
    """
    The paper's piecewise closed form for a qubit pair of equal Bloch radii r:
    scaled to trace 2 the pair is I + a sigma_x +- b sigma_z, r^2 = a^2 + b^2, and
    the polar is 2 sqrt(c0 c1) times sqrt((1 - r^2)(1 - a^2 / r^2)) for
    r^2 >= a, 1 - a for r^2 < a, and 1 for r = 0.
    """
    c0, c1 = np.trace(L0).real / 2, np.trace(L1).real / 2
    un, vn = (np.array([np.trace(L @ P).real / 2 for P in (SIGMA_X, SIGMA_Y, SIGMA_Z)]) / c
              for L, c in ((L0, c0), (L1, c1)))
    scale, r2, a = np.sqrt(c0 * c1), un @ un, npl.norm(un + vn) / 2
    if r2 == 0.0:
        return 2.0 * scale
    if r2 >= a:
        return 2.0 * scale * np.sqrt((1.0 - r2) * (1.0 - a * a / r2))
    return 2.0 * scale * (1.0 - a)


@pytest.mark.parametrize("scale", [1.0, 1e-20, 1e20])
@pytest.mark.parametrize("side", ["r2_at_least_a", "r2_below_a", "proportional_to_identity"])
def test_polar_min_qubit_equal_radii_matches_piecewise_form(side, scale):
    for trial in range(50):
        rng = rng_for(93, trial)
        n, p = npl.qr(rng.standard_normal((3, 2)))[0].T
        r, (c0, c1) = rng.uniform(0.05, 0.95), rng.uniform(0.5, 2.0, 2)
        # |un + vn| / 2 = r cos(theta / 2) for an angle theta between the Bloch vectors
        edge = 2.0 * np.arccos(r)
        theta = {"r2_at_least_a": rng.uniform(edge, np.pi),
                 "r2_below_a": rng.uniform(0.0, edge), "proportional_to_identity": 0.0}[side]
        r = 0.0 if side == "proportional_to_identity" else r
        m = np.cos(theta) * n + np.sin(theta) * p
        L0, L1 = scale * _bloch_operator(c0, r, n), scale * _bloch_operator(c1, r, m)
        reference = _equal_radii_reference(L0, L1)
        assert (r * r >= r * np.cos(theta / 2)) == (side != "r2_below_a")
        assert polar_min_qubit(L0, L1) == pytest.approx(reference, rel=1e-12, abs=0)


@pytest.mark.parametrize("scale", [1e-20, 1e20])
def test_polar_min_qubit_is_scale_free(scale):
    for trial in range(50):
        rng = rng_for(94, trial)
        L0, L1 = random_pd(2, rng), random_pd(2, rng)
        assert polar_min_qubit(scale * L0, scale * L1) == pytest.approx(
            scale * polar_min_qubit(L0, L1), rel=1e-12, abs=0)


def test_qubit_dual_point_roundtrip():
    p = QubitDualPoint(x=0.3, y=-0.2, z=0.7, w=1.1)
    q = QubitDualPoint.from_operator(p.to_operator())
    assert (q.x, q.y, q.z, q.w) == pytest.approx((p.x, p.y, p.z, p.w), abs=1e-12)


@pytest.mark.parametrize("coords", [(np.nan, 0, 0, 1), (0, 0, 0, np.inf), (0, -np.inf, 0, 1)],
                         ids=["x-nan", "w-inf", "y-minus-inf"])
def test_qubit_dual_point_refuses_non_finite_coordinates(coords):
    with pytest.raises(NotPsd, match="non-finite"):
        QubitDualPoint(*coords)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_qubit_dual_point_from_operator_refuses_non_finite_entries(bad):
    with pytest.raises(NotPsd, match="non-finite"):
        QubitDualPoint.from_operator(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_convertibility_identical_pairs():
    rng = rng_for(41)
    L0 = random_pd(2, rng)
    L1 = random_pd(2, rng)
    assert convertibility_necessary(L0, L1, L0, L1)


def test_convertibility_overlap_direction():
    # same trace and purity, larger overlap: polars drop, so conversion
    # toward larger tr L0 L1 is ruled out by the polar conditions
    r = 0.7
    a_lo, a_hi = 0.1, 0.6

    def pair(a):
        b = np.sqrt(r * r - a * a)
        return I2 + a * SIGMA_X + b * SIGMA_Z, I2 + a * SIGMA_X - b * SIGMA_Z

    src = pair(a_lo)
    dst = pair(a_hi)
    assert not convertibility_necessary(*src, *dst)


def test_convertibility_rank_one_source():
    rank1 = np.array([[2.0, 0.0], [0.0, 0.0]], dtype=complex)
    full0 = np.diag([1.5, 0.5]).astype(complex)
    full1 = np.diag([0.5, 0.5]).astype(complex)
    assert not convertibility_necessary(rank1, np.diag([1.0, 0.0]).astype(complex),
                                        full0, full1)
