import numpy as np
import numpy.linalg as npl
import pytest

from fidlab.channels import random_pd, rng_for
from fidlab.errors import DegenerateFrame, DegenerateZ, SOutOfRange
from fidlab.linalg_core import hermitianize, spectrum
from fidlab.polar import _polar_min_bracket
from fidlab.qubit_geom import (
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


def test_unique_root_rejects_z_zero():
    with pytest.raises(DegenerateZ):
        unique_root_w(1.0, 0.0)


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


def test_mfmin_membership_commuting_fallback():
    assert mfmin_qubit_membership(2 * I2, I2)
    assert not mfmin_qubit_membership(I2 / 4, I2 / 4)


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
