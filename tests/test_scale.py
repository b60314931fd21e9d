"""No verdict depends on the units of the input.

Every fidelity and polar is homogeneous, F(aX, bY) = sqrt(ab) F(X, Y), so each
value at s (X, Y) is s times its value at (X, Y), and a certificate valid at
(X, Y) is valid at (a X, b Y): every tolerance is relative to the operands' scale.
"""

import json

import numpy as np
import pytest

import fidlab
from fidlab import certify
from fidlab.certify import duality_certificate
from fidlab.channels import random_pd, rng_for
from fidlab.cli import main
from fidlab.errors import DegenerateFrame, NegativeEntry
from fidlab.fidelity import _optimizers, classical_fidelity
from fidlab.polar import polar_classical
from fidlab.qubit_geom import M0Frame, convertibility_necessary
from fidlab.superop import positive_fixed_point

SCALES = [1e-100, 1e-12, 1e-10, 1e12, 1e100]
KINDS = ("max", "min", "half")
QUANTITIES = [f"{q}_{k}" for q in ("fidelity", "polar") for k in KINDS]


def _pair(dim):
    # largest |entry| 1, so every s (X, Y) lies in the admitted range [1e-100, 1e100]
    rng = rng_for(90, dim)
    return tuple(H / np.abs(H).max() for H in (random_pd(dim, rng), random_pd(dim, rng)))


def _quantities(X, Y):
    values = {name: getattr(fidlab, name)(X, Y) for name in QUANTITIES}
    if X.shape[0] == 2:
        values.update({name: getattr(fidlab, name)(X, Y)
                       for name in ("polar_max_qubit", "polar_min_qubit")})
    return values


@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_each_fidelity_and_polar_scales_with_its_operands(dim, s):
    X, Y = _pair(dim)
    unit = _quantities(X, Y)
    for name, value in _quantities(s * X, s * Y).items():
        assert abs(value - s * unit[name]) <= 1e-9 * s * unit[name], name


@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_certificates_are_valid_at_every_scale(dim, s):
    X, Y = _pair(dim)
    for kind in KINDS:
        assert duality_certificate(kind, s * X, s * Y).is_valid, kind


@pytest.mark.parametrize("a", [1e4, 1e8])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_certificates_are_valid_on_operands_of_unequal_scale(dim, a):
    X, Y = _pair(dim)
    for kind in KINDS:
        assert duality_certificate(kind, a * X, Y / a).is_valid, kind


@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_compute_reports_scaled_values(dim, s, tmp_path, capsys):
    X, Y = _pair(dim)
    unit = _quantities(X, Y)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps([
        {"dim": dim, "entries": [[[z.real, z.imag] for z in row] for row in (s * H).tolist()]}
        for H in (X, Y)]))
    assert main(["compute", str(path), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    for name in QUANTITIES:
        assert abs(out[name] - s * unit[name]) <= 1e-9 * s * unit[name], name
    assert all(c["valid"] for c in out["certificates"].values())


def test_certificate_refuses_a_halved_primal_optimizer_on_small_operands(monkeypatch):
    # a 50 % gap is 5e-9 in absolute terms at 1e-8 (X, Y); the gap is judged
    # relative to the primal value, not against an absolute floor
    def halved(*args):
        C, pair, T = _optimizers(*args)
        return 0.5 * C, pair, T

    monkeypatch.setattr(certify, "_optimizers", halved)
    rng = rng_for(74, 3)
    X, Y = random_pd(3, rng), random_pd(3, rng)
    assert not duality_certificate("max", 1e-8 * X, 1e-8 * Y).is_valid


def test_small_operators_keep_their_support():
    eye = np.eye(3, dtype=complex)
    assert np.allclose(fidlab.pinv(1e-11 * eye), 1e11 * eye, rtol=1e-14, atol=0.0)
    assert np.allclose(fidlab.support_projector(1e-11 * eye), eye, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("a", [1e-12, 1.0, 1e12])
def test_qubit_min_membership_does_not_depend_on_the_split_of_units(a):
    # (a L0, L1 / a) has the polar of (L0, L1), so the same membership: M0Frame judges
    # the l of L0^{-1}'s frame against its m, never against an absolute floor
    for t in range(10):
        rng = rng_for(92, t)
        L0, L1 = random_pd(2, rng), random_pd(2, rng)
        p = fidlab.polar_min(L0, L1)
        for c, member in ((0.99, False), (1.01, True)):
            assert fidlab.mfmin_qubit_membership(a * c * L0 / p, c * L1 / (a * p)) == member


@pytest.mark.parametrize("s", SCALES)
def test_frame_degeneracy_is_judged_against_m(s):
    assert M0Frame(l=s, m=0.5 * s, rotation=np.eye(2)).l == s
    assert M0Frame(l=s, m=0.0, rotation=np.eye(2)).l == s
    with pytest.raises(DegenerateFrame):
        M0Frame(l=1e-11 * s, m=s, rotation=np.eye(2))


@pytest.mark.parametrize("l", [1e-11, 1e11])
def test_boundary_samples_scale_with_l_squared(l, tmp_path):
    paths = [tmp_path / "unit.csv", tmp_path / "scaled.csv"]
    for value, path in zip((1.0, l), paths):
        assert main(["boundary", "--l", str(value), "--m", "0", "--n-samples", "9",
                     "--out", str(path)]) == 0
    unit, scaled = (np.loadtxt(path, delimiter=",", skiprows=1) for path in paths)
    assert np.allclose(scaled[:, 2:], l * l * unit[:, 2:], rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("s", [1e-99, 1e-12, 1e-10, 1e12, 1e99])
def test_convertibility_verdicts_do_not_depend_on_units(s):
    # a depolarizing image of a pair passes the necessary conditions, the reverse
    # map raises both polars and fails them, and so does a change of trace; every
    # operand's largest |entry| is in [0.5, 2], so each s keeps it in the admitted range
    eye = np.eye(2)
    for t in range(5):
        rng = rng_for(93, t)
        L0, L1 = (L / np.abs(L).max() for L in (random_pd(2, rng), random_pd(2, rng)))
        L0p, L1p = (0.7 * L + 0.15 * np.trace(L).real * eye for L in (L0, L1))
        for source, target, verdict in (((L0, L1), (L0p, L1p), True),
                                        ((L0p, L1p), (L0, L1), False)):
            assert convertibility_necessary(*(s * L for L in source + target)) == verdict
    assert not convertibility_necessary(2 * s * eye, 2 * s * eye, s * eye, s * eye)
    assert convertibility_necessary(s * eye, s * eye, s * eye, s * eye)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_positive_fixed_point_scales_with_its_operands(dim):
    # S_L is homogeneous of degree -1 in L, so at s (L0, L1) the fixed point's alpha is
    # alpha / s^2 and its unit-trace A is unchanged: the stop is relative to alpha
    L0, L1 = _pair(dim)
    A, alpha = positive_fixed_point(L0, L1)
    for s in SCALES:
        A_s, alpha_s = positive_fixed_point(s * L0, s * L1)
        assert abs(alpha_s * s * s - alpha) <= 1e-9 * alpha, s
        assert np.abs(A_s - A).max() <= 1e-9, s


@pytest.mark.parametrize("s", SCALES)
def test_classical_quantities_scale_with_their_weights(s):
    # both are 1-homogeneous in (p, q), and the round-off clamp of a negative entry is
    # relative to its vector's largest |entry|: -1e-3 max is refused at every scale
    p, q = np.array([0.5, 0.3, 0.2]), np.array([0.1, 0.6, 0.3])
    for f in (classical_fidelity, polar_classical):
        assert abs(f(s * p, s * q) - s * f(p, q)) <= 1e-12 * s * f(p, q)
        for bad in ((s * np.r_[p, -1e-3 * p.max()], s * np.r_[q, 0.1]),
                    (s * np.r_[p, 0.1], s * np.r_[q, -1e-3 * q.max()])):
            with pytest.raises(NegativeEntry):
                f(*bad)
