"""The qubit polars against 40-digit references of the same float pair.

Each reference is computed from the float matrices' entries, taken exactly, by a
route independent of the spectral invariants the library reads: lambda_min(L0 L1)
from the trace and determinant for max, and for min the product of the two Bloch
forms on the great circle through their Bloch vectors, minimized by Newton's method.
"""

import numpy as np
import numpy.linalg as npl
import pytest

from fidlab.channels import random_pd, rng_for
from fidlab.fidelity import dual_optimizers
from fidlab.linalg_core import hermitianize, spectrum
from fidlab.polar import _polar_min_bracket
from fidlab.qubit_geom import polar_max_qubit, polar_min_qubit

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp.clone()
mp.dps = 40
EPS = np.finfo(float).eps


def _kappa(*operators):
    return max(w[-1] / w[0] for w in map(npl.eigvalsh, operators))


def _rotation(rng):
    return npl.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]


def _operator(U, eigenvalues):
    return hermitianize((U * eigenvalues) @ U.conj().T)


def _mp_polar_max(L0, L1):
    """2 sqrt(lambda_min(L0 L1)) by the stable root of the trace and determinant, at 40 digits."""
    A, B = mp.matrix(L0.tolist()), mp.matrix(L1.tolist())
    t = mp.re(mp.fsum((A * B)[i, i] for i in range(2)))
    det = mp.re(mp.det(A) * mp.det(B))
    return 2 * mp.sqrt(2 * det / (t + mp.sqrt(t * t - 4 * det)))


def _mp_bloch(L):
    a, d = mp.mpf(float(L[0, 0].real)), mp.mpf(float(L[1, 1].real))
    b = complex(L[0, 1])
    return (a + d) / 2, [mp.mpf(b.real), -mp.mpf(b.imag), (a - d) / 2]


def _mp_polar_min(L0, L1):
    """
    min over unit Bloch vectors n of 2 sqrt((c0 + u.n)(c1 + v.n)), at 40 digits: on the
    great circle through u and v the product is g(t) = (c0 + |u| cos t)(c1 + a cos t + b sin t),
    and each of its critical angles, seeded by the float roots of the quartic in e^{it}, is
    refined by Newton's method on g'.
    """
    (c0, u), (c1, v) = _mp_bloch(L0), _mp_bloch(L1)
    nu = mp.sqrt(mp.fsum(x * x for x in u))
    if nu == 0:
        return 2 * mp.sqrt(c0 * (c1 - mp.sqrt(mp.fsum(x * x for x in v))))
    a = mp.fsum(x * y for x, y in zip(u, v)) / nu
    b = mp.sqrt(max(mp.fsum(x * x for x in v) - a * a, 0))

    def derivatives(t):
        c, s = mp.cos_sin(t)
        f0, d0 = c0 + nu * c, -nu * s
        f1, d1 = c1 + a * c + b * s, b * c - a * s
        return f0 * f1, d0 * f1 + f0 * d1, (c0 - f0) * f1 + 2 * d0 * d1 + f0 * (c1 - f1)

    beta0, beta1 = complex(nu) / 2, complex(a, -b) / 2
    F2, F1 = beta0 * beta1, float(c0) * beta1 + float(c1) * beta0
    seeds = np.angle(np.roots([2 * F2, F1, 0.0, -F1.conjugate(), -2 * F2.conjugate()]))
    values = []
    for t in map(mp.mpf, [0.0, *seeds]):
        for _ in range(4):
            _, d, dd = derivatives(t)
            if dd != 0:
                t -= d / dd
        values.append(derivatives(t)[0])
    return 2 * mp.sqrt(max(min(values), 0))


def _inverse_pairs(n):
    # L0 = L1^{-1} / 4: L0 L1 = I / 4, lambda_min is double and polar_max is 1
    for t in range(n):
        rng = rng_for(96, t)
        L1 = _operator(_rotation(rng), [1.0, 10.0 ** rng.uniform(0.0, 6.0)])
        yield hermitianize(npl.inv(L1)) / 4, L1


def _max_optimizer_pairs():
    # the max dual optimizers of rotated pairs with spectra geomspace(1, 1/kappa) * U(0.5, 2)
    for kappas in [(1e6, 1e4), (1e4, 1e6), (1e8, 1e4), (1e4, 1e8)]:
        for t in range(10):
            rng = rng_for(37, 2, t)
            X, Y = (_operator(_rotation(rng), np.geomspace(1.0, 1.0 / k, 2) * rng.uniform(0.5, 2.0, 2))
                    for k in kappas)
            pair = dual_optimizers("max", X, Y)
            yield pair.first, pair.second


@pytest.mark.parametrize("family", ["inverse", "max_optimizers"])
def test_polar_max_qubit_at_40_digits(family):
    # L0 L1 ~ I / 4 on these boundary pairs, where t^2 - 4 det taken as written cancels
    pairs = list(_inverse_pairs(60)) if family == "inverse" else list(_max_optimizer_pairs())
    for L0, L1 in pairs:
        ref = _mp_polar_max(L0, L1)
        assert abs(polar_max_qubit(L0, L1) - ref) <= 4 * EPS * _kappa(L0, L1) * ref


def _anti_aligned(rng):
    # commuting, with L1's larger eigenvalue on L0's smaller eigenvector
    U = _rotation(rng)
    k0, k1 = 10.0 ** rng.uniform(0.0, 8.0, 2)
    return _operator(U, [1.0 / k0, 1.0]), _operator(U, [1.0, 1.0 / k1]) * 10.0 ** rng.uniform(-2, 2)


def _near_aligned(rng):
    # L1's eigenbasis is L0's turned by exp(i angle H), angle in [1e-9, 1e-3], ||H|| = 1
    U = _rotation(rng)
    w, Q = npl.eigh(hermitianize(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))))
    angle = 10.0 ** rng.uniform(-9.0, -3.0)
    V = (Q * np.exp(1j * angle * w / np.abs(w).max())) @ Q.conj().T @ U
    k0, k1 = 10.0 ** rng.uniform(0.0, 8.0, 2)
    order = 1 if rng.uniform() < 0.5 else -1
    return _operator(U, [1.0 / k0, 1.0]), _operator(V, [1.0 / k1, 1.0][::order])


def _ill_conditioned(rng):
    return tuple(_operator(_rotation(rng), np.sort(10.0 ** rng.uniform(-8.0, 0.0, 2)))
                 for _ in range(2))


MIN_FAMILIES = {"anti_aligned": _anti_aligned, "near_aligned": _near_aligned,
                "ill_conditioned": _ill_conditioned}


@pytest.mark.parametrize("family", sorted(MIN_FAMILIES))
def test_polar_min_qubit_at_40_digits(family):
    for t in range(150):
        L0, L1 = MIN_FAMILIES[family](rng_for(95, sorted(MIN_FAMILIES).index(family), t))
        ref = _mp_polar_min(L0, L1)
        assert abs(polar_min_qubit(L0, L1) - ref) <= 2 * EPS * _kappa(L0, L1) * ref


def _near_scalar(rng, scale):
    gap = 10.0 ** rng.uniform(-16.0, -6.0)
    return _operator(_rotation(rng), [1.0, 1.0 + gap]) * scale


@pytest.mark.parametrize("other", ["near_scalar", "random"])
def test_polar_min_qubit_on_near_scalar_operands_lies_in_the_bracket(other):
    # a near-scalar operand makes the quartic's leading or trailing coefficient tiny; with
    # gap / mean in [1e-16, 1e-6] the value stays inside the bracket's ends, up to round-off
    for t in range(100):
        rng = rng_for(99, t)
        L0 = _near_scalar(rng, 10.0 ** rng.uniform(-3.0, 3.0))
        L1 = _near_scalar(rng, 1.0) if other == "near_scalar" else random_pd(2, rng)
        if t % 2:
            L0, L1 = L1, L0
        lower, upper = _polar_min_bracket(spectrum(L0), spectrum(L1))
        tol = 8 * EPS * _kappa(L0, L1) * upper
        assert lower - tol <= polar_min_qubit(L0, L1) <= upper + tol
