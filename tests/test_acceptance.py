"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line (run pytest with -s to stream
them; they also appear in captured output on failure).
"""

import sys
import time

import numpy as np
import numpy.linalg as npl
import pytest

from fidlab.certify import duality_certificate, mfmax_membership
from fidlab.channels import random_pd, rng_for
from fidlab.fidelity import (
    classical_fidelity,
    dual_optimizers,
    fidelity,
    fidelity_min,
    fidelity_max,
    optimal_measurement,
    optimal_reverse_test,
)
from fidlab.linalg_core import hermitianize, psd_sqrt, spectrum
from fidlab.polar import polar, polar_classical, polar_half, polar_max, polar_min
from fidlab.qubit_geom import (
    SIGMA_X,
    SIGMA_Z,
    M0Frame,
    QubitDualPoint,
    mfmin_qubit_membership,
    m0_membership,
    polar_max_qubit,
    polar_min_qubit,
    unique_root_w,
    w2_min_oracle,
)
from fidlab.superop import lyapunov_solve, positive_fixed_point
from fidlab.verify import run_suite

I2 = np.eye(2, dtype=complex)
KINDS = ("max", "min", "half")


def _report(n, label, ok):
    print(f"\n[criterion {n:02d}] {label}: {'PASS' if ok else 'FAIL'}",
          file=sys.stderr, flush=True)
    assert ok, f"criterion {n} ({label}) failed"


def test_criterion_01_sandwich():
    t0 = time.time()
    rep = run_suite("sandwich", dims=(2, 3, 4, 5), trials=200, seed=42)
    elapsed = time.time() - t0
    _report(1, "fidelity sandwich, 200 pairs x dims 2-5, < 10 s",
            rep.passed and elapsed < 10.0)


def test_criterion_02_monotonicity():
    t0 = time.time()
    rep = run_suite("monotonicity", dims=(2, 3, 4, 5), trials=200, seed=42)
    elapsed = time.time() - t0
    _report(2, "CPTP / adjoint-unital monotonicity, < 30 s",
            rep.passed and elapsed < 30.0)


def test_criterion_03_duality_certificates():
    t0 = time.time()
    ok = True
    for dim in (2, 3):
        for t in range(100):
            rng = rng_for(42, dim, t)
            X = random_pd(dim, rng)
            Y = random_pd(dim, rng)
            for kind in ("max", "min"):
                cert = duality_certificate(kind, X, Y)
                ok &= cert.is_valid and cert.gap < 1e-7
            pair = dual_optimizers("half", X, Y)
            obj = float((np.trace(pair.first @ X) + np.trace(pair.second @ Y)).real)
            ok &= abs(obj - fidelity("half", X, Y)) <= 1e-8 * (1 + obj)
    elapsed = time.time() - t0
    _report(3, "duality certificates gap < 1e-7, half identity, < 20 s",
            ok and elapsed < 20.0)


def test_criterion_04_dual_optimizer_identities():
    ok = True
    for t in range(100):
        dim = 2 + t % 2
        rng = rng_for(43, t)
        X = random_pd(dim, rng)
        Y = random_pd(dim, rng)
        pm = dual_optimizers("max", X, Y)
        ok &= npl.norm((2 * pm.first) @ (2 * pm.second) - np.eye(dim)) <= 1e-8 * dim
        ph = dual_optimizers("half", X, Y)
        sX, sY = psd_sqrt(X), psd_sqrt(Y)
        ok &= npl.norm(sX - lyapunov_solve(ph.first, sY)) <= 1e-8 * (1 + npl.norm(sX))
    _report(4, "(2L0*)(2L1*) = I and sqrt(X) = S_L0*(sqrt(Y))", ok)


def _polar_max_bisection(L0, L1):
    lo, hi = 1e-12, 4.0 * (1.0 + npl.norm(L0, 2) + npl.norm(L1, 2))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mfmax_membership(L0 / mid, L1 / mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_05_polar_closed_forms_vs_oracles():
    ok = True
    for t in range(100):
        dim = 2 + t % 2
        rng = rng_for(44, t)
        L0 = random_pd(dim, rng)
        L1 = random_pd(dim, rng)
        ok &= abs(polar_max(L0, L1) - _polar_max_bisection(L0, L1)) <= 1e-7
        _, alpha = positive_fixed_point(L0, L1)
        ok &= abs(polar_half(L0, L1) ** -2 - alpha) <= 1e-7 * (1 + alpha)
    _report(5, "polar_max vs block-PSD bisection; polar_half vs fixed point", ok)


def test_criterion_06_normalization_and_classical_reduction():
    ok = True
    for dim in (2, 3, 4, 5):
        for t in range(100):
            rng = rng_for(45, dim, t)
            l0 = rng.random(dim) + 0.05
            l1 = rng.random(dim) + 0.05
            D0 = np.diag(l0).astype(complex)
            D1 = np.diag(l1).astype(complex)
            pc = polar_classical(l0, l1)
            fc = classical_fidelity(l0, l1)
            for kind in KINDS:
                ok &= abs(polar(kind, D0, D1) - pc) <= 1e-7 * (1 + pc)
                ok &= abs(fidelity(kind, D0, D1) - fc) <= 1e-9 * (1 + fc)
    _report(6, "polar normalization 1e-7 and classical reduction 1e-9", ok)


def test_criterion_07_operational_characterizations():
    ok = True
    for t in range(10):
        dim = 2 + t % 2
        rng = rng_for(46, t)
        X = random_pd(dim, rng)
        X = X / np.trace(X).real
        Y = random_pd(dim, rng)
        Y = Y / np.trace(Y).real
        fmax = fidelity_max(X, Y)
        M = optimal_measurement(X, Y)
        p = np.array([np.trace(X @ E).real for E in M.elements])
        q = np.array([np.trace(Y @ E).real for E in M.elements])
        ok &= abs(classical_fidelity(p, q) - fmax) <= 1e-7
        from fidlab.channels import random_povm

        for k in range(50):
            R = random_povm(dim, dim + 1, seed=1000 * t + k)
            p = np.array([np.trace(X @ E).real for E in R.elements])
            q = np.array([np.trace(Y @ E).real for E in R.elements])
            ok &= classical_fidelity(p, q) >= fmax - 1e-8
        rt = optimal_reverse_test(X, Y)
        ok &= abs(classical_fidelity(rt.p, rt.q) - fidelity_min(X, Y)) <= 1e-7
        ok &= npl.norm(sum(p * s for p, s in zip(rt.p, rt.states)) - X) <= 1e-8
        ok &= npl.norm(sum(q * s for q, s in zip(rt.q, rt.states)) - Y) <= 1e-8
    _report(7, "optimal measurement / POVM bound / reverse test", ok)


def test_criterion_08_qubit_geometry_oracles():
    t0 = time.time()
    ok = True
    frame = M0Frame(l=1.0, m=0.0, rotation=I2.copy())
    checked = 0
    t = 0
    while checked < 1000:
        rng = rng_for(47, t)
        t += 1
        x, y = rng.normal(0, 1.5, 2)
        z = float(rng.normal(0, 1.2))
        if abs(z) <= 1e-6:
            continue
        wline = w2_min_oracle(float(np.hypot(x, y)), z)
        w = wline + float(rng.uniform(-1.0, 1.0))
        if abs(w - wline) <= 1e-7:
            continue
        checked += 1
        got = m0_membership(frame, QubitDualPoint(x=x, y=y, z=z, w=w))
        ok &= got == (w >= wline)
    for x in np.linspace(-3, 3, 50):
        for z in np.linspace(0.05, 3, 50):
            ok &= abs(unique_root_w(float(x), float(z))
                      - w2_min_oracle(float(x), float(z))) <= 1e-6
    for t in range(500):
        rng = rng_for(48, t)
        L0 = random_pd(2, rng)
        L1 = random_pd(2, rng)
        s = polar_min(L0, L1) * float(rng.uniform(0.9, 1.1))
        v = polar_min(L0 / s, L1 / s)
        if abs(v - 1.0) <= 1e-6:
            continue
        ok &= mfmin_qubit_membership(L0 / s, L1 / s) == (v >= 1.0)
    elapsed = time.time() - t0
    _report(8, "qubit geometry oracle equivalences, < 60 s",
            ok and elapsed < 60.0)


def test_criterion_09_qubit_closed_forms():
    from fidlab.polar import _polar_min_bracket

    ok = True
    for t in range(500):
        rng = rng_for(49, t)
        L0 = random_pd(2, rng)
        L1 = random_pd(2, rng)
        ok &= abs(polar_max_qubit(L0, L1) - polar_max(L0, L1)) <= 1e-6
        bracket = _polar_min_bracket(spectrum(L0), spectrum(L1))
        ok &= abs(polar_min_qubit(L0, L1) - bracket[1]) <= 1e-6
    ok &= abs(polar_max_qubit(I2, I2) - 2.0) <= 1e-9
    ok &= abs(polar_min_qubit(I2 + 0.6 * SIGMA_Z, I2 - 0.6 * SIGMA_Z) - 1.6) <= 1e-9
    ok &= abs(polar_min_qubit(I2 + 0.6 * SIGMA_X, I2 + 0.6 * SIGMA_X) - 0.8) <= 1e-9
    _report(9, "qubit closed forms vs general routines + worked values", ok)


def test_criterion_10_errata():
    rep = run_suite("errata", seed=1)
    one = np.array([[1.0]], dtype=complex)
    ok = rep.passed
    ok &= abs(polar_half(one, one) - 2.0) <= 1e-9
    ok &= abs(polar_max_qubit(I2, I2) - 2.0) <= 1e-9
    _report(10, "errata resolutions: polar_half(1,1) = 2, polar_max_qubit(I,I) = 2", ok)


def test_criterion_11_degenerate_support():
    plus = np.full((2, 2), 0.5, dtype=complex)
    zero = np.diag([1.0, 0.0]).astype(complex)
    ok = abs(fidelity_min(plus, zero)) <= 1e-12
    rank_def = np.diag([1.0, 0.0]).astype(complex)
    for kind in KINDS:
        ok &= polar(kind, rank_def, I2) == 0.0
    # continuity: polar_min shrinks monotonically to 0 along a rank-deficient limit
    rng = rng_for(50)
    L0 = random_pd(2, rng)
    base = np.diag([1.0, 0.0]).astype(complex)
    eps_grid = [0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 1e-3, 1e-4]
    vals = [polar_min(L0, base + e * I2) for e in eps_grid]
    ok &= all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
    ok &= vals[-1] <= 0.05
    _report(11, "degenerate supports: Schur reduction, zero polars, continuity", ok)
