# src/fidlab/verify.py
#
# Seeded verification suites. Each suite draws its own cases from a
# splittable per-trial generator, so serial and parallel runs agree, and
# returns a Report whose failure list is empty exactly when every checked
# inequality holds at its stated tolerance.

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.linalg as npl

from .certify import block_psd, duality_certificate, mfmax_membership
from .channels import (
    KrausChannel,
    adjoint,
    apply,
    measurement_channel,
    preparation_channel,
    random_cptp,
    random_density,
    random_hermitian,
    random_pd,
    random_povm,
    random_psd,
    rng_for,
)
from .fidelity import (
    classical_fidelity,
    dual_optimizers,
    fidelity,
    fidelity_half,
    fidelity_max,
    fidelity_min,
    optimal_measurement,
    optimal_reverse_test,
    optimal_twist,
)
from .polar import (
    _polar_max,
    _polar_min_bracket,
    polar,
    polar_classical,
    polar_half,
    polar_max,
    polar_membership,
    polar_min,
    povm_lower_bound,
)
from .qubit_geom import (
    _m0_boundary,
    SIGMA_X,
    SIGMA_Z,
    M0Frame,
    QubitDualPoint,
    convertibility_necessary,
    m0_extreme_points,
    m0_membership,
    mfmin_qubit_membership,
    polar_max_qubit,
    polar_min_qubit,
    unique_root_w,
    w2_min_oracle,
)
from .superop import composed_lyapunov_spectrum, lyapunov_solve, positive_fixed_point
from .errors import UnknownSuite
from .linalg_core import hermitianize, pinv, psd_sqrt, spectrum

__all__ = ["Report", "run_suite", "SUITES"]


@dataclass
class Report:
    suite: str
    trials: int
    seed: int
    failures: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, case: str, quantity: str,
              expected, actual, tolerance) -> None:
        if not ok:
            self.failures.append(
                {
                    "case": case,
                    "quantity": quantity,
                    "expected": repr(expected),
                    "actual": repr(actual),
                    "tolerance": tolerance,
                }
            )

    def close(self, a: float, b: float, tol: float, case: str, quantity: str) -> None:
        self.check(abs(a - b) <= tol, case, quantity, b, a, tol)

    def ge(self, a: float, b: float, tol: float, case: str, quantity: str) -> None:
        self.check(a >= b - tol, case, quantity, f">= {b}", a, tol)

    def merge(self, other: "Report") -> None:
        self.failures.extend(other.failures)
        self.trials += other.trials


_KINDS = ("max", "min", "half")


def _direct_sum(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    da, db = A.shape[0], B.shape[0]
    out = np.zeros((da + db, da + db), dtype=complex)
    out[:da, :da] = A
    out[da:, da:] = B
    return out


def _rotated(eigenvalues: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """U diag(eigenvalues) U^dagger, U the unitary factor of a complex Gaussian's QR."""
    dim = len(eigenvalues)
    U = npl.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    return hermitianize((U * eigenvalues) @ U.conj().T)


def _cases(rep: Report, dims, trials: int):
    """(dim, t, rng, case) per trial of every dim, each counted on rep as it starts."""
    for dim in dims:
        for t in range(trials):
            rep.trials += 1
            yield dim, t, rng_for(rep.seed, dim, t), f"dim={dim} trial={t}"


def suite_fidelity_props(dims=(2, 3, 4, 5), trials=200, seed=42) -> Report:
    rep = Report(suite="fidelity-props", trials=0, seed=seed)
    for dim, t, rng, case in _cases(rep, dims, trials):
        X = random_psd(dim, rng)
        Y = random_psd(dim, rng)
        X2 = random_psd(dim, rng)
        Y2 = random_psd(dim, rng)
        for kind in _KINDS:
            f = fidelity(kind, X, Y)
            rep.close(fidelity(kind, Y, X), f, 1e-9 * (1 + f),
                      case, f"symmetry[{kind}]")
            lam, mu = 0.3, 2.7
            rep.close(fidelity(kind, lam * X, mu * Y),
                      np.sqrt(lam * mu) * f, 1e-9 * (1 + f),
                      case, f"strong-homogeneity[{kind}]")
            lam = 0.37
            f2 = fidelity(kind, X2, Y2)
            mixed = fidelity(kind, lam * X + (1 - lam) * X2,
                                lam * Y + (1 - lam) * Y2)
            rep.ge(mixed, lam * f + (1 - lam) * f2, 1e-8,
                   case, f"joint-concavity[{kind}]")
            rep.close(fidelity(kind, _direct_sum(X, X2), _direct_sum(Y, Y2)),
                      f + f2, 1e-9 * (1 + f + f2), case, f"additivity[{kind}]")
        p = rng.random(dim)
        q = rng.random(dim)
        fc = classical_fidelity(p, q)
        for kind in _KINDS:
            rep.close(fidelity(kind, np.diag(p).astype(complex),
                                  np.diag(q).astype(complex)),
                      fc, 1e-9 * (1 + fc), case, f"classical-reduction[{kind}]")
    return rep


def suite_sandwich(dims=(2, 3, 4, 5), trials=200, seed=42) -> Report:
    rep = Report(suite="sandwich", trials=0, seed=seed)
    for dim, t, rng, case in _cases(rep, dims, trials):
        X = random_psd(dim, rng)
        Y = random_psd(dim, rng)
        fmin = fidelity_min(X, Y)
        fhalf = fidelity_half(X, Y)
        fmax = fidelity_max(X, Y)
        rep.ge(fhalf, fmin, 1e-8, case, "F_min <= F_half")
        rep.ge(fmax, fhalf, 1e-8, case, "F_half <= F_max")
    return rep


def suite_monotonicity(dims=(2, 3, 4, 5), trials=200, seed=42) -> Report:
    rep = Report(suite="monotonicity", trials=0, seed=seed)
    for dim, t, rng, case in _cases(rep, dims, trials):
        chan = random_cptp(dim, dim, 2, int(rng.integers(2**31 - 1)))
        X = random_psd(dim, rng)
        Y = random_psd(dim, rng)
        LX, LY = apply(chan, X), apply(chan, Y)
        for kind in _KINDS:
            rep.ge(fidelity(kind, LX, LY), fidelity(kind, X, Y),
                   1e-8, case, f"cptp-monotone[{kind}]")
        adj = adjoint(chan)
        L0 = random_pd(dim, rng)
        L1 = random_pd(dim, rng)
        A0, A1 = apply(adj, L0), apply(adj, L1)
        for kind in _KINDS:
            rep.ge(polar(kind, A0, A1), polar(kind, L0, L1),
                   1e-8, case, f"unital-monotone[{kind}]")
    return rep


def suite_polar_props(dims=(2, 3, 4), trials=100, seed=42) -> Report:
    rep = Report(suite="polar-props", trials=0, seed=seed)
    for dim, t, rng, case in _cases(rep, dims, trials):
        L0 = random_pd(dim, rng)
        L1 = random_pd(dim, rng)
        X = random_psd(dim, rng)
        Y = random_psd(dim, rng)
        vals = {kind: polar(kind, L0, L1) for kind in _KINDS}
        for kind in _KINDS:
            # Holder: polar(L) * F(X, Y) <= tr(L0 X) + tr(L1 Y)
            rhs = float((np.trace(L0 @ X) + np.trace(L1 @ Y)).real)
            lhs = vals[kind] * fidelity(kind, X, Y)
            rep.check(lhs <= rhs + 1e-8, case, f"holder[{kind}]", f"<= {rhs}", lhs, 1e-8)
            t0, t1 = 0.3, 2.7
            rep.close(polar(kind, t0 * L0, t1 * L1),
                      np.sqrt(t0 * t1) * vals[kind],
                      1e-8 * (1 + vals[kind]), case, f"polar-homogeneity[{kind}]")
        rep.ge(vals["half"], vals["max"], 1e-6, case, "polar_max <= polar_half")
        rep.ge(vals["min"], vals["half"], 1e-6, case, "polar_half <= polar_min")
        # normalization on diagonal pairs
        l0 = rng.random(dim) + 0.05
        l1 = rng.random(dim) + 0.05
        pc = polar_classical(l0, l1)
        for kind in _KINDS:
            rep.close(polar(kind, np.diag(l0).astype(complex),
                               np.diag(l1).astype(complex)),
                      pc, 1e-7 * (1 + pc), case, f"polar-normalize[{kind}]")
        # direct-sum min rule
        d2 = 2
        M0 = random_pd(d2, rng)
        M1 = random_pd(d2, rng)
        for kind in _KINDS:
            v = polar(kind, _direct_sum(L0, M0), _direct_sum(L1, M1))
            expect = min(vals[kind], polar(kind, M0, M1))
            rep.close(v, expect, 1e-7 * (1 + expect), case,
                      f"direct-sum-min[{kind}]")
        # duality round trip through the derivative optimizers
        Xp = random_pd(dim, rng)
        Yp = random_pd(dim, rng)
        for kind in _KINDS:
            pair = dual_optimizers(kind, Xp, Yp)
            fv = fidelity(kind, Xp, Yp)
            dv = float((np.trace(pair.first @ Xp) + np.trace(pair.second @ Yp)).real)
            rep.close(dv, fv, 1e-8 * (1 + fv), case, f"roundtrip-value[{kind}]")
            rep.close(polar(kind, pair.first, pair.second), 1.0, 1e-6,
                      case, f"roundtrip-polar[{kind}]")
        # fixed-point consistency for the half polar, subsampled as the power iteration
        # is the suite's costly step; a random definite pair is irreducible almost surely
        if t % 10 == 0:
            _, alpha = positive_fixed_point(L0, L1)
            rep.close(vals["half"] ** -2, alpha, 1e-7 * (1 + alpha),
                      case, "fixed-point-alpha")
    return rep


def suite_duality(dims=(2, 3), trials=100, seed=42) -> Report:
    rep = Report(suite="duality", trials=0, seed=seed)
    for dim, t, rng, case in _cases(rep, dims, trials):
        X = random_pd(dim, rng)
        Y = random_pd(dim, rng)
        for kind in ("max", "min"):
            cert = duality_certificate(kind, X, Y)
            rep.check(cert.is_valid, case, f"certificate[{kind}]",
                      "valid", cert, 1e-7)
        half = duality_certificate("half", X, Y)
        rep.close(half.dual_value, fidelity_half(X, Y),
                  1e-8 * (1 + half.primal_value), case, "half-dual-value")
        pair = dual_optimizers("max", X, Y)
        rep.check(
            npl.norm((2 * pair.first) @ (2 * pair.second) - np.eye(dim))
            <= 1e-8 * dim,
            case, "inverse-identity", "I", None, 1e-8,
        )
        pair = dual_optimizers("half", X, Y)
        sX, sY = psd_sqrt(X), psd_sqrt(Y)
        rep.check(
            npl.norm(sX - lyapunov_solve(pair.first, sY)) <= 1e-7 * (1 + npl.norm(sX)),
            case, "sqrtX-lyapunov-identity", "sqrt(X)", None, 1e-7,
        )
        # block positivity: support/Schur criterion vs direct eigenvalues
        G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        K = G / max(npl.norm(G, 2), 1e-12)
        for scalefac in (0.9, 1.1):
            C = sX @ (scalefac * K) @ sY
            block = np.block([[X, C], [C.conj().T, Y]])
            direct = bool(npl.eigvalsh(hermitianize(block))[0] >= -1e-9 * (1 + npl.norm(block, 2)))
            got = block_psd(X, C, Y)
            rep.check(got == direct, case, f"block-psd-equivalence[{scalefac}]",
                      direct, got, 0)
        # membership invariances of the max body
        L0 = random_pd(dim, rng)
        ext = pinv(4 * L0)
        rep.check(mfmax_membership(L0, ext), case,
                  "extreme-point-member", True, False, 0)
        rep.check(not mfmax_membership(L0, ext - 1e-3 * np.eye(dim)),
                  case, "below-extreme-nonmember", False, True, 0)
        L1 = random_pd(dim, rng)
        # boundary-straddling scaling: membership iff polar_max >= 1, on the trial's pair and
        # on an ill-conditioned one (kappa <= 1e4, rotated operands) from its own stream
        ill_rng = rng_for(rep.seed, dim, t, 1)
        ill = tuple(_rotated(10.0 ** ill_rng.uniform(lo, lo + 4.0, dim), ill_rng)
                    for lo in (-4.0, 0.0))
        gap = 10.0 ** ill_rng.uniform(-8.0, -2.0) * ill_rng.choice([-1.0, 1.0])
        for (A0, A1), s, label in (
                ((L0, L1), polar_max(L0, L1) * float(rng.uniform(0.9, 1.1)), ""),
                (ill, polar_max(*ill) / (1.0 + gap), "[ill-conditioned]")):
            v = polar_max(A0 / s, A1 / s)
            if abs(v - 1) > 1e-8:
                rep.check(mfmax_membership(A0 / s, A1 / s) == (v >= 1),
                          case, "membership-vs-polar" + label, v >= 1, None, 1e-8)
        if mfmax_membership(L0, L1):
            M0 = random_psd(dim, rng)
            M1 = random_psd(dim, rng)
            rep.check(mfmax_membership(L0 + M0, L1 + M1), case,
                      "dilation-invariance", True, False, 0)
            for tt in (0.5, 2.0):
                rep.check(mfmax_membership(tt * L0, L1 / tt), case,
                          f"t-1/t[{tt}]", True, False, 0)
        # strict positivity of the min body
        sm = polar_min(L0, L1)
        if sm >= 1:
            rep.check(npl.eigvalsh(L0)[0] > 0 and npl.eigvalsh(L1)[0] > 0,
                      case, "min-body-strict-positivity", True, False, 0)
        # commutative slice
        l0 = rng.random(dim) + 0.05
        l1 = rng.random(dim) + 0.05
        member = bool(np.all(l1 >= 0.25 / l0 - 1e-12))
        for kind in _KINDS:
            got = polar_membership(kind, np.diag(l0).astype(complex),
                                      np.diag(l1).astype(complex))
            boundary = float(np.min(2 * np.sqrt(l0 * l1)))
            if abs(boundary - 1) > 1e-7:
                rep.check(got == member, case,
                          f"commutative-slice[{kind}]", member, got, 1e-7)
    return rep


def _twisted(Y: np.ndarray, A: np.ndarray) -> np.ndarray:
    """(I - iA) Y (I + iA)."""
    J = np.eye(Y.shape[0]) + 1j * A
    return hermitianize(J.conj().T @ Y @ J)


def _outcomes(meas: KrausChannel, X: np.ndarray) -> np.ndarray:
    """The outcome distribution of a measurement channel on X: the diagonal of its output."""
    return np.diag(apply(meas, X)).real


def suite_operational(dims=(2, 3), trials=50, seed=42) -> Report:
    rep = Report(suite="operational", trials=0, seed=seed)
    for dim, t, rng, case in _cases(rep, dims, trials):
        X = random_density(dim, rng, floor=0.05)
        Y = random_density(dim, rng, floor=0.05)
        fmax = fidelity_max(X, Y)
        fmin = fidelity_min(X, Y)
        # optimal measurement achieves F_max; every POVM stays above it
        meas = measurement_channel(optimal_measurement(X, Y))
        rep.close(classical_fidelity(_outcomes(meas, X), _outcomes(meas, Y)), fmax, 1e-7,
                  case, "optimal-measurement-value")
        meas = measurement_channel(random_povm(dim, dim + 1, int(rng.integers(2**31 - 1))))
        rep.ge(classical_fidelity(_outcomes(meas, X), _outcomes(meas, Y)), fmax, 1e-8,
               case, "measurement-bound")
        # optimal reverse test achieves F_min with exact reconstruction
        rt = optimal_reverse_test(X, Y)
        rep.close(classical_fidelity(rt.p, rt.q), fmin, 1e-7,
                  case, "reverse-test-value")
        prep = preparation_channel(rt.states)
        rep.check(npl.norm(apply(prep, np.diag(rt.p)) - X) <= 1e-8, case,
                  "reverse-test-reconstruct-X", "X", None, 1e-8)
        rep.check(npl.norm(apply(prep, np.diag(rt.q)) - Y) <= 1e-8, case,
                  "reverse-test-reconstruct-Y", "Y", None, 1e-8)
        # perturbed reverse tests never beat F_min of their own pair
        prep = preparation_channel([random_density(dim, rng) for _ in range(dim)])
        p = rng.random(dim)
        q = rng.random(dim)
        rep.check(
            classical_fidelity(p, q)
            <= fidelity_min(apply(prep, np.diag(p)), apply(prep, np.diag(q))) + 1e-8,
            case, "reverse-test-bound", None, None, 1e-8,
        )
        # measurement o preparation is the transpose of a stochastic map
        meas = measurement_channel(random_povm(dim, dim, int(rng.integers(2**31 - 1))))
        T = np.column_stack([_outcomes(meas, apply(prep, np.diag(e))) for e in np.eye(dim)])
        rep.check(np.max(np.abs(T.sum(axis=0) - 1.0)) <= 1e-10, case,
                  "stochastic-transpose", 1.0, T.sum(axis=0), 1e-10)
        # the optimal twist attains F_min through F_max; other twists stay above it
        A = optimal_twist(X, Y)
        rep.close(fidelity_max(X, _twisted(Y, A)), fmin, 1e-12 * (1 + fmin),
                  case, "twist-attains-min")
        # their own stream, so every other check of the trial keeps its inputs
        twist_rng = rng_for(seed, dim, t, 1)
        for scale in (0.01, 0.1, 1.0):
            H = A + scale * random_hermitian(dim, twist_rng)
            rep.ge(fidelity_max(X, _twisted(Y, H)), fmin, 1e-8, case, "twist-bound")
        # the POVM decomposition bounds polar_max closely from below, on its own pair
        dual_rng = rng_for(seed, dim, t, 2)
        L0, L1 = random_pd(dim, dual_rng), random_pd(dim, dual_rng)
        bound, pm = povm_lower_bound(L0, L1), polar_max(L0, L1)
        rep.check(bound <= pm + 1e-8, case, "povm-one-sided", f"<= {pm}", bound, 1e-8)
        rep.close(bound, pm, 1e-7 * (1 + pm), case, "povm-within-1e-7")
    return rep


def suite_qubit_geometry(dims=(2,), trials=500, seed=42) -> Report:
    rep = Report(suite="qubit-geometry", trials=0, seed=seed)
    frame = M0Frame(l=1.0, m=0.0, rotation=np.eye(2, dtype=complex))
    # membership vs the scalar minimization oracle
    for t in range(trials):
        rng = rng_for(seed, 1, t)
        x, y = rng.normal(0, 1.5, 2)
        if t % 7 == 1:
            # small |z|, where M0's boundary lies about |z| above f2: log-uniform
            # |z| in [1e-10, 1e-2], and a log-uniform distance in [3e-7, 1] from it
            z, dw = map(float, rng.choice([-1.0, 1.0], 2)
                        * 10.0 ** rng.uniform([-10.0, -6.5], [-2.0, 0.0]))
        else:
            z = 0.0 if t % 7 == 0 else float(rng.normal(0, 1.2))
            dw = float(rng.uniform(-1.0, 1.0))
        if abs(dw) <= 1e-7:
            continue
        rep.trials += 1
        w = w2_min_oracle(float(np.hypot(x, y)), z) + dw
        got = m0_membership(frame, QubitDualPoint(x=x, y=y, z=z, w=w))
        rep.check(got == (dw > 0), f"point {t}", "m0-vs-oracle", dw > 0, got, 1e-7)
    # quartic root vs oracle on a side x side grid (50 at the default 500 trials)
    side = max(2, math.isqrt(5 * trials))
    for x in np.linspace(-3, 3, side):
        for z in np.linspace(0.05, 3, side):
            rep.trials += 1
            rep.close(unique_root_w(float(x), float(z)),
                      w2_min_oracle(float(x), float(z)), 1e-6,
                      f"grid ({x:.2f},{z:.2f})", "unique-root-vs-oracle")
    # algebraic realization i[B, M] + B^2 always lands inside M0(M)
    for t in range(max(1, trials // 5)):
        rng = rng_for(seed, 2, t)
        l = float(rng.uniform(0.3, 2.0))
        m = float(rng.uniform(-1.0, 1.0))
        fr = M0Frame(l=l, m=m, rotation=np.eye(2, dtype=complex))
        Mop = l * SIGMA_Z + m * np.eye(2)
        B = random_hermitian(2, rng)
        point = QubitDualPoint.from_operator(1j * (B @ Mop - Mop @ B) + B @ B)
        rep.trials += 1
        rep.check(m0_membership(fr, point), f"commutator {t}",
                  "m0-2-membership", True, False, 0)
    # the boundary's t-parameterization, which membership decides by, against the quartic root
    for t in range(max(1, trials // 10)):
        rng = rng_for(seed, 3, t)
        xp = float(rng.uniform(0.1, 3.0))
        z = float(rng.uniform(0.05, 2.0))
        rep.trials += 1
        rep.close(_m0_boundary(xp, z), unique_root_w(xp, z), 1e-6, f"boundary {t}",
                  "m0-2-parameterization")
    # extreme points span a 3-dimensional affine set
    pts = [m0_extreme_points(frame, s, a)
           for s in np.linspace(-2, 2, 9) for a in np.linspace(0, 2 * np.pi, 7)]
    coords = np.array([[p.x, p.y, p.z, p.w] for p in pts])
    centered = coords - coords.mean(axis=0)
    rank = npl.matrix_rank(centered, tol=1e-9)
    rep.check(rank == 3, "extreme-points", "affine-dimension", 3, rank, 0)
    # scaled boundary pairs sit exactly on the half and max bodies
    for t in range(max(1, trials // 25)):
        rng = rng_for(seed, 4, t)
        L0 = random_pd(2, rng)
        L1 = random_pd(2, rng)
        h = polar_half(L0, L1)
        rep.trials += 1
        rep.close(polar_half(L0, L1 / (h * h)), 1.0, 1e-7,
                  f"sharp {t}", "half-body-boundary")
        rep.close(polar_max(L0, pinv(4 * L0)), 1.0, 1e-7,
                  f"sharp {t}", "max-body-extreme")
    # membership decision against the min polar on straddling pairs
    for t in range(trials):
        rng = rng_for(seed, 5, t)
        L0 = random_pd(2, rng)
        L1 = random_pd(2, rng)
        s = polar_min(L0, L1) * float(rng.uniform(0.9, 1.1))
        v = polar_min(L0 / s, L1 / s)
        if abs(v - 1.0) <= 1e-6:
            continue
        rep.trials += 1
        got = mfmin_qubit_membership(L0 / s, L1 / s)
        rep.check(got == (v >= 1.0), f"mfmin {t}", "membership-vs-polar-min",
                  v >= 1.0, got, 1e-6)
    # closed forms vs the general-dimension routines
    for t in range(trials):
        rng = rng_for(seed, 6, t)
        L0 = random_psd(2, rng)
        L1 = random_psd(2, rng)
        rep.trials += 1
        S0, S1 = spectrum(L0), spectrum(L1)
        rep.close(polar_max_qubit(L0, L1), _polar_max(S0, S1), 1e-10,
                  f"closed {t}", "polar-max-closed-form")
        bracket = _polar_min_bracket(S0, S1)
        rep.close(polar_min_qubit(L0, L1), bracket[1], 1e-6,
                  f"closed {t}", "polar-min-closed-form")
        gram = composed_lyapunov_spectrum(L0, L1).eigenvalues[-1] ** -0.5
        rep.close(polar_half(L0, L1), gram, 1e-12 * gram, f"closed {t}", "polar-half-closed-form")
    # worked values
    I2 = np.eye(2, dtype=complex)
    rep.close(polar_max_qubit(I2, I2), 2.0, 1e-9, "worked", "pm(I,I)")
    rep.close(polar_min_qubit(I2 + 0.6 * SIGMA_Z, I2 - 0.6 * SIGMA_Z),
              1.6, 1e-9, "worked", "pmin 1.6")
    rep.close(polar_min_qubit(I2 + 0.6 * SIGMA_X, I2 + 0.6 * SIGMA_X),
              0.8, 1e-9, "worked", "pmin 0.8")
    # with trace and purity fixed, both polars fall as the overlap grows
    r = 0.7
    a_grid = np.linspace(0.0, r - 1e-6, 25)
    overlaps, pmaxs, pmins = [], [], []
    for a in a_grid:
        b = np.sqrt(r * r - a * a)
        L0 = I2 + a * SIGMA_X + b * SIGMA_Z
        L1 = I2 + a * SIGMA_X - b * SIGMA_Z
        overlaps.append(float(np.trace(L0 @ L1).real))
        pmaxs.append(polar_max_qubit(L0, L1))
        pmins.append(polar_min_qubit(L0, L1))
    order = np.argsort(overlaps)
    for seq, name in ((np.array(pmaxs)[order], "polar_max"),
                      (np.array(pmins)[order], "polar_min")):
        rep.check(bool(np.all(np.diff(seq) <= 1e-9)), "overlap-family",
                  f"{name}-non-increasing", True, False, 1e-9)
    # convertibility necessary conditions
    rng = rng_for(seed, 8)
    L0 = random_pd(2, rng)
    L1 = random_pd(2, rng)
    rep.check(convertibility_necessary(L0, L1, L0, L1), "convert",
              "identical-pairs", True, False, 0)
    rank1 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    rep.check(not convertibility_necessary(rank1, L1, L0 + np.eye(2), L1 + np.eye(2)),
              "convert", "rank1-to-full-rank", False, True, 0)
    return rep


def suite_errata(dims=(2,), trials=1, seed=1) -> Report:
    rep = Report(suite="errata", trials=0, seed=seed)
    one = np.array([[1.0]], dtype=complex)
    I2 = np.eye(2, dtype=complex)
    rep.trials += 1
    rep.close(polar_half(one, one), 2.0, 1e-9, "scalar", "polar_half(1,1)=2")
    rep.close(polar_max_qubit(I2, I2), 2.0, 1e-9, "identity", "polar_max_qubit(I,I)=2")
    rep.close(polar_half(I2, I2), 2.0, 1e-9, "identity", "polar_half(I,I)=2")
    # both resolutions must respect the polar sandwich and normalization
    for t in range(50):
        rng = rng_for(seed, t)
        L0 = random_pd(2, rng)
        L1 = random_pd(2, rng)
        rep.trials += 1
        h = polar_half(L0, L1)
        rep.ge(h, polar_max(L0, L1), 1e-6, f"trial {t}", "sandwich-lower")
        rep.ge(polar_min(L0, L1), h, 1e-6, f"trial {t}", "sandwich-upper")
        l0 = rng.random(3) + 0.05
        l1 = rng.random(3) + 0.05
        rep.close(polar_half(np.diag(l0).astype(complex),
                                np.diag(l1).astype(complex)),
                  polar_classical(l0, l1), 1e-7, f"trial {t}", "normalization")
    return rep


SUITES = {
    "fidelity-props": suite_fidelity_props,
    "sandwich": suite_sandwich,
    "monotonicity": suite_monotonicity,
    "polar-props": suite_polar_props,
    "duality": suite_duality,
    "operational": suite_operational,
    "qubit-geometry": suite_qubit_geometry,
    "errata": suite_errata,
}


def run_suite(name: str, dims=None, trials=None, seed=42) -> Report:
    """Run one named suite (or 'all') with optional dims/trials overrides."""
    if name == "all":
        total = Report(suite="all", trials=0, seed=seed)
        for sub in SUITES.values():
            total.merge(_call(sub, dims, trials, seed))
        return total
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}")
    return _call(SUITES[name], dims, trials, seed)


def _call(fn, dims, trials, seed) -> Report:
    kwargs = {"seed": seed}
    if dims is not None:
        kwargs["dims"] = tuple(dims)
    if trials is not None:
        kwargs["trials"] = trials
    return fn(**kwargs)
