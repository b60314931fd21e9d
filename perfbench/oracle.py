"""Independent correctness checks, run outside the timed region.

Nothing here imports fidlab: every reference is rebuilt from numpy and
scipy with a different algorithm from the one under test. Each check
returns a list of human-readable misses; an empty list means the op passed.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import scipy.linalg as sla

FIDELITY_TOL = 1e-7  # relative, on values of order one
SANDWICH_TOL = 1e-8
POLAR_TOL = 1e-6  # polar_min is an iterative minimum
BOUNDARY_GAP = 1e-6  # membership is only compared this far from polar == 1


def _herm(A: np.ndarray) -> np.ndarray:
    return (A + A.conj().T) / 2


def sqrt_psd(A: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(_herm(A))
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T


def fidelity_max_ref(X: np.ndarray, Y: np.ndarray) -> float:
    """Trace norm of sqrt(X) sqrt(Y)."""
    return float(np.sum(np.linalg.svd(sqrt_psd(X) @ sqrt_psd(Y), compute_uv=False)))


def fidelity_half_ref(X: np.ndarray, Y: np.ndarray) -> float:
    """tr sqrtm(X) sqrtm(Y) with scipy's Schur-based square root."""
    with warnings.catch_warnings():
        # rank-deficient operands are expected; the tolerance judges accuracy
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        return float(np.trace(sla.sqrtm(X) @ sla.sqrtm(Y)).real)


def fidelity_min_ref(X: np.ndarray, Y: np.ndarray) -> float:
    """tr B sqrt(B^-1 X') in the eigenbasis of Y, B the support block of Y.

    X' is the Schur complement of X onto supp Y (X itself when Y is
    positive definite); the square root is scipy's on a non-Hermitian
    matrix, not an eigendecomposition.
    """
    w, V = np.linalg.eigh(_herm(Y))
    keep = w > 1e-12 * max(float(w[-1]), 1e-300)
    Xr = V.conj().T @ X @ V
    S, K = Xr[np.ix_(keep, keep)], Xr[np.ix_(keep, ~keep)]
    if K.size:
        S = S - K @ np.linalg.solve(Xr[np.ix_(~keep, ~keep)], K.conj().T)
    B = np.diag(w[keep])
    return float(np.trace(B @ sla.sqrtm(np.diag(1.0 / w[keep]) @ S)).real)


def _close(got: float, ref: float, tol: float) -> bool:
    return abs(got - ref) <= tol * (1.0 + abs(ref))


def check_states(X, Y, f_max: float, f_min: float, f_half: float) -> list[str]:
    misses = []
    tol = SANDWICH_TOL * (1.0 + abs(f_max))
    if not f_min <= f_half + tol:
        misses.append(f"sandwich: F_min {f_min!r} > F_half {f_half!r}")
    if not f_half <= f_max + tol:
        misses.append(f"sandwich: F_half {f_half!r} > F_max {f_max!r}")
    for name, got, ref in (("F_max", f_max, fidelity_max_ref(X, Y)),
                           ("F_half", f_half, fidelity_half_ref(X, Y)),
                           ("F_min", f_min, fidelity_min_ref(X, Y))):
        if not _close(got, ref, FIDELITY_TOL):
            misses.append(f"{name} {got!r} differs from reference {ref!r}")
    return misses


def polar_max_ref(L0: np.ndarray, L1: np.ndarray) -> float:
    """2 sqrt(lambda_min(L0 L1)) from the non-Hermitian product's spectrum."""
    lam = float(np.min(np.linalg.eigvals(L0 @ L1).real))
    return 2.0 * float(np.sqrt(max(lam, 0.0)))


def _polar_sandwich(p_max: float, p_half: float, p_min: float) -> list[str]:
    misses = []
    tol = POLAR_TOL * (1.0 + abs(p_min))
    if not p_max <= p_half + tol:
        misses.append(f"polar sandwich: polar_max {p_max!r} > polar_half {p_half!r}")
    if not p_half <= p_min + tol:
        misses.append(f"polar sandwich: polar_half {p_half!r} > polar_min {p_min!r}")
    return misses


def check_duals(L0, L1, p_max: float, p_half: float, p_min: float) -> list[str]:
    misses = _polar_sandwich(p_max, p_half, p_min)
    ref = polar_max_ref(L0, L1)
    if not _close(p_max, ref, FIDELITY_TOL):
        misses.append(f"polar_max {p_max!r} differs from reference {ref!r}")
    return misses


def _parse(rc: int, stdout: str, stderr: str) -> tuple[dict | None, list[str]]:
    if rc != 0:
        return None, [f"exit code {rc}: {stderr.strip()[:200]}"]
    try:
        return json.loads(stdout), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]


def check_report(dim: int, singular: bool, rc: int, stdout: str, stderr: str) -> list[str]:
    rep, misses = _parse(rc, stdout, stderr)
    if rep is None:
        return misses
    f = {k: rep[f"fidelity_{k}"] for k in ("max", "min", "half")}
    p = {k: rep[f"polar_{k}"] for k in ("max", "min", "half")}
    tol = SANDWICH_TOL * (1.0 + abs(f["max"]))
    if not (f["min"] <= f["half"] + tol and f["half"] <= f["max"] + tol):
        misses.append(f"fidelity sandwich fails: {f}")
    misses += _polar_sandwich(p["max"], p["half"], p["min"])
    for kind, cert in rep["certificates"].items():
        if "skipped" in cert:
            if not singular:
                misses.append(f"certificate[{kind}] skipped on a definite pair")
        elif not cert["valid"]:
            misses.append(f"certificate[{kind}] invalid: {cert}")
    if dim == 2:
        for kind, member in rep["dual_body_membership"].items():
            if isinstance(member, bool) and abs(p[kind] - 1.0) > BOUNDARY_GAP:
                if member != (p[kind] >= 1.0):
                    misses.append(f"membership[{kind}] {member} but polar {p[kind]!r}")
    return misses


def check_verify(rc: int, stdout: str, stderr: str) -> list[str]:
    rep, misses = _parse(rc, stdout, stderr)
    if rep is not None and rep.get("failures"):
        misses.append(f"{len(rep['failures'])} suite failure(s): {rep['failures'][:2]}")
    return misses


def rotated_kernel_pairs(seed: int, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pairs whose Y has a kernel in a random basis (see README, known defects)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 99]))
    pairs = []
    for _ in range(n):
        dim = int(rng.choice((2, 3, 4, 8)))
        rank = int(rng.integers(1, dim))
        G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        X = _herm(G @ G.conj().T) / dim
        H = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        pairs.append((X, _herm(H @ H.conj().T) / rank))
    return pairs
