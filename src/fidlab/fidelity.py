# src/fidlab/fidelity.py
#
# The three quantum fidelities on PSD pairs, the classical fidelity,
# derivative-based dual optimizers, and the optimal-measurement /
# optimal-reverse-test constructions witnessing the operational forms.

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl
from scipy.optimize import minimize

from .channels import Povm, rng_for
from .errors import LengthMismatch, NegativeEntry
from .linalg_core import (
    OperatorPair,
    as_square,
    check_pd,
    check_psd,
    hermitianize,
    opnorm,
    pinv,
    psd_inv_sqrt,
    psd_sqrt,
    rank_tol,
    schur_reduce,
)
from .superop import lyapunov_solve

__all__ = [
    "classical_fidelity",
    "fidelity_max",
    "fidelity_min",
    "fidelity_half",
    "dual_optimizers",
    "optimal_measurement",
    "optimal_reverse_test",
    "fidelity_min_via_twist",
    "ReverseTest",
]

_CLAMP = 1e-12


def _weights(p, q) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=float).ravel()
    q = np.asarray(q, dtype=float).ravel()
    if p.shape != q.shape:
        raise LengthMismatch(f"lengths {p.size} and {q.size} differ")
    for v in (p, q):
        if v.size and v.min() < -_CLAMP:
            raise NegativeEntry(f"weight entry {v.min():.3e} is negative")
    return np.maximum(p, 0.0), np.maximum(q, 0.0)


def classical_fidelity(p, q) -> float:
    """Bhattacharyya overlap sum_i sqrt(p_i q_i) of two nonnegative vectors."""
    p, q = _weights(p, q)
    return float(np.sum(np.sqrt(p * q)))


def fidelity_max(X: np.ndarray, Y: np.ndarray) -> float:
    """tr sqrt( sqrt(Y) X sqrt(Y) ), evaluated on arbitrary PSD inputs."""
    X = hermitianize(as_square(X))
    Y = hermitianize(as_square(Y))
    check_psd(X, "X")
    check_psd(Y, "Y")
    sY = psd_sqrt(Y)
    return float(np.trace(psd_sqrt(sY @ X @ sY)).real)


def fidelity_min(X: np.ndarray, Y: np.ndarray) -> float:
    """
    tr Y sqrt( Y^{-1/2} X Y^{-1/2} ) with generalized inverses, after
    replacing X by its Schur-complement reduction onto supp Y whenever
    supp X is not contained in supp Y.
    """
    X = hermitianize(as_square(X))
    Y = hermitianize(as_square(Y))
    check_psd(X, "X")
    check_psd(Y, "Y")
    # rank, support and Y^{-1/2} all come from Y's own eigenvalues: deciding
    # rank on sqrt(Y) would lift round-off eps to sqrt(eps) > rank_tol
    w, V = npl.eigh(Y)
    keep = w > rank_tol(Y)
    Vs = V[:, keep]
    comp = np.eye(X.shape[0]) - Vs @ Vs.conj().T
    if opnorm(comp @ X @ comp) > rank_tol(X):
        X = schur_reduce(X, Y)
    iY = (Vs / np.sqrt(w[keep])) @ Vs.conj().T
    T = psd_sqrt(hermitianize(iY @ X @ iY))
    return float(np.trace(Y @ T).real)


def fidelity_half(X: np.ndarray, Y: np.ndarray) -> float:
    """tr X^{1/2} Y^{1/2}."""
    X = hermitianize(as_square(X))
    Y = hermitianize(as_square(Y))
    check_psd(X, "X")
    check_psd(Y, "Y")
    return float(np.trace(psd_sqrt(X) @ psd_sqrt(Y)).real)


def fidelity(kind: str, X: np.ndarray, Y: np.ndarray) -> float:
    """Dispatch by kind in {max, min, half}."""
    if kind == "max":
        return fidelity_max(X, Y)
    if kind == "min":
        return fidelity_min(X, Y)
    if kind == "half":
        return fidelity_half(X, Y)
    raise ValueError(f"unknown fidelity kind {kind!r}")


def dual_optimizers(kind: str, X: np.ndarray, Y: np.ndarray) -> OperatorPair:
    """
    The derivative dual pair (L0*, L1*) with tr(L0* X) + tr(L1* Y) = F(X, Y):

      max:  L0* = (1/2) Y^{1/2} (Y^{1/2} X Y^{1/2})^{-1/2} Y^{1/2}
      min:  L0* = Y^{-1/2} S_W(Y) Y^{-1/2},  W = sqrt(Y^{-1/2} X Y^{-1/2})
      half: L0* = S_{sqrt(X)}(sqrt(Y))

    with L1* given by swapping the roles of X and Y.
    """
    X = hermitianize(as_square(X))
    Y = hermitianize(as_square(Y))
    check_pd(X, "X")
    check_pd(Y, "Y")

    def one_side(A: np.ndarray, B: np.ndarray) -> np.ndarray:
        # the optimizer multiplying A, built from the pair (A, B)
        sB = psd_sqrt(B)
        if kind == "max":
            core = psd_inv_sqrt(hermitianize(sB @ A @ sB))
            return hermitianize(0.5 * sB @ core @ sB)
        if kind == "min":
            iB = psd_inv_sqrt(B)
            W = psd_sqrt(hermitianize(iB @ A @ iB))
            return hermitianize(iB @ lyapunov_solve(W, B) @ iB)
        if kind == "half":
            return lyapunov_solve(psd_sqrt(A), sB)
        raise ValueError(f"unknown fidelity kind {kind!r}")

    return OperatorPair(first=one_side(X, Y), second=one_side(Y, X))


def optimal_measurement(X: np.ndarray, Y: np.ndarray) -> Povm:
    """
    Projective measurement achieving F_max: the eigenbasis of
    Y^{-1/2} (Y^{1/2} X Y^{1/2})^{1/2} Y^{-1/2} (generalized inverses).
    """
    X = hermitianize(as_square(X))
    Y = hermitianize(as_square(Y))
    check_pd(X, "X")
    check_pd(Y, "Y")
    sY = psd_sqrt(Y)
    sY_pinv = pinv(sY)
    Q = hermitianize(sY_pinv @ psd_sqrt(sY @ X @ sY) @ sY_pinv)
    _, V = npl.eigh(Q)
    els = [np.outer(V[:, i], V[:, i].conj()) for i in range(V.shape[1])]
    return Povm(dim=X.shape[0], elements=els)


@dataclass(frozen=True)
class ReverseTest:
    """A preparation ensemble with two input weight vectors reproducing a pair."""

    states: list[np.ndarray]
    p: np.ndarray
    q: np.ndarray
    x: np.ndarray
    y: np.ndarray


def optimal_reverse_test(X: np.ndarray, Y: np.ndarray) -> ReverseTest:
    """
    Reverse test achieving F_min, built from the spectral projectors of
    T = sqrt( Y^{-1/2} X Y^{-1/2} ): states sqrt(Y) P_i sqrt(Y) / tr(Y P_i)
    with weights q_i = tr(Y P_i), p_i = t_i^2 tr(Y P_i).
    """
    X = hermitianize(as_square(X))
    Y = hermitianize(as_square(Y))
    check_pd(X, "X")
    check_pd(Y, "Y")
    sY = psd_sqrt(Y)
    sY_pinv = pinv(sY)
    T = psd_sqrt(hermitianize(sY_pinv @ X @ sY_pinv))
    w, V = npl.eigh(T)
    tol = rank_tol(T)
    # group coinciding eigenvalues into spectral projectors
    groups: list[list[int]] = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[groups[-1][0]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    states: list[np.ndarray] = []
    p: list[float] = []
    q: list[float] = []
    for idx in groups:
        P = V[:, idx] @ V[:, idx].conj().T
        t = float(np.mean(w[idx]))
        weight = float(np.trace(Y @ P).real)
        states.append(hermitianize(sY @ P @ sY) / weight)
        q.append(weight)
        p.append(t * t * weight)
    return ReverseTest(states=states, p=np.array(p), q=np.array(q), x=X, y=Y)


def _herm_from_params(v: np.ndarray, dim: int) -> np.ndarray:
    A = np.zeros((dim, dim), dtype=complex)
    idx = 0
    for i in range(dim):
        A[i, i] = v[idx]
        idx += 1
    for i in range(dim):
        for j in range(i + 1, dim):
            A[i, j] = v[idx] + 1j * v[idx + 1]
            A[j, i] = v[idx] - 1j * v[idx + 1]
            idx += 2
    return A


def fidelity_min_via_twist(
    X: np.ndarray, Y: np.ndarray, restarts: int = 20, seed: int = 0
) -> float:
    """
    F_min as min over Hermitian A of F_max(X, (I - iA) Y (I + iA)),
    by multistart Nelder-Mead over the real parameterization of A.
    """
    X = hermitianize(as_square(X))
    Y = hermitianize(as_square(Y))
    check_pd(X, "X")
    check_pd(Y, "Y")
    dim = X.shape[0]
    eye = np.eye(dim)
    n_params = dim * dim

    def objective(v: np.ndarray) -> float:
        A = _herm_from_params(v, dim)
        Yt = hermitianize((eye - 1j * A) @ Y @ (eye + 1j * A))
        return fidelity_max(X, Yt)

    best = objective(np.zeros(n_params))
    for r in range(restarts):
        rng = rng_for(seed, r)
        x0 = np.zeros(n_params) if r == 0 else rng.standard_normal(n_params)
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"maxiter": 4000, "xatol": 1e-9, "fatol": 1e-12},
        )
        best = min(best, float(res.fun))
    return best
