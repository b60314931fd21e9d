# src/fidlab/fidelity.py
#
# The three quantum fidelities on PSD pairs, the classical fidelity,
# derivative-based dual optimizers, and the optimal-measurement /
# optimal-reverse-test constructions witnessing the operational forms. Every
# min-kind quantity is read off one eigh of Y^{-1/2} X Y^{-1/2}, `_min_frame`.
# Operands are admitted by `linalg_core.psd_pair`.

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .channels import Povm, rng_for
from .errors import LengthMismatch, NegativeEntry
from .linalg_core import OperatorPair, Spectrum, hermitianize, psd_pair, psd_sqrt
from .superop import _lyapunov_solve

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
    X, _, _, Ys = psd_pair(X, Y)
    sY = Ys.sqrt()
    w = npl.eigvalsh(hermitianize(sY @ X @ sY))
    return float(np.sum(np.sqrt(np.maximum(w, 0.0))))


def _min_frame(X: np.ndarray, Xs: Spectrum,
               Ys: Spectrum) -> tuple[np.ndarray, np.ndarray, Spectrum]:
    """
    (d, S, W) from Y = S diag(d) S^dagger on supp Y, A = S^dagger X S (or X's
    Schur reduction onto supp Y) and one eigh D^{-1/2} A D^{-1/2} = U diag(r^2) U^dagger,
    W = (r, U). The frame G = S D^{1/2} U, G^{-dagger} = S D^{-1/2} U has, on supp Y,
    Y = G G^dagger, X = G diag(r^2) G^dagger and Y # X = G diag(r) G^dagger.
    """
    # rank, support and D^{-1/2} all come from Y's own eigenvalues: deciding
    # rank on sqrt(Y) would lift round-off eps to sqrt(eps) > tol
    sup = Ys.support()
    d, S = sup.eigenvalues, sup.eigenvectors
    reduced = Ys.schur_complement(X, Xs.tol)
    A = S.conj().T @ X @ S if reduced is None else reduced
    h = d ** -0.5
    mu, U = npl.eigh(hermitianize(h[:, None] * A * h[None, :]))
    return d, S, Spectrum(np.sqrt(np.maximum(mu, 0.0)), U)


def fidelity_min(X: np.ndarray, Y: np.ndarray) -> float:
    """
    tr Y sqrt( Y^{-1/2} X Y^{-1/2} ) with generalized inverses, X replaced by its
    Schur reduction onto supp Y when supp X is not contained in supp Y; it is
    sum_k r_k ||g_k||^2 over _min_frame's G, with ||g_k||^2 = sum_i d_i |U_ik|^2.
    """
    X, _, Xs, Ys = psd_pair(X, Y)
    d, _, W = _min_frame(X, Xs, Ys)
    return float(W.eigenvalues @ (np.abs(W.eigenvectors) ** 2).T @ d)


def fidelity_half(X: np.ndarray, Y: np.ndarray) -> float:
    """tr X^{1/2} Y^{1/2}."""
    _, _, Xs, Ys = psd_pair(X, Y)
    return float(np.trace(Xs.sqrt() @ Ys.sqrt()).real)


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

      max:  L0* = (1/2) sqrt(Y) V Sigma^{-1} V^dagger sqrt(Y),  sqrt(X) sqrt(Y) = U Sigma V^dagger
      min:  L0* = G^{-dagger} (K o [1/(r_i + r_j)]) G^{-1},  K = G^dagger G,  G, r of _min_frame
      half: L0* = S_{sqrt(X)}(sqrt(Y))

    with L1* given by swapping the roles of X and Y (for max, of U and V; for
    min, L1* takes the kernel r_i r_j/(r_i + r_j) instead).
    """
    return _optimizers(kind, *psd_pair(X, Y, definite=True))[1]


def _optimizers(kind: str, X: np.ndarray, Y: np.ndarray, Xs: Spectrum,
                Ys: Spectrum) -> tuple[np.ndarray | None, OperatorPair]:
    """The primal optimizer C* (None for half) and the dual pair of a definite pair."""
    if kind == "max":
        # sqrt(X) sqrt(Y) = U Sigma V^dagger gives C* = sqrt(X) U V^dagger sqrt(Y) and, as
        # sqrt(Y) X sqrt(Y) = V Sigma^2 V^dagger and sqrt(X) Y sqrt(X) = U Sigma^2 U^dagger,
        # both inverse roots without squaring the condition number
        sX, sY = Xs.sqrt(), Ys.sqrt()
        U, s, Vh = npl.svd(sX @ sY)
        C = sX @ U @ Vh @ sY
        B0, B1 = sY @ (Vh.conj().T * s ** -0.5), sX @ (U * s ** -0.5)
        L0, L1 = (hermitianize(0.5 * B @ B.conj().T) for B in (B0, B1))
    elif kind == "min":
        # both derivatives of tr G diag(r) G^dagger: G^dagger G times a Cauchy kernel, PSD
        d, S, W = _min_frame(X, Xs, Ys)
        r, G, Gi = W.eigenvalues, (S * d ** 0.5) @ W.eigenvectors, (S * d ** -0.5) @ W.eigenvectors
        C = hermitianize((G * r) @ G.conj().T)
        KC = (G.conj().T @ G) / (r[:, None] + r[None, :])
        L0, L1 = (hermitianize(Gi @ M @ Gi.conj().T) for M in (KC, r[:, None] * KC * r[None, :]))
    elif kind == "half":
        sX, sY = Xs.sqrt_spectrum(), Ys.sqrt_spectrum()
        C = None
        L0, L1 = _lyapunov_solve(sX, sY.reconstruct()), _lyapunov_solve(sY, sX.reconstruct())
    else:
        raise ValueError(f"unknown fidelity kind {kind!r}")
    # each side is PSD by construction (Gram forms, Cauchy kernels), so it is not decomposed again
    return C, OperatorPair._of_psd(L0, L1)


def optimal_measurement(X: np.ndarray, Y: np.ndarray) -> Povm:
    """
    Projective measurement achieving F_max: the eigenbasis of
    Y^{-1/2} (Y^{1/2} X Y^{1/2})^{1/2} Y^{-1/2} (generalized inverses).
    """
    X, _, _, Ys = psd_pair(X, Y, definite=True)
    sY, iY = Ys.sqrt(), Ys.inv_sqrt()
    _, V = npl.eigh(hermitianize(iY @ psd_sqrt(sY @ X @ sY) @ iY))
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
    Reverse test achieving F_min from the frame Y = G G^dagger, X = G diag(r^2) G^dagger
    of _min_frame: with G_i the columns of G whose r coincide at r_i, the states
    G_i G_i^dagger / q_i and weights q_i = ||G_i||_F^2, p_i = r_i^2 q_i.
    """
    X, Y, Xs, Ys = psd_pair(X, Y, definite=True)
    d, S, W = _min_frame(X, Xs, Ys)
    r, G = W.eigenvalues, (S * d ** 0.5) @ W.eigenvectors
    groups: list[list[int]] = [[0]]
    for i in range(1, len(r)):
        if r[i] - r[groups[-1][0]] <= W.tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    q = np.array([np.sum(np.abs(G[:, idx]) ** 2) for idx in groups])
    p = np.array([np.mean(r[idx]) ** 2 for idx in groups]) * q
    states = [hermitianize(G[:, idx] @ G[:, idx].conj().T) / w for idx, w in zip(groups, q)]
    return ReverseTest(states=states, p=p, q=q, x=X, y=Y)


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
    from scipy.optimize import minimize

    X, Y, _, _ = psd_pair(X, Y, definite=True)
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
