# src/fidlab/fidelity.py
#
# The three quantum fidelities on PSD pairs, the classical fidelity,
# derivative-based dual optimizers, and the optimal-measurement /
# optimal-reverse-test / optimal-twist constructions witnessing the
# operational forms. Every min-kind quantity is read off one eigh of
# Y^{-1/2} X Y^{-1/2}, `_min_frame`, taken once per admitted pair: `_frame` keeps it
# on the pair. Each fidelity is a kernel over the pair `linalg_core.psd_pair` admits,
# and `_FIDELITIES` maps each kind to it.

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .channels import Povm
from .errors import LengthMismatch, NegativeEntry
# psd_sqrt is not called here, but perfbench/test_perfbench.py reads fidlab.fidelity.psd_sqrt
from .linalg_core import OperatorPair, Spectrum, _SpectralPair, hermitianize, psd_pair, psd_sqrt
from .superop import _definite_lyapunov_solve

__all__ = [
    "classical_fidelity",
    "fidelity_max",
    "fidelity_min",
    "fidelity_half",
    "dual_optimizers",
    "optimal_measurement",
    "optimal_reverse_test",
    "optimal_twist",
    "ReverseTest",
]

_CLAMP = 1e-12


def _weights(p, q) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=float).ravel()
    q = np.asarray(q, dtype=float).ravel()
    if p.shape != q.shape:
        raise LengthMismatch(f"lengths {p.size} and {q.size} differ")
    for v in (p, q):
        bad = v[~(np.isfinite(v) & (v >= -_CLAMP))]
        if bad.size:
            raise NegativeEntry(f"weight entry {bad[0]:.3e} is negative or non-finite")
    return np.maximum(p, 0.0), np.maximum(q, 0.0)


def classical_fidelity(p, q) -> float:
    """Bhattacharyya overlap sum_i sqrt(p_i q_i) of two nonnegative vectors."""
    p, q = _weights(p, q)
    return float(np.sum(np.sqrt(p * q)))


def fidelity_max(X: np.ndarray, Y: np.ndarray) -> float:
    """tr sqrt( sqrt(Y) X sqrt(Y) ), evaluated on arbitrary PSD inputs."""
    return _fidelity_max(psd_pair(X, Y))


def _fidelity_max(P: _SpectralPair) -> float:
    sY = P.Ys.sqrt()
    # eigvalsh reads one triangle of the Hermitian product
    w = npl.eigvalsh(sY @ P.X @ sY)
    return math.fsum(math.sqrt(max(x, 0.0)) for x in w.tolist())


def _min_frame(P: _SpectralPair) -> tuple[np.ndarray, np.ndarray, Spectrum]:
    """
    (d, S, W) from Y = S diag(d) S^dagger on supp Y, A = S^dagger X S (or X's
    Schur reduction onto supp Y) and one eigh D^{-1/2} A D^{-1/2} = U diag(r^2) U^dagger,
    W = (r, U). The frame G = S D^{1/2} U, G^{-dagger} = S D^{-1/2} U has, on supp Y,
    Y = G G^dagger, X = G diag(r^2) G^dagger and Y # X = G diag(r) G^dagger.
    """
    # rank, support and D^{-1/2} all come from Y's own eigenvalues: deciding
    # rank on sqrt(Y) would lift round-off eps to sqrt(eps) > tol
    # on a definite Y the support is all of Y's eigenpairs and there is nothing to reduce
    X, Ys = P.X, P.Ys
    sup = Ys if Ys.is_definite else Ys.support()
    d, S = sup.eigenvalues, sup.eigenvectors
    reduced = None if sup is Ys else Ys.schur_complement(X, P.Xs.tol)
    A = S.conj().T @ X @ S if reduced is None else reduced
    h = d ** -0.5
    mu, U = npl.eigh(hermitianize(h[:, None] * A * h))
    return d, S, Spectrum(np.sqrt(np.maximum(mu, 0.0)), U)


def _frame(P: _SpectralPair) -> tuple[np.ndarray, np.ndarray, Spectrum]:
    """P's _min_frame, built by the first kernel that needs it and kept on P."""
    if P.min_frame is None:
        P.min_frame = _min_frame(P)
    return P.min_frame


def fidelity_min(X: np.ndarray, Y: np.ndarray) -> float:
    """
    tr Y sqrt( Y^{-1/2} X Y^{-1/2} ) with generalized inverses, X replaced by its
    Schur reduction onto supp Y when supp X is not contained in supp Y; it is
    sum_k r_k ||g_k||^2 over _min_frame's G, with ||g_k||^2 = sum_i d_i |U_ik|^2.
    Y's eigenvalues <= Spectrum.tol are cut, so F_min can fall short by about sqrt(tol ||X||)
    per cut direction: X = diag(0, 1), Y = diag(1, 1e-10) give 0, not the overlap 1e-5.
    """
    return _fidelity_min(psd_pair(X, Y))


def _fidelity_min(P: _SpectralPair) -> float:
    d, _, W = _frame(P)
    return float(W.eigenvalues @ (np.abs(W.eigenvectors) ** 2).T @ d)


def fidelity_half(X: np.ndarray, Y: np.ndarray) -> float:
    """tr X^{1/2} Y^{1/2}."""
    return _fidelity_half(psd_pair(X, Y))


def _fidelity_half(P: _SpectralPair) -> float:
    # tr AB = <A, B> for Hermitian A: no product is formed
    return float(np.vdot(P.Xs.sqrt(), P.Ys.sqrt()).real)


_FIDELITIES = {"max": _fidelity_max, "min": _fidelity_min, "half": _fidelity_half}


def fidelity(kind: str, X: np.ndarray, Y: np.ndarray) -> float:
    """Dispatch by kind in {max, min, half}."""
    if kind not in _FIDELITIES:
        raise ValueError(f"unknown fidelity kind {kind!r}")
    return _FIDELITIES[kind](psd_pair(X, Y))


def dual_optimizers(kind: str, X: np.ndarray, Y: np.ndarray) -> OperatorPair:
    """
    The derivative dual pair (L0*, L1*) with tr(L0* X) + tr(L1* Y) = F(X, Y):

      max:  L0* = (1/2) sqrt(Y) V Sigma^{-1} V^dagger sqrt(Y),  sqrt(X) sqrt(Y) = U Sigma V^dagger
      min:  L0* = G^{-dagger} (K o [1/(r_i + r_j)]) G^{-1},  K = G^dagger G,  G, r of _min_frame
      half: L0* = S_{sqrt(X)}(sqrt(Y))

    with L1* given by swapping the roles of X and Y (for max, of U and V; for
    min, L1* takes the kernel r_i r_j/(r_i + r_j) instead).
    """
    return _optimizers(kind, psd_pair(X, Y, definite=True))[1]


def _diagonal_blocks(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two diagonal blocks of a 2d x 2d matrix."""
    d = Z.shape[0] // 2
    return Z[:d, :d], Z[d:, d:]


def _optimizers(kind: str, P: _SpectralPair
                ) -> tuple[np.ndarray | None, OperatorPair, np.ndarray | None]:
    """
    The primal optimizer C* (None for half), the dual pair and the antihermitian
    twist T = iA* of the dual block [[2 L0*, -I + T], [-I - T, 2 L1*]] (0.0 for max,
    None for half, which has no such block) of a definite pair.
    """
    if kind == "max":
        # sqrt(X) sqrt(Y) = U Sigma V^dagger gives, as sqrt(Y) X sqrt(Y) = V Sigma^2 V^dagger and
        # sqrt(X) Y sqrt(X) = U Sigma^2 U^dagger, both inverse roots without squaring the
        # condition number: with P0 = sqrt(Y) V and P1 = sqrt(X) U, C* = P1 P0^dagger and
        # L_k* = P_k (2 Sigma)^{-1} P_k^dagger, the diagonal blocks of one product
        sX, sY = P.Xs.sqrt(), P.Ys.sqrt()
        U, s, Vh = npl.svd(sX @ sY)
        Q = np.concatenate((sY @ Vh.conj().T, sX @ U))
        Qh = Q.conj().T
        d = len(s)
        C = Q[d:] @ Qh[:, :d]
        L0, L1 = _diagonal_blocks(hermitianize((Q * (0.5 / s)) @ Qh))
        T = 0.0
    elif kind == "min":
        # both derivatives of tr G diag(r) G^dagger and the twist: G^dagger G times a
        # Cauchy kernel K; congruence by diag(G, G) turns the dual block into
        # G^dagger G o (2/(r_i + r_j)) [[1, -r_j], [-r_i, r_i r_j]], PSD by the Schur
        # product theorem. With Q = [G^{-dagger}; G^{-dagger} diag(r)], Q K Q^dagger holds
        # L0* and L1* on its diagonal and M = G^{-dagger} r K G^{-1} below it, and the twist
        # G^{-dagger} (K o [r_i - r_j]) G^{-1} is M - M^dagger, exactly antihermitian
        d, S, W = _frame(P)
        r, U = W.eigenvalues, W.eigenvectors
        G, Gi = (S * d ** 0.5) @ U, (S * d ** -0.5) @ U
        Gh = G.conj().T
        C = hermitianize((G * r) @ Gh)
        Q = np.concatenate((Gi, Gi * r))
        Z = hermitianize(Q @ ((Gh @ G) / (r[:, None] + r)) @ Q.conj().T)
        L0, L1 = _diagonal_blocks(Z)
        M = Z[len(r):, :len(r)]
        T = M - M.conj().T
    elif kind == "half":
        # L0* = S_{sqrt X}(sqrt Y) and L1* = S_{sqrt Y}(sqrt X), stacked into one solve
        C = T = None
        sx, sy = P.Xs.sqrt_spectrum(), P.Ys.sqrt_spectrum()
        L0, L1 = _definite_lyapunov_solve(np.array((sx.eigenvalues, sy.eigenvalues)),
                                          np.array((sx.eigenvectors, sy.eigenvectors)),
                                          np.array((P.Ys.sqrt(), P.Xs.sqrt())))
    else:
        raise ValueError(f"unknown fidelity kind {kind!r}")
    # each side is PSD by construction (Gram forms, Cauchy kernels), so it is not decomposed again
    return C, OperatorPair._of_psd(L0, L1), T


def optimal_measurement(X: np.ndarray, Y: np.ndarray) -> Povm:
    """
    Projective measurement achieving F_max: the eigenbasis of
    Y^{-1/2} (Y^{1/2} X Y^{1/2})^{1/2} Y^{-1/2} = (2 L0*)^{-1}, from the max dual optimizer
    L0* of one SVD of sqrt(X) sqrt(Y), never from sqrt(Y) X sqrt(Y), of condition kappa(X) kappa(Y).
    """
    P = psd_pair(X, Y, definite=True)
    _, V = npl.eigh(_optimizers("max", P)[1].first)
    els = [np.outer(V[:, i], V[:, i].conj()) for i in range(V.shape[1])]
    return Povm(dim=P.X.shape[0], elements=els)


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
    P = psd_pair(X, Y, definite=True)
    d, S, W = _frame(P)
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
    return ReverseTest(states=states, p=p, q=q, x=P.X, y=P.Y)


def optimal_twist(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """
    The Hermitian twist A* attaining F_min(X, Y) = min over Hermitian A of
    F_max(X, (I - iA) Y (I + iA)) on a definite pair:
    iA* = G^{-dagger} (G^dagger G o [(r_i - r_j)/(r_i + r_j)]) G^{-1} over the
    frame G, r of _min_frame. It is also the twist of the min certificate's dual block.
    """
    T = _optimizers("min", psd_pair(X, Y, definite=True))[2]
    return hermitianize(-1j * T)
