# src/fidlab/channels.py
#
# CPTP maps in Kraus form, their unital CP adjoints, POVMs, and the
# measurement / preparation channels connecting quantum pairs to classical
# weight vectors. Also hosts the seeded random generators shared by the
# property suites.

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.linalg as npl

from .errors import DimensionMismatch, InvalidPovm, InvalidState
from .linalg_core import Spectrum, as_square, hermitianize, psd_spectrum, spectrum

__all__ = [
    "KrausChannel",
    "Povm",
    "apply",
    "adjoint",
    "random_cptp",
    "measurement_channel",
    "preparation_channel",
    "random_povm",
    "rng_for",
    "random_hermitian",
    "random_psd",
    "random_pd",
    "random_density",
]

_FLAG_TOL = 1e-9


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive map given by its Kraus operators; its flags are decided on read."""

    dim_in: int
    dim_out: int
    kraus_ops: list[np.ndarray]

    def __post_init__(self) -> None:
        ops = [np.asarray(K, dtype=complex) for K in self.kraus_ops]
        for K in ops:
            if K.shape != (self.dim_out, self.dim_in):
                raise DimensionMismatch(
                    f"Kraus operator shape {K.shape} != ({self.dim_out}, {self.dim_in})"
                )
        object.__setattr__(self, "kraus_ops", ops)

    @property
    def trace_preserving(self) -> bool:
        ktk = sum(K.conj().T @ K for K in self.kraus_ops)
        return spectrum(ktk - np.eye(self.dim_in)).norm <= _FLAG_TOL

    @property
    def unital(self) -> bool:
        kkt = sum(K @ K.conj().T for K in self.kraus_ops)
        return spectrum(kkt - np.eye(self.dim_out)).norm <= _FLAG_TOL


@dataclass(frozen=True)
class Povm:
    """PSD elements summing to the identity; `_supports` keeps each one's support eigenpairs."""

    dim: int
    elements: list[np.ndarray]
    _supports: list[Spectrum] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        els = [hermitianize(as_square(M)) for M in self.elements]
        if any(M.shape != (self.dim, self.dim) for M in els):
            raise DimensionMismatch("POVM element dimension mismatch")
        try:
            supports = [psd_spectrum(M, "POVM element").support() for M in els]
        except Exception as exc:
            raise InvalidPovm(str(exc)) from exc
        if spectrum(sum(els) - np.eye(self.dim)).norm > _FLAG_TOL:
            raise InvalidPovm("POVM elements do not sum to the identity")
        object.__setattr__(self, "elements", els)
        object.__setattr__(self, "_supports", supports)

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)


def apply(channel: KrausChannel, X: np.ndarray) -> np.ndarray:
    """Kraus action sum_j K_j X K_j^dagger."""
    X = as_square(X)
    if X.shape[0] != channel.dim_in:
        raise DimensionMismatch(
            f"input dim {X.shape[0]} != channel dim_in {channel.dim_in}"
        )
    out = np.zeros((channel.dim_out, channel.dim_out), dtype=complex)
    for K in channel.kraus_ops:
        out += K @ X @ K.conj().T
    return out


def adjoint(channel: KrausChannel) -> KrausChannel:
    """Hilbert-Schmidt adjoint: conjugate-transpose every Kraus operator."""
    return KrausChannel(
        dim_in=channel.dim_out,
        dim_out=channel.dim_in,
        kraus_ops=[K.conj().T for K in channel.kraus_ops],
    )


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """Splittable per-case generator: seed plus a spawn path."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=tuple(path)))
    )


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitianize(G)


def random_psd(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    r = dim if rank is None else rank
    G = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    return hermitianize(G @ G.conj().T / r)


def random_pd(dim: int, rng: np.random.Generator, floor: float = 0.05) -> np.ndarray:
    return random_psd(dim, rng) + floor * np.eye(dim)


def random_density(dim: int, rng: np.random.Generator, floor: float = 0.0) -> np.ndarray:
    A = random_psd(dim, rng) + floor * np.eye(dim)
    return A / np.trace(A).real


def random_cptp(dim_in: int, dim_out: int, env_dim: int, seed: int) -> KrausChannel:
    """
    Random CPTP map from a Haar-style Stinespring isometry: QR of a complex
    Gaussian (dim_out * env_dim) x dim_in block, sliced into Kraus operators.
    """
    if env_dim < 1:
        raise ValueError("env_dim must be >= 1")
    if dim_out * env_dim < dim_in:
        raise DimensionMismatch("dim_out * env_dim must be >= dim_in for an isometry")
    rng = rng_for(seed)
    G = rng.standard_normal((dim_out * env_dim, dim_in)) + 1j * rng.standard_normal(
        (dim_out * env_dim, dim_in)
    )
    Q, R = npl.qr(G)
    # fix the QR phase so the isometry is unique and seed-reproducible
    Q = Q * np.sign(np.diag(R).real + (np.diag(R).real == 0))
    ops = [Q[e * dim_out : (e + 1) * dim_out, :] for e in range(env_dim)]
    return KrausChannel(dim_in=dim_in, dim_out=dim_out, kraus_ops=ops)


def measurement_channel(M: Povm) -> KrausChannel:
    """
    The CPTP map rho -> sum_i tr(rho M_i) |i><i| on an n-dimensional output,
    with Kraus operators sqrt(lam) |i><phi| from the support eigenpairs of
    each POVM element, one per unit of its rank.
    """
    n = M.n_outcomes
    dim = M.dim
    ops: list[np.ndarray] = []
    for i, sup in enumerate(M._supports):
        for lam, phi in zip(sup.eigenvalues, sup.eigenvectors.T):
            K = np.zeros((n, dim), dtype=complex)
            K[i, :] = np.sqrt(lam) * phi.conj()
            ops.append(K)
    return KrausChannel(dim_in=dim, dim_out=n, kraus_ops=ops)


def preparation_channel(states: list[np.ndarray]) -> KrausChannel:
    """
    The CPTP map |i><i| -> rho_i (off-diagonal inputs annihilated), realized
    by the canonical dilation K_{i,r} = sqrt(lam_{i,r}) |v_{i,r}><i| over the
    support eigenpairs of each state.
    """
    states = [hermitianize(as_square(s)) for s in states]
    if not states:
        raise InvalidState("need at least one state")
    dim = states[0].shape[0]
    n = len(states)
    ops: list[np.ndarray] = []
    for i, rho in enumerate(states):
        if rho.shape != (dim, dim):
            raise InvalidState("states have inconsistent dimensions")
        try:
            sup = psd_spectrum(rho, "state").support()
        except Exception as exc:
            raise InvalidState(str(exc)) from exc
        if abs(np.trace(rho).real - 1.0) > 1e-9:
            raise InvalidState("state trace differs from 1")
        for lam, v in zip(sup.eigenvalues, sup.eigenvectors.T):
            K = np.zeros((dim, n), dtype=complex)
            K[:, i] = np.sqrt(lam) * v
            ops.append(K)
    return KrausChannel(dim_in=n, dim_out=dim, kraus_ops=ops)


def random_povm(dim: int, n: int, seed: int) -> Povm:
    """n random PSD elements normalized by S^{-1/2} M_i S^{-1/2}."""
    if n < 1:
        raise ValueError("need at least one outcome")
    rng = rng_for(seed)
    raw = [random_psd(dim, rng) for _ in range(n)]
    S_inv_h = spectrum(sum(raw)).inv_sqrt()
    els = [hermitianize(S_inv_h @ A @ S_inv_h) for A in raw]
    return Povm(dim=dim, elements=els)
