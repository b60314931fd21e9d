import json

import numpy as np
import pytest

import fidlab
from fidlab.channels import random_pd, rng_for
from fidlab.cli import main
from fidlab.errors import DimensionMismatch, LengthMismatch, NegativeEntry, NotPsd
from fidlab.linalg_core import OperatorPair, schur_reduce
from fidlab.fidelity import (
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

PLUS = np.full((2, 2), 0.5, dtype=complex)
ZERO_STATE = np.diag([1.0, 0.0]).astype(complex)
DIAG_X = np.diag([0.5, 0.5]).astype(complex)
DIAG_Y = np.diag([0.25, 0.75]).astype(complex)
F_DIAG = np.sqrt(0.125) + np.sqrt(0.375)


def test_classical_identical():
    assert classical_fidelity([0.5, 0.5], [0.5, 0.5]) == pytest.approx(1.0)


def test_classical_disjoint():
    assert classical_fidelity([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_classical_frozen_value():
    assert classical_fidelity([0.5, 0.5], [0.25, 0.75]) == pytest.approx(
        0.9659258262890683, abs=1e-12
    )


def test_classical_input_validation():
    with pytest.raises(LengthMismatch):
        classical_fidelity([1.0], [0.5, 0.5])
    with pytest.raises(NegativeEntry):
        classical_fidelity([-0.1, 1.1], [0.5, 0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["classical_fidelity", "polar_classical"])
def test_classical_quantities_refuse_non_finite_weights(name, bad):
    with pytest.raises(NegativeEntry, match="negative or non-finite"):
        getattr(fidlab, name)([bad, 1.0], [0.5, 0.5])
    with pytest.raises(NegativeEntry, match="negative or non-finite"):
        getattr(fidlab, name)([0.5, 0.5], [1.0, bad])


def test_fidelity_max_self():
    rng = rng_for(0)
    rho = random_pd(3, rng)
    rho = rho / np.trace(rho).real
    assert fidelity_max(rho, rho) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_max_diagonal():
    assert fidelity_max(DIAG_X, DIAG_Y) == pytest.approx(F_DIAG, abs=1e-12)


def test_fidelity_max_plus_zero():
    assert fidelity_max(PLUS, ZERO_STATE) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_fidelity_min_diagonal():
    assert fidelity_min(DIAG_X, DIAG_Y) == pytest.approx(F_DIAG, abs=1e-12)


def test_fidelity_min_plus_zero():
    assert fidelity_min(PLUS, ZERO_STATE) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_min_self():
    rng = rng_for(1)
    rho = random_pd(2, rng)
    rho = rho / np.trace(rho).real
    assert fidelity_min(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_half_self():
    rng = rng_for(2)
    rho = random_pd(3, rng)
    rho = rho / np.trace(rho).real
    assert fidelity_half(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_half_plus_zero():
    assert fidelity_half(PLUS, ZERO_STATE) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_half_diagonal():
    assert fidelity_half(DIAG_X, DIAG_Y) == pytest.approx(F_DIAG, abs=1e-12)


def test_fidelity_dispatch_rejects_unknown():
    with pytest.raises(ValueError):
        fidelity("median", DIAG_X, DIAG_Y)


I2, I3 = np.eye(2, dtype=complex), np.eye(3, dtype=complex)


@pytest.mark.parametrize("call", [
    lambda: fidlab.fidelity_max(I2, I3),
    lambda: fidlab.fidelity_min(I3, I2),
    lambda: fidlab.fidelity_half(I2, I3),
    lambda: fidlab.polar_max(I3, I2),
    lambda: fidlab.polar_min(I3, I2),
    lambda: fidlab.polar_min(I2, I3),
    lambda: fidlab.polar_half(I2, I3),
    lambda: fidlab.dual_optimizers("max", I2, I3),
    lambda: fidlab.dual_optimizers("min", I3, I2),
    lambda: fidlab.dual_optimizers("half", I2, I3),
    lambda: fidlab.duality_certificate("min", I2, I3),
    lambda: fidlab.optimal_reverse_test(I3, I2),
    lambda: fidlab.composed_lyapunov_spectrum(I2, I3),
    lambda: fidlab.positive_fixed_point(I2, I3),
    lambda: fidlab.lyapunov_solve(I2, I3),
    lambda: fidlab.polar_max_qubit(I2, I3),
    lambda: fidlab.polar_min_qubit(I3, I2),
    lambda: schur_reduce(I2, I3),
    lambda: OperatorPair(I2, I3),
    lambda: fidlab.povm_lower_bound(I2, I3),
    lambda: optimal_measurement(I2, I3),
    lambda: optimal_twist(I2, I3),
    lambda: fidlab.mfmax_membership(I2, I3),
    lambda: fidlab.mfmin_qubit_membership(I2, I3),
    lambda: fidlab.block_psd(I2, np.zeros((2, 2)), I3),
], ids=["fidelity_max", "fidelity_min", "fidelity_half", "polar_max", "polar_min",
        "polar_min_qubit", "polar_half", "dual_optimizers_max", "dual_optimizers_min",
        "dual_optimizers_half", "duality_certificate", "optimal_reverse_test",
        "composed_lyapunov_spectrum", "positive_fixed_point", "lyapunov_solve",
        "polar_max_qubit", "polar_min_qubit_direct", "schur_reduce", "OperatorPair",
        "povm_lower_bound", "optimal_measurement", "optimal_twist",
        "mfmax_membership", "mfmin_qubit_membership", "block_psd"])
def test_operands_of_unequal_dimension_are_refused(call):
    with pytest.raises(DimensionMismatch):
        call()


E0 = np.zeros((0, 0), dtype=complex)
_PAIR_FUNCTIONS = [
    "fidelity_max", "fidelity_min", "fidelity_half", "polar_max", "polar_min", "polar_half",
    "povm_lower_bound", "mfmax_membership", "mfmin_qubit_membership", "polar_max_qubit",
    "polar_min_qubit", "optimal_measurement", "optimal_reverse_test", "optimal_twist",
    "lyapunov_solve", "schur_reduce", "composed_lyapunov_spectrum", "positive_fixed_point",
    "OperatorPair",
]
_KIND_FUNCTIONS = ["fidelity", "polar", "polar_membership", "dual_optimizers",
                   "duality_certificate"]


@pytest.mark.parametrize("name, args", [pytest.param(n, (), id=n) for n in _PAIR_FUNCTIONS] + [
    pytest.param(n, (k,), id=f"{n}-{k}") for n in _KIND_FUNCTIONS for k in ("max", "min", "half")])
def test_empty_operands_are_refused(name, args):
    # the pair gate refuses 0 x 0 operands before any spectrum is read
    with pytest.raises(DimensionMismatch, match="are empty"):
        getattr(fidlab, name)(*args, E0, E0)


_OUT_OF_RANGE = [1e-200, 1e-120, 1e120, 1e200]


@pytest.mark.parametrize("s", _OUT_OF_RANGE)
@pytest.mark.parametrize("dim", [2, 3])
def test_operands_outside_the_finite_product_range_are_refused(dim, s, tmp_path):
    # beyond 1e+-100 the kernels' three-factor products leave double range, so the
    # operand gate refuses the operands as it refuses a non-finite entry
    rng = rng_for(91, dim)
    X, Y = s * random_pd(dim, rng), s * random_pd(dim, rng)
    for name in _PAIR_FUNCTIONS:
        with pytest.raises(NotPsd, match="outside"):
            getattr(fidlab, name)(X, Y)
    for name in _KIND_FUNCTIONS:
        for kind in ("max", "min", "half"):
            with pytest.raises(NotPsd, match="outside"):
                getattr(fidlab, name)(kind, X, Y)
    # and so is every single operand whose spectrum enters the memo
    for name in ("pinv", "psd_sqrt", "support_projector"):
        with pytest.raises(NotPsd, match="outside"):
            getattr(fidlab, name)(X)
    if dim == 2:
        with pytest.raises(NotPsd, match="outside"):
            fidlab.frame_from_operator(X)
        # QubitDualPoint.from_operator reads entries and decomposes nothing: any finite scale
        assert fidlab.QubitDualPoint.from_operator(X).w > 0
    # spectrum() serves the code's own intermediates, which pass no range rule
    assert fidlab.spectrum(X).eigenvalues[0] > 0
    zero, eye = np.zeros((dim, dim)), np.eye(dim)
    with pytest.raises(NotPsd, match="X has largest .* outside"):
        fidlab.block_psd(X, zero, eye)
    with pytest.raises(NotPsd, match="Y has largest .* outside"):
        fidlab.block_psd(eye, zero, Y)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps([
        {"dim": dim, "entries": [[[z.real, z.imag] for z in row] for row in H.tolist()]}
        for H in (X, Y)]))
    assert main(["compute", str(path), "--format", "json"]) == 2


def test_zero_operands_are_admitted():
    Z = np.zeros((2, 2), dtype=complex)
    assert fidlab.fidelity_max(Z, np.eye(2)) == 0.0
    assert fidlab.polar_max(Z, Z) == 0.0


@pytest.mark.parametrize("call, names", [
    (lambda: fidlab.polar_min(I2, I3), ("L0", "L1")),
    (lambda: fidlab.polar_half(I3, I2), ("L0", "L1")),
    (lambda: fidlab.fidelity_min(I2, I3), ("X", "Y")),
    (lambda: fidlab.positive_fixed_point(I3, I2), ("L0", "L1")),
    (lambda: OperatorPair(I2, I3), ("first", "second")),
    (lambda: fidlab.lyapunov_solve(I2, I3), ("Z", "X")),
    (lambda: fidlab.mfmax_membership(I2, I3), ("L0", "L1")),
    (lambda: fidlab.mfmin_qubit_membership(I2, I3), ("L0", "L1")),
], ids=["polar_min", "polar_half", "fidelity_min", "positive_fixed_point", "OperatorPair",
        "lyapunov_solve", "mfmax_membership", "mfmin_qubit_membership"])
def test_unequal_dimension_message_names_both_operands(call, names):
    with pytest.raises(DimensionMismatch) as err:
        call()
    assert all(name in str(err.value) for name in names)


def test_dual_optimizers_max_self():
    rng = rng_for(3)
    rho = random_pd(2, rng)
    rho = rho / np.trace(rho).real
    pair = dual_optimizers("max", rho, rho)
    assert np.allclose(pair.first, np.eye(2) / 2, atol=1e-10)
    assert np.allclose(pair.second, np.eye(2) / 2, atol=1e-10)
    obj = (np.trace(pair.first @ rho) + np.trace(pair.second @ rho)).real
    assert obj == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("kind", ["max", "min", "half"])
@pytest.mark.parametrize("dim", [2, 3])
def test_dual_optimizers_achieve_fidelity(kind, dim):
    rng = rng_for(4, dim)
    X = random_pd(dim, rng)
    Y = random_pd(dim, rng)
    pair = dual_optimizers(kind, X, Y)
    obj = float((np.trace(pair.first @ X) + np.trace(pair.second @ Y)).real)
    assert obj == pytest.approx(fidelity(kind, X, Y), abs=1e-9)


def test_optimal_measurement_self():
    rng = rng_for(5)
    rho = random_pd(2, rng)
    rho = rho / np.trace(rho).real
    M = optimal_measurement(rho, rho)
    p = np.array([np.trace(rho @ E).real for E in M.elements])
    assert classical_fidelity(p, p) == pytest.approx(1.0, abs=1e-10)


def test_optimal_measurement_commuting():
    M = optimal_measurement(DIAG_X, DIAG_Y)
    p = np.array([np.trace(DIAG_X @ E).real for E in M.elements])
    q = np.array([np.trace(DIAG_Y @ E).real for E in M.elements])
    assert classical_fidelity(p, q) == pytest.approx(F_DIAG, abs=1e-10)


def test_optimal_reverse_test_self():
    rng = rng_for(6)
    rho = random_pd(2, rng)
    rho = rho / np.trace(rho).real
    rt = optimal_reverse_test(rho, rho)
    assert len(rt.states) == 1
    assert classical_fidelity(rt.p, rt.q) == pytest.approx(1.0, abs=1e-10)


def test_optimal_reverse_test_commuting():
    rt = optimal_reverse_test(DIAG_X, DIAG_Y)
    assert classical_fidelity(rt.p, rt.q) == pytest.approx(F_DIAG, abs=1e-10)
    recon_x = sum(p * s for p, s in zip(rt.p, rt.states))
    recon_y = sum(q * s for q, s in zip(rt.q, rt.states))
    assert np.allclose(recon_x, DIAG_X, atol=1e-10)
    assert np.allclose(recon_y, DIAG_Y, atol=1e-10)


def test_twist_on_commuting_pair():
    # already commuting: optimal A = 0 and the twisted F_max meets F_min = F_max
    A = optimal_twist(DIAG_X, DIAG_Y)
    assert np.allclose(A, 0.0, atol=1e-14)
    eye = np.eye(2)
    twisted = (eye - 1j * A) @ DIAG_Y @ (eye + 1j * A)
    assert fidelity_max(DIAG_X, twisted) == pytest.approx(F_DIAG, abs=1e-12)


def _rotated_rank_deficient(dim, rank, rng):
    """Y = U diag(w, 0) U^dagger with a random unitary U, and its diagonal frame."""
    w = np.r_[rng.uniform(0.2, 2.0, rank), np.zeros(dim - rank)]
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    U, _ = np.linalg.qr(G)
    Y = (U * w) @ U.conj().T
    return U, 0.5 * (Y + Y.conj().T), np.diag(w).astype(complex)


@pytest.mark.parametrize("dim", [3, 4, 5, 6, 7, 8])
def test_fidelity_min_rotated_kernel(dim):
    # rank is decided on Y's eigenvalues, so a kernel off the coordinate axes
    # gives the value of the kernel-aligned frame
    for rank in sorted({dim - 1, dim // 2}):
        for t in range(5):
            rng = rng_for(60, dim, rank, t)
            X = random_pd(dim, rng)
            U, Y, D = _rotated_rank_deficient(dim, rank, rng)
            aligned = fidelity_min(U.conj().T @ X @ U, D)
            value = fidelity_min(X, Y)
            assert value == pytest.approx(aligned, abs=1e-9 * (1 + aligned))
            assert value <= fidelity_half(X, Y) + 1e-9
