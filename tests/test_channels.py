import numpy as np
import pytest

from fidlab.channels import (
    KrausChannel,
    Povm,
    adjoint,
    apply,
    measurement_channel,
    preparation_channel,
    random_cptp,
    random_pd,
    random_povm,
    rng_for,
)
from fidlab.errors import DimensionMismatch, InvalidPovm, InvalidState, NotPsd
from fidlab.fidelity import optimal_measurement, optimal_reverse_test

PLUS = np.full((2, 2), 0.5, dtype=complex)


def identity_channel(dim):
    return KrausChannel(dim_in=dim, dim_out=dim,
                        kraus_ops=[np.eye(dim, dtype=complex)])


def test_identity_channel():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    X = 0.5 * (X + X.conj().T)
    chan = identity_channel(3)
    assert chan.trace_preserving and chan.unital
    assert np.allclose(apply(chan, X), X)


def test_pinching_channel_on_plus():
    ops = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    chan = KrausChannel(dim_in=2, dim_out=2, kraus_ops=ops)
    assert np.allclose(apply(chan, PLUS), np.diag([0.5, 0.5]))


def test_adjoint_of_identity():
    chan = adjoint(identity_channel(2))
    assert np.allclose(apply(chan, PLUS), PLUS)


def test_adjoint_is_unital():
    chan = random_cptp(3, 3, 2, seed=5)
    adj = adjoint(chan)
    assert np.allclose(apply(adj, np.eye(3, dtype=complex)), np.eye(3), atol=1e-10)


def test_random_cptp_trace_preserving():
    chan = random_cptp(2, 3, 2, seed=7)
    assert chan.trace_preserving
    rng = np.random.default_rng(1)
    G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    X = G @ G.conj().T
    assert abs(np.trace(apply(chan, X)) - np.trace(X)) < 1e-10


def test_random_cptp_unitary_when_env_one():
    chan = random_cptp(3, 3, 1, seed=9)
    K = chan.kraus_ops[0]
    assert len(chan.kraus_ops) == 1
    assert np.allclose(K.conj().T @ K, np.eye(3), atol=1e-10)


def test_random_cptp_deterministic():
    a = random_cptp(3, 3, 2, seed=11)
    b = random_cptp(3, 3, 2, seed=11)
    for Ka, Kb in zip(a.kraus_ops, b.kraus_ops):
        assert np.array_equal(Ka, Kb)


def test_kraus_shape_validation():
    with pytest.raises(DimensionMismatch):
        KrausChannel(dim_in=2, dim_out=2, kraus_ops=[np.eye(3, dtype=complex)])


def test_povm_validation():
    with pytest.raises(InvalidPovm):
        Povm(dim=2, elements=[np.eye(2, dtype=complex), np.eye(2, dtype=complex)])
    with pytest.raises(InvalidPovm):
        Povm(dim=2, elements=[np.diag([2.0, 2.0]).astype(complex),
                              np.diag([-1.0, -1.0]).astype(complex)])


# each element or state is admitted once, by the rule every operand follows, and keeps its
# error type: a non-square one raises DimensionMismatch, a non-finite or out-of-range one
# InvalidPovm or InvalidState
def test_channel_operands_are_admitted_by_the_operand_rule():
    I2 = np.eye(2, dtype=complex)
    nan, tiny = np.diag([np.nan, 1.0]).astype(complex), 1e-120 * I2
    with pytest.raises(DimensionMismatch):
        Povm(dim=2, elements=[np.ones((2, 3)), I2])
    with pytest.raises(InvalidPovm, match="non-finite"):
        Povm(dim=2, elements=[nan, I2])
    with pytest.raises(InvalidPovm, match="outside"):
        Povm(dim=2, elements=[tiny, I2 - tiny])
    with pytest.raises(DimensionMismatch):
        preparation_channel([np.ones((2, 3))])
    with pytest.raises(InvalidState, match="non-finite"):
        preparation_channel([nan])
    with pytest.raises(InvalidState, match="outside"):
        preparation_channel([np.array([[0.5, 1e120], [1e120, 0.5]], dtype=complex)])


# apply takes any square operator and a channel any finite Kraus operators: a non-finite
# entry is refused by the gate's rule, not carried into an all-NaN output
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_non_finite_channel_inputs_are_refused(bad):
    B = np.diag([bad, 1.0]).astype(complex)
    with pytest.raises(NotPsd, match="^X has a non-finite entry"):
        apply(random_cptp(2, 2, 2, seed=1), B)
    with pytest.raises(NotPsd, match="^Kraus operator has a non-finite entry"):
        KrausChannel(dim_in=2, dim_out=2, kraus_ops=[B])
    with pytest.raises(NotPsd, match="^Kraus operator has a non-finite entry"):
        KrausChannel(dim_in=2, dim_out=3, kraus_ops=[np.vstack([B, np.ones((1, 2))])])


def test_measurement_channel_statistics():
    M = random_povm(2, 3, seed=3)
    chan = measurement_channel(M)
    assert chan.trace_preserving
    rho = PLUS
    out = apply(chan, rho)
    probs = np.array([np.trace(rho @ E).real for E in M.elements])
    assert np.allclose(np.diag(out).real, probs, atol=1e-10)
    assert np.max(np.abs(out - np.diag(np.diag(out)))) < 1e-10


def test_preparation_channel_basis_states():
    states = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    chan = preparation_channel(states)
    for i, rho in enumerate(states):
        e = np.zeros((2, 2), dtype=complex)
        e[i, i] = 1.0
        assert np.allclose(apply(chan, e), rho, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_kraus_count_is_total_rank(dim):
    # optimal_measurement's elements are rank-one projectors and the reverse
    # test's states have ranks summing to dim (its frame G is invertible), so
    # each map takes exactly dim Kraus operators: none from round-off eigenvalues
    for t in range(10):
        rng = rng_for(16, dim, t)
        X, Y = random_pd(dim, rng), random_pd(dim, rng)
        assert len(measurement_channel(optimal_measurement(X, Y)).kraus_ops) == dim
        assert len(preparation_channel(optimal_reverse_test(X, Y).states).kraus_ops) == dim


def test_preparation_channel_rejects_unnormalized():
    with pytest.raises(InvalidState):
        preparation_channel([np.diag([0.7, 0.7]).astype(complex)])


def test_random_povm_single_outcome():
    M = random_povm(3, 1, seed=0)
    assert np.allclose(M.elements[0], np.eye(3), atol=1e-10)


def test_rng_for_deterministic_and_split():
    a = rng_for(5, 1, 2).random(4)
    b = rng_for(5, 1, 2).random(4)
    c = rng_for(5, 1, 3).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
