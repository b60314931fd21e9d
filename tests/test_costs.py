import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import numpy.linalg as npl
import pytest

import fidlab
import fidlab.cli
from fidlab import linalg_core
from fidlab.channels import random_pd, rng_for

FIDELITY_MODULE = sys.modules["fidlab.fidelity"]  # fidlab.fidelity is the function
POLAR_MODULE = sys.modules["fidlab.polar"]  # and so is fidlab.polar
CERTIFY_MODULE = sys.modules["fidlab.certify"]

# LAPACK decompositions per call, (eigh + eigvalsh, svd), with Y_k a
# rank-deficient Y with a rotated kernel: every operand is decomposed once,
# the max optimizers all come from one SVD of sqrt(X) sqrt(Y), every min-kind
# quantity from one eigh of Y^{-1/2} X Y^{-1/2}, and no tolerance takes a
# spectral norm (an SVD) of a Hermitian operand
CALLS = {
    "fidelity_max": ((3, 0), lambda X, Y, Yk: fidlab.fidelity_max(X, Y)),
    "fidelity_half": ((2, 0), lambda X, Y, Yk: fidlab.fidelity_half(X, Y)),
    "fidelity_min": ((3, 0), lambda X, Y, Yk: fidlab.fidelity_min(X, Y)),
    "fidelity_min_rank_deficient": ((4, 0), lambda X, Y, Yk: fidlab.fidelity_min(X, Yk)),
    "polar_max": ((2, 1), lambda X, Y, Yk: fidlab.polar_max(X, Y)),
    "polar_half": ((3, 0), lambda X, Y, Yk: fidlab.polar_half(X, Y)),
    "dual_optimizers_max": ((2, 1), lambda X, Y, Yk: fidlab.dual_optimizers("max", X, Y)),
    "dual_optimizers_min": ((3, 0), lambda X, Y, Yk: fidlab.dual_optimizers("min", X, Y)),
    "dual_optimizers_half": ((2, 0), lambda X, Y, Yk: fidlab.dual_optimizers("half", X, Y)),
    "optimal_reverse_test": ((3, 0), lambda X, Y, Yk: fidlab.optimal_reverse_test(X, Y)),
    # the operands and the min frame: the one path to F_min's twist form
    "optimal_twist": ((3, 0), lambda X, Y, Yk: fidlab.optimal_twist(X, Y)),
    # the operands, sigma_min(sqrt(L0) sqrt(L1)) and the slack of polar_max
    "povm_lower_bound": ((3, 1), lambda X, Y, Yk: fidlab.povm_lower_bound(X, Y)),
    # the operands, the SVD, the Schur test and the dual block
    "duality_certificate_max": ((4, 1), lambda X, Y, Yk: fidlab.duality_certificate("max", X, Y)),
    # the operands, the min frame, the Schur test and the dual block at the optimal twist
    "duality_certificate_min": ((5, 0), lambda X, Y, Yk: fidlab.duality_certificate("min", X, Y)),
    # the operands, L*'s two spectra from one stacked eigh, and the eigenvalue problem of its
    # polar: the qubit form's 3 x 3 at dim 2, the Collatz-Wielandt check at the witness sqrt X
    # above. L* is PSD by construction, so it is decomposed but not admitted or memoized
    "duality_certificate_half": ((4, 0), lambda X, Y, Yk: fidlab.duality_certificate("half", X, Y)),
}
# at dim 2 the max polar is the qubit form's stable root off the operands' spectra: no SVD
CALLS_AT_DIM2 = {"polar_max": (2, 0), "povm_lower_bound": (3, 0)}


class _ColdCounts(Counter):
    """LAPACK call counts whose clear() also empties the operand spectrum memo."""

    def clear(self):
        super().clear()
        linalg_core._SPECTRA.clear()


# counts start cold: no operand spectrum is left in the memo by an earlier test
@pytest.fixture
def lapack_calls(monkeypatch):
    counts = _ColdCounts()
    counts.clear()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if name == "norm":
                ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
                if ord_ not in (2, -2, "nuc"):
                    return fn(*args, **kwargs)
                name_ = "spectral_norm"
            else:
                name_ = name
            counts[name_] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh", "svd", "norm"):
        monkeypatch.setattr(npl, name, counted(name, getattr(npl, name)))
    return counts


def _rotated_kernel(dim, rank, rng):
    w = np.r_[rng.uniform(0.2, 2.0, rank), np.zeros(dim - rank)]
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    U, _ = np.linalg.qr(G)
    Y = (U * w) @ U.conj().T
    return 0.5 * (Y + Y.conj().T)


@pytest.mark.parametrize("dim", [2, 3, 8])
@pytest.mark.parametrize("call", sorted(CALLS))
def test_decompositions_per_call(call, dim, lapack_calls):
    rng = rng_for(70, dim)
    X, Y, Yk = random_pd(dim, rng), random_pd(dim, rng), _rotated_kernel(dim, dim - 1, rng)
    (eighs, svds), run = CALLS[call]
    if dim == 2:
        eighs, svds = CALLS_AT_DIM2.get(call, (eighs, svds))
    run(X, Y, Yk)
    assert lapack_calls["eigh"] + lapack_calls["eigvalsh"] == eighs
    assert lapack_calls["svd"] == svds
    assert lapack_calls["spectral_norm"] == 0


def _rotation(dim, rng):
    return npl.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]


def _rotated_pair(X, Y, U):
    return U @ X @ U.conj().T, U @ Y @ U.conj().T


# eigh + eigvalsh on a cold memo at dim 2: convertibility_necessary admits both pairs and
# reads their ranks and both polars off them, so it decomposes each distinct operand once
# and the two differences; mfmax_membership reads the spectra polar_max left in the memo
QUBIT_CALLS = {
    "convertibility_necessary_identical_pairs":
        (4, lambda X, Y, U: fidlab.convertibility_necessary(X, Y, X, Y)),
    "convertibility_necessary_rotated_target":
        (6, lambda X, Y, U: fidlab.convertibility_necessary(X, Y, *_rotated_pair(X, Y, U))),
    "polar_max_then_mfmax_membership":
        (3, lambda X, Y, U: (fidlab.polar_max(X, Y), fidlab.mfmax_membership(X, Y))),
}


@pytest.mark.parametrize("call", sorted(QUBIT_CALLS))
def test_qubit_decompositions_per_call(call, lapack_calls):
    rng = rng_for(70, 2)
    X, Y, U = random_pd(2, rng), random_pd(2, rng), _rotation(2, rng)
    eighs, run = QUBIT_CALLS[call]
    # a unitary conjugation is unital CP, so convertibility runs every check and holds
    assert run(X, Y, U)
    assert lapack_calls["eigh"] + lapack_calls["eigvalsh"] == eighs


# every public function that takes operands, as a call on X, Y, a rank-deficient Yk and a
# rotation U; the qubit closed forms run at dim 2 only
OPERAND_CALLS = {
    **{f"{name}_{kind}": lambda X, Y, Yk, U, f=getattr(fidlab, name), kind=kind: f(kind, X, Y)
       for name in ("fidelity", "polar", "polar_membership", "duality_certificate",
                    "dual_optimizers") for kind in ("max", "min", "half")},
    **{name: lambda X, Y, Yk, U, f=getattr(fidlab, name): f(X, Y)
       for name in ("fidelity_max", "fidelity_half", "polar_max", "polar_min", "polar_half",
                    "mfmax_membership", "optimal_measurement", "optimal_reverse_test",
                    "optimal_twist", "povm_lower_bound", "lyapunov_solve",
                    "composed_lyapunov_spectrum", "positive_fixed_point", "polar_max_qubit",
                    "polar_min_qubit", "mfmin_qubit_membership")},
    **{name: lambda X, Y, Yk, U, f=getattr(fidlab, name): f(X, Yk)
       for name in ("fidelity_min", "schur_reduce")},
    **{name: lambda X, Y, Yk, U, f=getattr(fidlab, name): f(Yk)
       for name in ("psd_sqrt", "pinv", "support_projector")},
    "block_psd": lambda X, Y, Yk, U: fidlab.block_psd(X, 0.1 * U, Yk),
    "frame_from_operator": lambda X, Y, Yk, U: fidlab.frame_from_operator(X),
    "convertibility_necessary_rotated_target":
        lambda X, Y, Yk, U: fidlab.convertibility_necessary(X, Y, *_rotated_pair(X, Y, U)),
}
QUBIT_ONLY = {"polar_max_qubit", "polar_min_qubit", "mfmin_qubit_membership",
              "frame_from_operator", "convertibility_necessary_rotated_target"}


# no public call decomposes one operand twice: on a cold memo, each operand's Hermitian
# part (hermitianizing is exact on a Hermitian matrix, so the bytes match) reaches eigh
# or eigvalsh at most once per call
@pytest.mark.parametrize("call, dim", [(c, d) for c in sorted(OPERAND_CALLS)
                                       for d in ((2,) if c in QUBIT_ONLY else (2, 3))])
def test_no_call_decomposes_an_operand_twice(call, dim, monkeypatch):
    rng = rng_for(71, dim)
    X, Y, Yk = random_pd(dim, rng), random_pd(dim, rng), _rotated_kernel(dim, dim - 1, rng)
    U = _rotation(dim, rng)
    operands = [X, Y, Yk, *_rotated_pair(X, Y, U)]
    seen = Counter()
    keys = {linalg_core.hermitianize(np.asarray(A, dtype=complex)).tobytes() for A in operands}

    def recorded(fn):
        def wrapper(a, *args, **kwargs):
            key = np.asarray(a, dtype=complex).tobytes()
            if np.shape(a) == (dim, dim) and key in keys:
                seen[key] += 1
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(npl, name, recorded(getattr(npl, name)))
    linalg_core._SPECTRA.clear()
    OPERAND_CALLS[call](X, Y, Yk, U)
    # cold, so each call decomposes at least one operand, and none more than once
    assert set(seen.values()) == {1}


def _povm_elements(X):
    # rho / 2 and I - rho / 2 for rho = X / tr X: PSD, exactly Hermitian, and summing to I
    E = X / (2 * np.trace(X).real)
    return [E, np.eye(len(X)) - E]


def _states(X, Y):
    return [X / np.trace(X).real, Y / np.trace(Y).real]


GATE_CALLS = {
    **OPERAND_CALLS,
    "Povm": lambda X, Y, Yk, U: fidlab.Povm(len(X), _povm_elements(X)),
    "preparation_channel": lambda X, Y, Yk, U: fidlab.preparation_channel(_states(X, Y)),
}


# no public call gates one operand twice: on a cold memo, each operand's Hermitian part
# reaches linalg_core.as_square, the first step of every gate, at most once per call,
# wherever a fidlab module binds it
@pytest.mark.parametrize("call, dim", [(c, d) for c in sorted(GATE_CALLS)
                                       for d in ((2,) if c in QUBIT_ONLY else (2, 3))])
def test_no_call_gates_an_operand_twice(call, dim, monkeypatch):
    rng = rng_for(71, dim)
    X, Y, Yk = random_pd(dim, rng), random_pd(dim, rng), _rotated_kernel(dim, dim - 1, rng)
    U = _rotation(dim, rng)
    operands = [X, Y, Yk, *_rotated_pair(X, Y, U), *_povm_elements(X), *_states(X, Y)]
    keys = {linalg_core.hermitianize(np.asarray(A, dtype=complex)).tobytes() for A in operands}
    seen = Counter()
    as_square = linalg_core.as_square

    def recorded(a):
        if np.shape(a) == (dim, dim):
            key = linalg_core.hermitianize(np.asarray(a, dtype=complex)).tobytes()
            if key in keys:
                seen[key] += 1
        return as_square(a)

    for name, module in list(sys.modules.items()):
        if name.startswith("fidlab") and getattr(module, "as_square", None) is as_square:
            monkeypatch.setattr(module, "as_square", recorded)
    linalg_core._SPECTRA.clear()
    GATE_CALLS[call](X, Y, Yk, U)
    # each call gates at least one operand, and none more than once
    assert set(seen.values()) == {1}


# eigh + eigvalsh for three public calls on one pair, as the benchmark's states
# and duals ops make them: the first call decomposes both operands, and the
# next two read their spectra from the memo (without it, 4 more each)
TRIPLES = {
    "states": ({2: 4, 3: 4, 8: 4, 32: 4},
               lambda X, Y: (fidlab.fidelity_max(X, Y), fidlab.fidelity_min(X, Y),
                             fidlab.fidelity_half(X, Y))),
    "duals": ({2: 3, 3: 12, 4: 16, 8: 21},
              lambda X, Y: (fidlab.polar_max(X, Y), fidlab.polar_half(X, Y),
                            fidlab.polar_min(X, Y))),
}


@pytest.mark.parametrize("triple, dim", [(t, d) for t in sorted(TRIPLES) for d in TRIPLES[t][0]])
def test_decompositions_per_triple_on_one_pair(triple, dim, lapack_calls):
    rng = rng_for(70, dim)
    counts, run = TRIPLES[triple]
    run(random_pd(dim, rng), random_pd(dim, rng))
    assert lapack_calls["eigh"] + lapack_calls["eigvalsh"] == counts[dim]


def _compute(tmp_path, X, B):
    """One in-process `fidlab compute` request on the pair (X, B)."""
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps([
        {"dim": H.shape[0], "entries": [[[z.real, z.imag] for z in row] for row in H.tolist()]}
        for H in (X, B)]))
    assert fidlab.cli.main(["compute", str(pair), "--format", "json"]) == 0


# (eigh + eigvalsh, svd) per in-process `fidlab compute` request, on a definite pair
# and with Y_k: the pair is admitted once, every fidelity, polar and
# certificate is a kernel over it, and the min frame is taken once for F_min
# and the min certificate; the half certificate takes the two spectra of its dual
# pair L* in one stacked eigh, with no admission, and one eigenvalue problem for its
# polar (the qubit form's 3 x 3, or the witness check above dim 2). At dim 2 the dual-body
# memberships are read off the three polars and take no decomposition of their own.
# The definite pair's max certificate takes one SVD, and so does its polar_max above dim 2.
COMPUTE = {2: ((11, 1), (5, 0)), 3: ((20, 2), (5, 0)), 4: ((24, 2), (5, 0)),
           8: ((29, 2), (5, 0))}


@pytest.mark.parametrize("dim", sorted(COMPUTE))
def test_decompositions_per_compute_request(dim, tmp_path, lapack_calls):
    rng = rng_for(70, dim)
    X, Y, Yk = random_pd(dim, rng), random_pd(dim, rng), _rotated_kernel(dim, dim - 1, rng)
    for (expected, svds), B in zip(COMPUTE[dim], (Y, Yk)):
        lapack_calls.clear()
        _compute(tmp_path, X, B)
        assert lapack_calls["eigh"] + lapack_calls["eigvalsh"] == expected
        assert lapack_calls["svd"] == svds


# at dim 2 every polar is a scalar function of the pair's five spectral invariants: no
# path builds the 4 x 4 Gram of S_L0 o S_L1, and none takes numpy.roots, whose companion
# eigenvalues the benchmark's shim cannot see. (I, Y) has no M0 frame, so
# mfmin_qubit_membership falls back to the min polar.
DIM2_CALLS = {
    "polar_half": lambda X, Y, path: fidlab.polar_half(X, Y),
    "polar_min": lambda X, Y, path: fidlab.polar_min(X, Y),
    **{f"polar_membership_{kind}": lambda X, Y, path, kind=kind: fidlab.polar_membership(kind, X, Y)
       for kind in ("max", "min", "half")},
    "duality_certificate_half": lambda X, Y, path: fidlab.duality_certificate("half", X, Y),
    "mfmin_qubit_membership_fallback":
        lambda X, Y, path: fidlab.mfmin_qubit_membership(np.eye(2, dtype=complex), Y),
    "compute": lambda X, Y, path: _compute(path, X, Y),
}


@pytest.mark.parametrize("call", sorted(DIM2_CALLS))
def test_dim2_paths_take_no_gram_and_no_numpy_roots(call, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{call} left the qubit invariants")

    for module in (sys.modules["fidlab.superop"], POLAR_MODULE):
        monkeypatch.setattr(module, "_composed_lyapunov_matrix", refuse)
    monkeypatch.setattr(np, "roots", refuse)
    rng = rng_for(70, 2)
    DIM2_CALLS[call](random_pd(2, rng), random_pd(2, rng), tmp_path)


# F_min and the min certificate read the one min frame the request's pair keeps
@pytest.mark.parametrize("dim", [2, 3])
def test_compute_takes_the_min_frame_once(dim, tmp_path, monkeypatch):
    calls = []
    frame = FIDELITY_MODULE._min_frame
    monkeypatch.setattr(FIDELITY_MODULE, "_min_frame",
                        lambda *args: calls.append(args) or frame(*args))
    rng = rng_for(70, dim)
    _compute(tmp_path, random_pd(dim, rng), random_pd(dim, rng))
    assert len(calls) == 1


# the memo holds operands only: the half certificate's dual pair L* is
# decomposed without being admitted, so it takes no entry
@pytest.mark.parametrize("dim", [2, 3])
def test_compute_memoizes_its_two_operands_only(dim, tmp_path):
    rng = rng_for(70, dim)
    X, Y = random_pd(dim, rng), random_pd(dim, rng)
    linalg_core._SPECTRA.clear()
    _compute(tmp_path, X, Y)
    assert len(linalg_core._SPECTRA) == 2


# a channel decomposes nothing when it is built: its trace_preserving and
# unital flags are decided when read, one eigh each, and measurement_channel
# reuses the element supports its Povm decomposed to validate them
@pytest.mark.parametrize("build", [
    lambda chan, M: fidlab.measurement_channel(M),
    lambda chan, M: fidlab.random_cptp(3, 3, 2, seed=2),
    lambda chan, M: fidlab.adjoint(chan),
], ids=["measurement_channel", "random_cptp", "adjoint"])
def test_channels_decompose_no_operator_when_built(build, lapack_calls):
    M, chan = fidlab.random_povm(3, 4, seed=1), fidlab.random_cptp(3, 3, 2, seed=2)
    lapack_calls.clear()
    built = build(chan, M)
    assert sum(lapack_calls.values()) == 0
    # each is trace preserving or, for the adjoint, unital
    assert True in (built.trace_preserving, built.unital)
    assert lapack_calls["eigh"] == 2


@pytest.mark.parametrize("dim", [3, 8])
def test_min_certificate_takes_no_svd(dim, lapack_calls):
    rng = rng_for(70, dim)
    fidlab.duality_certificate("min", random_pd(dim, rng), random_pd(dim, rng))
    assert lapack_calls["svd"] == 0
    assert lapack_calls["spectral_norm"] == 0


# ceilings on eigh + eigvalsh per polar_min at dims >= 3, where the bracket
# sets the count, measured with the chord bound and chord split; a midpoint
# split on the endpoint bound min(g(a), g(b)) / cosh(h) takes 35/39/42/40.
# Dim 2 takes the exact qubit form and no bracket, so its count is exact.
# No certificate runs the bracket: its dual check is one block eigenvalue.
BRACKET_CEILINGS = {
    ("polar_min", 3): 11, ("polar_min", 4): 15, ("polar_min", 8): 20, ("polar_min", 12): 17,
}


@pytest.mark.parametrize("call, dim", sorted(BRACKET_CEILINGS))
def test_polar_min_bracket_decompositions(call, dim, lapack_calls):
    rng = rng_for(70, dim)
    fidlab.polar_min(random_pd(dim, rng), random_pd(dim, rng))
    assert lapack_calls["eigh"] + lapack_calls["eigvalsh"] <= BRACKET_CEILINGS[call, dim]


def test_qubit_polar_min_decompositions(lapack_calls):
    rng = rng_for(70, 2)
    fidlab.polar_min(random_pd(2, rng), random_pd(2, rng))
    assert lapack_calls["eigh"] + lapack_calls["eigvalsh"] == 2
    assert lapack_calls["svd"] == 0


# no scipy module is loaded by the import, by a dim-2 polar_min with unequal
# Bloch radii (the qubit circle minimum), by optimal_twist, by povm_lower_bound,
# by the Lanczos bracket of a dim-12 polar_half or the witness of a dim-16 half
# certificate (scipy.sparse.linalg.eigsh would be the shortcut), by a whole
# `fidlab compute` on the same pair, by `fidlab verify duality` or by
# `fidlab verify operational`, which runs povm_lower_bound on every trial
_SCIPY_PROBE = """
import contextlib, io, json, sys
import numpy as np
import fidlab, fidlab.cli
pair = [np.array([[complex(*z) for z in row] for row in m["entries"]])
        for m in json.load(open(sys.argv[1]))]
def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
loaded = [scipy_loaded()]
for call in (fidlab.polar_min, fidlab.optimal_twist, fidlab.povm_lower_bound):
    call(*pair)
    loaded.append(scipy_loaded())
rng = np.random.default_rng(12)
def pd(dim):
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return G @ G.conj().T / dim + 0.05 * np.eye(dim)
fidlab.polar_half(pd(12), pd(12))
loaded.append(scipy_loaded())
fidlab.duality_certificate("half", pd(16), pd(16))
loaded.append(scipy_loaded())
codes = []
for argv in (["compute", sys.argv[1], "--format", "json"],
             ["verify", "duality", "--trials", "1", "--reproducible"],
             ["verify", "operational", "--trials", "1", "--reproducible"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(fidlab.cli.main(argv))
    loaded.append(scipy_loaded())
print(*codes, *loaded)
"""


def test_import_does_not_load_scipy_optimize(tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps([
        {"dim": 2, "entries": [[[2.0, 0.0], [0.5, 0.3]], [[0.5, -0.3], [1.0, 0.0]]]},
        {"dim": 2, "entries": [[[1.0, 0.0], [0.0, -0.2]], [[0.0, 0.2], [3.0, 0.0]]]},
    ]))
    env = dict(os.environ)
    src = str(Path(fidlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(pair)], env=env,
                         check=True, capture_output=True, text=True, timeout=60)
    assert out.stdout.split() == ["0", "0", "0"] + ["False"] * 9


# above the crossover, polar_half and the half certificate decompose d x d matrices (operands,
# L*, Collatz-Wielandt pencils) and Lanczos tridiagonals of at most the step cap, never the
# d^2 x d^2 Gram
@pytest.mark.parametrize("dim", [12, 16])
@pytest.mark.parametrize("call", ["polar_half", "duality_certificate_half"])
def test_half_paths_decompose_nothing_above_the_step_cap(call, dim, monkeypatch):
    sizes = []

    def recorded(fn):
        def wrapper(a, *args, **kwargs):
            sizes.append(np.shape(a)[-1])
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh", "cholesky"):
        monkeypatch.setattr(npl, name, recorded(getattr(npl, name)))
    linalg_core._SPECTRA.clear()
    rng = rng_for(70, dim)
    CALLS[call][1](random_pd(dim, rng), random_pd(dim, rng), None)
    assert sizes
    assert max(sizes) <= max(dim, POLAR_MODULE._LANCZOS_STEPS_PER_DIM * dim)


# at the half optimizers S_L0*(S_L1*(sqrt X)) = sqrt X, so the witness closes the bracket
# on L*'s polar with no Lanczos step and no Gram
def test_dim16_half_certificate_takes_no_lanczos_step(monkeypatch):
    def refuse(*args):
        raise AssertionError("the half certificate left its witness")

    monkeypatch.setattr(POLAR_MODULE, "_lanczos_bracket", refuse)
    monkeypatch.setattr(POLAR_MODULE, "_composed_lyapunov_matrix", refuse)
    rng = rng_for(70, 16)
    assert fidlab.duality_certificate("half", random_pd(16, rng), random_pd(16, rng)).is_valid


# below the Lanczos dim too: at dims 3-11 the witness closes the bracket, so the half
# certificate builds no d^2 x d^2 Gram
@pytest.mark.parametrize("dim", [3, 8, 11])
def test_half_certificate_closes_on_its_witness_below_the_lanczos_dim(dim, monkeypatch):
    def refuse(*args):
        raise AssertionError("the half certificate left its witness")

    monkeypatch.setattr(POLAR_MODULE, "_lanczos_bracket", refuse)
    monkeypatch.setattr(POLAR_MODULE, "_composed_lyapunov_matrix", refuse)
    rng = rng_for(70, dim)
    assert fidlab.duality_certificate("half", random_pd(dim, rng), random_pd(dim, rng)).is_valid


# a certificate on an admitted definite pair neither re-validates a matrix (L* is Hermitian
# by construction and decomposed as it stands) nor looks for a kernel the pair cannot have
@pytest.mark.parametrize("dim", [2, 3, 8])
@pytest.mark.parametrize("kind", ["max", "min", "half"])
def test_certificate_on_a_definite_pair_takes_no_gate_and_no_kernel(kind, dim, monkeypatch):
    rng = rng_for(70, dim)
    pair = linalg_core.psd_pair(random_pd(dim, rng), random_pd(dim, rng), definite=True)

    def refuse(*args, **kwargs):
        raise AssertionError(f"the {kind} certificate re-validated or looked for a kernel")

    monkeypatch.setattr(linalg_core, "_hermitian", refuse)
    monkeypatch.setattr(linalg_core.Spectrum, "kernel", refuse)
    assert CERTIFY_MODULE._certificate(kind, pair).is_valid


# optimal_measurement's L0* is an intermediate: it takes no memo entry, so a cold call
# leaves the two operands and the Povm's three rank-one elements
def test_optimal_measurement_memoizes_no_intermediate():
    rng = rng_for(70, 3)
    X, Y = random_pd(3, rng), random_pd(3, rng)
    linalg_core._SPECTRA.clear()
    fidlab.optimal_measurement(X, Y)
    assert len(linalg_core._SPECTRA) == 5
