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
from fidlab.channels import random_pd, rng_for

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
    "polar_max": ((3, 0), lambda X, Y, Yk: fidlab.polar_max(X, Y)),
    "polar_half": ((3, 0), lambda X, Y, Yk: fidlab.polar_half(X, Y)),
    "dual_optimizers_max": ((2, 1), lambda X, Y, Yk: fidlab.dual_optimizers("max", X, Y)),
    "dual_optimizers_min": ((3, 0), lambda X, Y, Yk: fidlab.dual_optimizers("min", X, Y)),
    "dual_optimizers_half": ((2, 0), lambda X, Y, Yk: fidlab.dual_optimizers("half", X, Y)),
    "optimal_reverse_test": ((3, 0), lambda X, Y, Yk: fidlab.optimal_reverse_test(X, Y)),
    # the operands, the SVD, the Schur test and the three of polar_max
    "duality_certificate_max": ((6, 1), lambda X, Y, Yk: fidlab.duality_certificate("max", X, Y)),
    # the operands and the three of polar_half
    "duality_certificate_half": ((5, 0), lambda X, Y, Yk: fidlab.duality_certificate("half", X, Y)),
}


@pytest.fixture
def lapack_calls(monkeypatch):
    counts = Counter()

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


@pytest.mark.parametrize("dim", [3, 8])
@pytest.mark.parametrize("call", sorted(CALLS))
def test_decompositions_per_call(call, dim, lapack_calls):
    rng = rng_for(70, dim)
    X, Y, Yk = random_pd(dim, rng), random_pd(dim, rng), _rotated_kernel(dim, dim - 1, rng)
    (eighs, svds), run = CALLS[call]
    run(X, Y, Yk)
    assert lapack_calls["eigh"] + lapack_calls["eigvalsh"] == eighs
    assert lapack_calls["svd"] == svds
    assert lapack_calls["spectral_norm"] == 0


@pytest.mark.parametrize("dim", [3, 8])
def test_min_certificate_takes_no_svd(dim, lapack_calls):
    # its eigvalsh count is set by the polar_min bracket and has a ceiling below
    rng = rng_for(70, dim)
    fidlab.duality_certificate("min", random_pd(dim, rng), random_pd(dim, rng))
    assert lapack_calls["svd"] == 0
    assert lapack_calls["spectral_norm"] == 0


# ceilings on eigh + eigvalsh per call where the polar_min bracket sets the
# count, at dims >= 3 (for the min certificate, the bracket on its boundary
# pair L*), measured with the chord bound and chord split; a midpoint split on
# the endpoint bound min(g(a), g(b)) / cosh(h) takes 35/39/42/40 and 95/130.
# Dim 2 takes the exact qubit form and no bracket, so its counts are exact.
BRACKET_CEILINGS = {
    ("polar_min", 3): 11, ("polar_min", 4): 15, ("polar_min", 8): 20, ("polar_min", 12): 17,
    ("duality_certificate_min", 3): 32, ("duality_certificate_min", 4): 47,
}


@pytest.mark.parametrize("call, dim", sorted(BRACKET_CEILINGS))
def test_polar_min_bracket_decompositions(call, dim, lapack_calls):
    rng = rng_for(70, dim)
    X, Y = random_pd(dim, rng), random_pd(dim, rng)
    if call == "polar_min":
        fidlab.polar_min(X, Y)
    else:
        fidlab.duality_certificate("min", X, Y)
    assert lapack_calls["eigh"] + lapack_calls["eigvalsh"] <= BRACKET_CEILINGS[call, dim]


def test_qubit_polar_min_decompositions(lapack_calls):
    rng = rng_for(70, 2)
    fidlab.polar_min(random_pd(2, rng), random_pd(2, rng))
    assert lapack_calls["eigh"] + lapack_calls["eigvalsh"] == 2
    assert lapack_calls["svd"] == 0


def test_qubit_min_certificate_decompositions(lapack_calls):
    # the two operands, the min frame, the Schur test and the two operands of
    # the qubit polar of L*; the bracket on L* in its place makes it 19 here
    rng = rng_for(70, 2)
    fidlab.duality_certificate("min", random_pd(2, rng), random_pd(2, rng))
    assert lapack_calls["eigh"] + lapack_calls["eigvalsh"] == 6
    assert lapack_calls["svd"] == 0
    assert lapack_calls["spectral_norm"] == 0


# scipy.optimize stays unloaded by the import, by a dim-2 polar_min with
# unequal Bloch radii (the qubit circle minimum) and by a whole
# `fidlab compute` on the same pair
_SCIPY_PROBE = """
import contextlib, io, json, sys
import numpy as np
import fidlab, fidlab.cli
loaded = ["scipy.optimize" in sys.modules]
fidlab.polar_min(*(np.array([[complex(*z) for z in row] for row in m["entries"]])
                   for m in json.load(open(sys.argv[1]))))
loaded.append("scipy.optimize" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = fidlab.cli.main(["compute", sys.argv[1], "--format", "json"])
loaded.append("scipy.optimize" in sys.modules)
print(code, *loaded)
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
    assert out.stdout.split() == ["0", "False", "False", "False"]
