import json

import numpy as np
import pytest

import fidlab
from fidlab.channels import random_pd, rng_for
from fidlab.cli import build_parser, load_pair, main
from fidlab.errors import FidlabError


def _write_matrix(path, diag):
    obj = {
        "dim": len(diag),
        "entries": [
            [[float(diag[i]) if i == j else 0.0, 0.0] for j in range(len(diag))]
            for i in range(len(diag))
        ],
    }
    path.write_text(json.dumps(obj))


def test_compute_half_identity_pair(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    _write_matrix(a, [0.5, 0.5])
    _write_matrix(b, [0.5, 0.5])
    assert main(["compute", str(a), str(b), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    for kind in ("max", "min", "half"):
        assert out[f"fidelity_{kind}"] == pytest.approx(1.0, abs=1e-9)
        assert out[f"polar_{kind}"] == pytest.approx(1.0, abs=1e-9)
    assert out["dual_body_membership"]["max"] is True


def test_compute_single_file_pair(tmp_path, capsys):
    pair = tmp_path / "pair.json"
    objs = []
    for diag in ([0.5, 0.5], [0.25, 0.75]):
        objs.append({
            "dim": 2,
            "entries": [[[diag[0], 0.0], [0.0, 0.0]], [[0.0, 0.0], [diag[1], 0.0]]],
        })
    pair.write_text(json.dumps(objs))
    assert main(["compute", str(pair), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    expected = float(np.sqrt(0.125) + np.sqrt(0.375))
    for kind in ("max", "min", "half"):
        assert out[f"fidelity_{kind}"] == pytest.approx(expected, abs=1e-7)


def test_compute_as_dual_flag(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    _write_matrix(a, [0.5, 0.5])
    _write_matrix(b, [0.5, 0.5])
    assert main(["compute", str(a), str(b), "--as-dual", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["interpretation"] == "dual"
    assert out["polar_max"] == pytest.approx(1.0, abs=1e-9)


def test_compute_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["compute", str(bad)]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_compute_rejects_asymmetry(tmp_path, capsys):
    asym = tmp_path / "asym.json"
    asym.write_text(json.dumps([
        {"dim": 2, "entries": [[[1, 0], [0.5, 0]], [[0.2, 0], [1, 0]]]},
        {"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
    ]))
    assert main(["compute", str(asym)]) == 2
    assert "asymmetry" in capsys.readouterr().err


def test_compute_rejects_boolean_dim(tmp_path, capsys):
    # bool is an int in Python, so "dim": true once read as dim 1
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps([{"dim": True, "entries": [[[1.0, 0.0]]]}] * 2))
    assert main(["compute", str(pair)]) == 2
    assert "invalid dim" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_compute_rejects_non_finite_entries(bad, tmp_path, capsys):
    # json.load accepts these tokens; they must not reach an eigendecomposition
    pair = tmp_path / "pair.json"
    good = '{"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}'
    pair.write_text(f'[{good.replace("[1, 0], [0, 0]]", f"[{bad}, 0], [0, 0]]", 1)}, {good}]')
    assert main(["compute", str(pair)]) == 2
    assert "entries must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [[True, False], [1, 0, 7], {"re": 1}, [10 ** 400, 0]],
                         ids=["boolean", "three-numbers", "object", "beyond-float"])
def test_compute_rejects_entries_that_are_not_number_pairs(entry, tmp_path, capsys):
    # only [re, im] lists of two finite JSON numbers are read; bool is an int in Python
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps([{"dim": 1, "entries": [[entry]]}] * 2))
    assert main(["compute", str(pair)]) == 2
    assert "[re, im] pair" in capsys.readouterr().err


def test_compute_rejects_unequal_dimensions(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    _write_matrix(a, [0.5, 0.5])
    _write_matrix(b, [0.25, 0.25, 0.5])
    assert main(["compute", str(a), str(b)]) == 2
    assert "error: DimensionMismatch" in capsys.readouterr().err


def test_verify_sandwich_passes(capsys):
    code = main(["verify", "sandwich", "--dims", "2,3", "--trials", "3",
                 "--seed", "42", "--reproducible"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["failures"] == []
    assert out["suite"] == "sandwich"
    assert "timestamp" not in out


def test_verify_reproducible_byte_identical(capsys):
    args = ["verify", "errata", "--seed", "1", "--reproducible"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_verify_timestamp_present_by_default(capsys):
    assert main(["verify", "errata", "--seed", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "timestamp" in out


@pytest.mark.parametrize("argv", [
    ["sandwich", "--trials", "0"],
    ["sandwich", "--trials", "-3"],
    ["sandwich", "--dims", "0", "--trials", "2"],
    ["duality", "--dims", "-1"],
    ["duality", "--dims", "2,0", "--trials", "1"],
    ["sandwich", "--dims", "2", "--trials", "1", "--seed", "-1"],
], ids=["zero-trials", "negative-trials", "zero-dim", "negative-dim", "zero-dim-in-list",
        "negative-seed"])
def test_verify_rejects_out_of_range_arguments(argv, capsys):
    # exit 1 is reserved for invariant failures, so an out-of-range argument exits 2
    assert main(["verify", *argv]) == 2
    assert "must be >= " in capsys.readouterr().err


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nosuch"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_boundary_csv_contract(tmp_path):
    out_path = tmp_path / "boundary.csv"
    code = main(["boundary", "--l", "1", "--m", "0", "--n-samples", "100",
                 "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "s,alpha,x,y,z,w,w_min"
    assert len(lines) == 101
    s_vals = [float(line.split(",")[0]) for line in lines[1:]]
    assert min(s_vals) == -2.0
    assert max(s_vals) == 2.0


def test_boundary_degenerate_frame(capsys):
    assert main(["boundary", "--l", "0", "--m", "1"]) == 2
    assert "DegenerateFrame" in capsys.readouterr().err


def test_compute_singular_qubit_pair_reports_boolean_memberships(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    _write_matrix(a, [1.0, 0.0])
    _write_matrix(b, [5.0, 5.0])
    assert main(["compute", str(a), str(b), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["polar_min"] == 0.0
    assert out["dual_body_membership"] == {"max": False, "min": False, "half": False}


def test_compute_as_dual_refuses_a_pair_just_outside_the_min_body(tmp_path, capsys):
    # L0 = diag(1, 2): L0^{-1} has the frame l = 1/4 in the standard basis. K's scaled
    # coordinates x' = 1, z = 1e-4 and w halfway from f2 up to M0's boundary put
    # 4 L1 = L0^{-1} + sqrt(L0) K sqrt(L0) just outside the min-fidelity dual body
    x_prime, z = 1.0, 1e-4
    w = (fidlab.f2(x_prime, z) + fidlab.w2_min_oracle(x_prime, z)) / 2
    K = np.array([[w + z, x_prime], [x_prime, w - z]]) / 16
    sq = np.diag([1.0, np.sqrt(2.0)])
    L0, L1 = np.diag([1.0, 2.0]), (np.diag([1.0, 0.5]) + sq @ K @ sq) / 4
    path = tmp_path / "pair.json"
    path.write_text(json.dumps([
        {"dim": 2, "entries": [[[float(v), 0.0] for v in row] for row in H]} for H in (L0, L1)]))
    assert main(["compute", str(path), "--as-dual", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["polar_min"] < 1.0 - 1e-9
    assert out["dual_body_membership"]["min"] is False


def test_compute_as_dual_reports_a_commuting_pair_outside_every_body(tmp_path, capsys):
    # on a commuting pair the three bodies coincide: all three polars are
    # 2 sqrt(1e-4 * 2497.5) = 0.99950, so no body holds the pair
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    _write_matrix(a, [1e-4, 1.0])
    _write_matrix(b, [2497.5, 0.25])
    assert main(["compute", str(a), str(b), "--as-dual", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    for kind in ("max", "min", "half"):
        assert out[f"polar_{kind}"] == pytest.approx(2 * np.sqrt(0.24975), rel=1e-12)
    assert out["dual_body_membership"] == {"max": False, "min": False, "half": False}


def _kernel_pairs(dim):
    """A definite pair, Y with a trailing kernel and X with a rotated kernel."""
    rng = rng_for(77, dim)
    X, Y = random_pd(dim, rng), random_pd(dim, rng)
    w = np.r_[rng.uniform(0.2, 2.0, dim - 1), 0.0]
    U, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return {"definite": (X, Y), "trailing-kernel": (X, np.diag(w)),
            "rotated-kernel": ((U * w) @ U.conj().T, Y)}


def _expected_report(A, B):
    """What compute reports, key by key, from the public functions on the parsed pair."""
    out = {"dim": A.shape[0], "interpretation": "states", "certificates": {}}
    for kind in ("max", "min", "half"):
        out[f"fidelity_{kind}"] = fidlab.fidelity(kind, A, B)
        out[f"polar_{kind}"] = fidlab.polar(kind, A, B)
        try:
            c = fidlab.duality_certificate(kind, A, B)
            out["certificates"][kind] = {
                "primal_value": c.primal_value, "dual_value": c.dual_value, "gap": c.gap,
                "primal_feasible": c.primal_feasible, "dual_feasible": c.dual_feasible,
                "valid": c.is_valid}
        except FidlabError as exc:
            out["certificates"][kind] = {"skipped": str(exc)}
    if A.shape[0] == 2:
        out["dual_body_membership"] = {
            kind: fidlab.polar_membership(kind, A, B) for kind in ("max", "min", "half")}
    return out


SKIPPED = {"definite": None, "trailing-kernel": "Y is not strictly positive definite",
           "rotated-kernel": "X is not strictly positive definite"}


@pytest.mark.parametrize("case", sorted(SKIPPED))
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_compute_reports_the_public_functions_values(dim, case, tmp_path, capsys):
    # compute admits its pair once and reads every quantity off it; each value
    # equals the public function's on the same parsed pair, bit for bit
    X, Y = _kernel_pairs(dim)[case]
    path = tmp_path / "pair.json"
    path.write_text(json.dumps([
        {"dim": dim, "entries": [[[z.real, z.imag] for z in row] for row in H.tolist()]}
        for H in (X, Y)]))
    assert main(["compute", str(path), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    expected = _expected_report(*load_pair([str(path)]))
    assert out.keys() == expected.keys()
    for key in expected:
        assert out[key] == expected[key], key
    skipped = {c.get("skipped") for c in out["certificates"].values()}
    assert skipped == {SKIPPED[case]}


@pytest.mark.parametrize("argv", [
    ["--l", "nan", "--m", "0"],
    ["--l", "inf", "--m", "0"],
    ["--l=-inf", "--m", "0"],
    ["--l", "1e200", "--m", "0"],
    ["--l", "1", "--m", "nan"],
    ["--l", "1", "--m=-inf"],
], ids=["l-nan", "l-inf", "l-minus-inf", "l-square-overflows", "m-nan", "m-minus-inf"])
def test_boundary_rejects_non_finite_input(tmp_path, capsys, argv):
    out_path = tmp_path / "boundary.csv"
    assert main(["boundary", *argv, "--n-samples", "5", "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert "must be finite" in captured.err
    assert captured.out == ""
    assert not out_path.exists()


def test_compute_rejects_retired_seed(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    _write_matrix(a, [0.5, 0.5, 1.0])
    _write_matrix(b, [0.25, 0.75, 1.0])
    with pytest.raises(SystemExit) as exc:
        main(["compute", str(a), str(b), "--format", "json", "--seed", "7"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_main_reuses_one_parser(tmp_path, capsys):
    # the parser is built once per process; every call through it, including
    # input errors and argparse's own exits, gives what a first call gives
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _write_matrix(a, [0.5, 0.25, 1.0])
    _write_matrix(b, [0.25, 0.75, 1.0])
    calls = [
        ["compute", str(a), str(b), "--format", "json"],
        ["compute", str(a), str(b)],
        ["verify", "errata", "--seed", "1", "--reproducible"],
        ["boundary", "--l", "1", "--m", "0", "--n-samples", "5"],
        ["verify", "nosuch"],
        ["compute", str(a), str(b), "--format", "yaml"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    build_parser.cache_clear()
    first = [run(argv) for argv in calls]
    assert [code for code, _ in first] == [0, 0, 0, 0, 2, 2]
    parser = build_parser()
    for _ in range(2):
        for argv, expected in zip(calls[::-1] + calls, first[::-1] + first):
            assert run(argv) == expected
    assert build_parser() is parser
