import json

import numpy as np
import pytest

from fidlab.cli import build_parser, main


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
