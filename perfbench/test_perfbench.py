"""Self-tests of the benchmark itself: inputs, oracle, tracing, statistics.

    python3 -m pytest -q perfbench
"""

import json
import sys

import numpy as np
import pytest

import oracle
import run
import tracing
import workloads

fidlab = run.load_fidlab()
FIDELITY_MODULE = sys.modules["fidlab.fidelity"]  # fidlab.fidelity is the function


def _input_bytes(workload: str, seed: int, tmp_path) -> list[bytes]:
    workdir = tmp_path / f"{workload}-{seed}-{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    w = workloads.WORKLOADS[workload](seed, workdir)
    out = []
    for k in range(2):
        for op in w.block(k):
            for arg in op.args:
                out.append(arg.tobytes() if isinstance(arg, np.ndarray) else
                           (workdir / arg).read_bytes() if arg.endswith(".json") else
                           arg.encode())
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload, tmp_path):
    first = _input_bytes(workload, 7, tmp_path)
    assert first == _input_bytes(workload, 7, tmp_path)
    assert first != _input_bytes(workload, 8, tmp_path)


def test_states_mix_is_exact_per_block():
    ops = workloads.States(3).block(0)
    dims = [op.dim for op in ops]
    assert [dims.count(d) for d, _, _ in workloads.STATES_MIX] == [
        n for _, n, _ in workloads.STATES_MIX]
    assert sum(op.singular for op in ops) == sum(s for _, _, s in workloads.STATES_MIX)


def test_oracle_accepts_true_values_and_flags_a_shifted_one():
    op = workloads.States(5).block(0)[0]
    f_max, f_min, f_half = workloads.States(5).run(op)
    assert oracle.check_states(*op.args, f_max, f_min, f_half) == []
    assert oracle.check_states(*op.args, f_max + 1e-3, f_min, f_half)
    op = workloads.Duals(5).block(0)[0]
    p_max, p_half, p_min = workloads.Duals(5).run(op)
    assert oracle.check_duals(*op.args, p_max, p_half, p_min) == []
    assert oracle.check_duals(*op.args, p_max + 1e-3, p_half, p_min)


def test_a_stub_off_by_1e_3_fails_every_op(monkeypatch):
    true_max = fidlab.fidelity_max
    monkeypatch.setattr(fidlab, "fidelity_max", lambda X, Y: true_max(X, Y) + 1e-3)
    result = run.timed_run(workloads.States(1), seconds=0.05)
    tally = result["tally"]
    assert tally.attempted > 0 and tally.failed == tally.attempted


def test_report_oracle_flags_an_invalid_certificate(tmp_path):
    w = workloads.Report(2, tmp_path)
    op = next(op for op in w.block(0) if not op.singular)
    rc, stdout, stderr = w.run(op)
    assert oracle.check_report(op.dim, op.singular, rc, stdout, stderr) == []
    rep = json.loads(stdout)
    rep["certificates"]["max"]["valid"] = False
    assert oracle.check_report(op.dim, op.singular, rc, json.dumps(rep), stderr)
    assert oracle.check_report(op.dim, op.singular, 2, "", "error: bad input")


def test_self_time_on_a_hand_built_span_tree():
    # root [0, 10] with children a [1, 4], b [3, 6] (overlapping a) and
    # c [8, 12] (running past the root); a has one child d [2, 3]
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    assert tracing.self_times(start, end, parent) == [3.0, 2.0, 3.0, 4.0, 1.0]


def test_p90_needs_ten_samples_beyond_it():
    assert run.latency_summary(list(range(1, 100)))["p90_ms"] is None
    summary = run.latency_summary([x / 1e3 for x in range(1, 101)])
    assert summary["p90_ms"] == pytest.approx(90.0)
    assert summary["beyond_p90"] == 10
    assert summary["p50_ms"] == pytest.approx(50.0)


def test_stretch_medians_cover_every_op_and_ignore_a_slow_spell():
    # five blocks of 50 distinct latencies; the second runs twice as slow, and
    # a trailing partial block joins the last stretch
    block = [0.001 + i * 1e-6 for i in range(50)]
    lat = block + [2 * x for x in block] + block + block + block + block[:10]
    med = run.stretch_medians(lat, stretch_size=50)
    assert med["stretches"] == 5 and med["n"] == 50
    assert med["ops_per_s"] == pytest.approx(50 / sum(block))
    assert med["p50_ms"] == pytest.approx(block[24] * 1e3)


def test_traced_counts_repeat_and_wrappers_are_removed(monkeypatch):
    originals = (fidlab.fidelity_max, np.linalg.eigh,
                 fidlab.linalg_core.psd_sqrt, FIDELITY_MODULE.psd_sqrt)
    monkeypatch.setattr(workloads.States, "trace_ops", workloads.States.block_size)
    counts = []
    for _ in range(2):
        metrics = run.traced_run(workloads.States(4), 4, {})["metrics"]
        assert metrics["certify.valid_ratio"] is None  # no certificate attempted
        counts.append({k: v for k, v in metrics.items()
                       if k.endswith(("calls_per_op", "eigh_per_op", "svd_per_op", "n3_per_op"))})
    assert counts[0] == counts[1]
    assert counts[0]["fidelity.calls_per_op"] == 3.0
    assert counts[0]["linalg_core.calls_per_op"] > 0
    assert originals == (fidlab.fidelity_max, np.linalg.eigh,
                         fidlab.linalg_core.psd_sqrt, FIDELITY_MODULE.psd_sqrt)


def test_result_line_matches_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER_JSON
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
