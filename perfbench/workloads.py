"""Seeded inputs, operations and warm-ups of the four benchmark workloads.

Every workload is a deterministic stream of operations ("ops"), produced in
fixed-size blocks. Block ``k`` of workload ``w`` is drawn from its own
``SeedSequence([seed, tag(w), k])``, so the same seed always yields
byte-identical inputs and blocks can be generated lazily while a run
proceeds. Within a block the input mix (dimensions, rank-deficient share,
reused operands) is exact, not sampled, so runs of different seeds see the
same mix and differ only in the matrices themselves.

fidlab receives only the generated matrices (``states``, ``duals``), pair
files (``report``) or argument vectors (``verify``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

# (dim, ops per block, of which rank-deficient); README.md explains each mix
STATES_MIX = ((2, 16, 5), (3, 16, 5), (4, 16, 6), (8, 8, 1), (16, 4, 1), (32, 20, 3))
DUALS_MIX = ((2, 24, 0), (3, 2, 0), (4, 2, 0), (6, 2, 0), (8, 2, 0), (12, 8, 0))
REPORT_MIX = ((2, 14, 2), (3, 5, 2), (4, 5, 2))
# (suite, --dims, --trials): each call costs about the same, 110-150 ms on a
# 2-core VM, so percentiles measure latency rather than pick out a suite.
# operational and qubit-geometry are left out: each spends 6-9 s in fixed
# oracle work that no argument shrinks (README.md).
VERIFY_CYCLE = (
    ("fidelity-props", "2,3", 8),
    ("sandwich", "2,3", 56),
    ("monotonicity", "2,3", 4),
    ("polar-props", "2,3", 1),
    ("duality", "2", 1),
    ("errata", "2", 1),
)
REFERENCE_STATES = 2  # per (dim, rank-deficient) cell of the states pool
POOL_BLOCK = 2**32 - 1  # block key of the reference pool, never an op block

_TAGS = {"states": 1, "duals": 2, "report": 3, "verify": 4}


@dataclass
class Op:
    """One request: its inputs, plus what the oracle needs to know about them."""

    index: int
    label: str
    args: tuple
    dim: int = 0
    singular: bool = False
    operand_key: bytes = b""  # bytes of the operand whose reuse is measured


def block_rng(seed: int, workload: str, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _TAGS[workload], block]))


def psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank random PSD operator G G^dagger / dim, G complex Gaussian."""
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    A = G @ G.conj().T / dim
    return (A + A.conj().T) / 2


def trailing_kernel_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Rank-deficient PSD operator whose kernel is spanned by the last basis vectors.

    The kernel is aligned with coordinates so that its eigenvalues come out
    as exact zeros; a rotated kernel hits the defect described in README.md.
    """
    rank = int(rng.integers(1, dim))
    Y = np.zeros((dim, dim), dtype=complex)
    Y[:rank, :rank] = psd(rng, rank)
    return Y


def positive_definite(rng: np.random.Generator, dim: int) -> np.ndarray:
    return psd(rng, dim) + 0.05 * np.eye(dim)


def shuffled_cells(rng: np.random.Generator, mix) -> list[tuple[int, bool]]:
    """The (dim, rank-deficient) cells of one block, exactly as ``mix`` asks, shuffled."""
    cells = [(dim, i < singular) for dim, count, singular in mix for i in range(count)]
    return [cells[j] for j in rng.permutation(len(cells))]


class Workload:
    """A named op stream with its fidlab call, oracle and warm-up."""

    name = ""
    block_size = 1
    stretch_blocks = 1  # whole blocks per stretch of the median-of-stretches figures
    trace_ops = 1  # fixed op count of a traced run, whole blocks

    def __init__(self, seed: int, workdir: Path | None = None):
        self.seed = seed
        self.workdir = workdir

    def block(self, k: int) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> list[str]:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def stream(self):
        k = 0
        while True:
            yield self.block(k)
            k += 1


class States(Workload):
    """fidelity_max, fidelity_min and fidelity_half on one PSD pair."""

    name = "states"
    block_size = sum(n for _, n, _ in STATES_MIX)
    stretch_blocks = 2
    trace_ops = 5 * block_size

    def __init__(self, seed, workdir=None):
        super().__init__(seed, workdir)
        pool_rng = block_rng(seed, self.name, POOL_BLOCK)
        self.pool = {}
        for dim, _, _ in STATES_MIX:
            self.pool[dim, False] = [psd(pool_rng, dim) for _ in range(REFERENCE_STATES)]
            self.pool[dim, True] = [trailing_kernel_psd(pool_rng, dim)
                                    for _ in range(REFERENCE_STATES)]

    def block(self, k):
        rng = block_rng(self.seed, self.name, k)
        cells = shuffled_cells(rng, STATES_MIX)
        reuse = rng.permutation(np.arange(len(cells)) < len(cells) // 2)
        ops = []
        for i, (dim, singular) in enumerate(cells):
            X = psd(rng, dim)
            if reuse[i]:
                Y = self.pool[dim, singular][int(rng.integers(REFERENCE_STATES))]
            elif singular:
                Y = trailing_kernel_psd(rng, dim)
            else:
                Y = psd(rng, dim)
            ops.append(Op(index=k * self.block_size + i, label=f"dim{dim}",
                          args=(X, Y), dim=dim, singular=singular,
                          operand_key=Y.tobytes()))
        return ops

    def run(self, op):
        import fidlab

        X, Y = op.args
        return (fidlab.fidelity_max(X, Y), fidlab.fidelity_min(X, Y),
                fidlab.fidelity_half(X, Y))

    def check(self, op, out):
        return oracle.check_states(*op.args, *out)

    def warm_up(self):
        rng = np.random.default_rng(0)
        self.run(Op(index=-1, label="warm-up", args=(psd(rng, 3), psd(rng, 3))))


class Duals(Workload):
    """polar_max, polar_half and polar_min on one positive-definite pair."""

    name = "duals"
    block_size = sum(n for _, n, _ in DUALS_MIX)
    trace_ops = 3 * block_size

    def block(self, k):
        rng = block_rng(self.seed, self.name, k)
        ops = []
        for i, (dim, _) in enumerate(shuffled_cells(rng, DUALS_MIX)):
            L0, L1 = positive_definite(rng, dim), positive_definite(rng, dim)
            ops.append(Op(index=k * self.block_size + i, label=f"dim{dim}",
                          args=(L0, L1), dim=dim, operand_key=L1.tobytes()))
        return ops

    def run(self, op):
        import fidlab

        L0, L1 = op.args
        return (fidlab.polar_max(L0, L1), fidlab.polar_half(L0, L1),
                fidlab.polar_min(L0, L1))

    def check(self, op, out):
        return oracle.check_duals(*op.args, *out)

    def warm_up(self):
        rng = np.random.default_rng(0)
        self.run(Op(index=-1, label="warm-up",
                    args=(positive_definite(rng, 3), positive_definite(rng, 3))))


def matrix_json(A: np.ndarray) -> dict:
    return {"dim": int(A.shape[0]),
            "entries": [[[float(z.real), float(z.imag)] for z in row] for row in A]}


def _call_cli(argv: list[str]) -> tuple[int, str, str]:
    import fidlab.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = fidlab.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class Report(Workload):
    """One in-process ``fidlab compute <pair.json> --format json`` request."""

    name = "report"
    block_size = sum(n for _, n, _ in REPORT_MIX)
    trace_ops = block_size

    def pair_text(self, rng, dim: int, singular: bool) -> str:
        scale = float(rng.uniform(0.5, 2.0))
        X = scale * psd(rng, dim)
        Y = scale * (trailing_kernel_psd(rng, dim) if singular else psd(rng, dim))
        return json.dumps([matrix_json(X), matrix_json(Y)])

    def block(self, k):
        rng = block_rng(self.seed, self.name, k)
        ops = []
        for i, (dim, singular) in enumerate(shuffled_cells(rng, REPORT_MIX)):
            text = self.pair_text(rng, dim, singular)
            index = k * self.block_size + i
            path = self.workdir / f"pair-{index}.json"
            path.write_text(text)
            ops.append(Op(index=index, label=f"dim{dim}", dim=dim, singular=singular,
                          args=(str(path),), operand_key=text.encode()))
        return ops

    def run(self, op):
        return _call_cli(["compute", op.args[0], "--format", "json"])

    def check(self, op, out):
        return oracle.check_report(op.dim, op.singular, *out)

    def warm_up(self):
        path = self.workdir / f"warm-up-{os.getpid()}.json"
        path.write_text(self.pair_text(np.random.default_rng(0), 2, False))
        try:
            self.run(Op(index=-1, label="warm-up", args=(str(path),)))
        finally:
            path.unlink()


class Verify(Workload):
    """One in-process ``fidlab verify <suite> --dims d --trials t --seed k`` call."""

    name = "verify"
    block_size = len(VERIFY_CYCLE)
    stretch_blocks = 4
    trace_ops = 2 * block_size

    def block(self, k):
        cycle_seed = int(block_rng(self.seed, self.name, k).integers(2**31 - 1))
        ops = []
        for i, (suite, dims, trials) in enumerate(VERIFY_CYCLE):
            argv = ["verify", suite, "--dims", dims, "--trials", str(trials),
                    "--seed", str(cycle_seed), "--reproducible"]
            ops.append(Op(index=k * self.block_size + i, label=suite, args=tuple(argv),
                          operand_key=f"{suite} {cycle_seed}".encode()))
        return ops

    def run(self, op):
        return _call_cli(list(op.args))

    def check(self, op, out):
        return oracle.check_verify(*out)

    def warm_up(self):
        _call_cli(["verify", "errata", "--trials", "1", "--reproducible"])


WORKLOADS = {w.name: w for w in (States, Duals, Report, Verify)}
