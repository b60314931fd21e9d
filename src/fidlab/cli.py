# src/fidlab/cli.py
#
# Command-line front end: matrix I/O, the compute / verify / boundary
# subcommands, deterministic JSON reports, and the 0/1/2 exit-code
# contract (0 all pass, 1 invariant failure, 2 input error).

from __future__ import annotations

import argparse
import datetime
import functools
import json
import sys

import numpy as np

from .certify import _certificate
from .errors import FidlabError, ParseError, UnknownSuite
from .fidelity import _FIDELITIES
from .linalg_core import psd_pair
from .polar import _POLARS
from .qubit_geom import _DUAL_BODY_FLOOR, M0Frame, f1, m0_extreme_points, m0_membership
from .verify import Report, run_suite

_KINDS = ("max", "min", "half")


def _entry(e) -> complex:
    """One [re, im] list of two JSON numbers; exact types, so true and false are refused."""
    if type(e) is list and len(e) == 2 and type(e[0]) in (int, float) \
            and type(e[1]) in (int, float):
        return complex(e[0], e[1])
    raise ParseError(f"entry {e!r} is not an [re, im] pair of numbers")


def _parse_matrix(obj) -> np.ndarray:
    """One MatrixFile object {dim, entries of [re, im] pairs}, Hermitian to 1e-6 of its scale."""
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ParseError("matrix object needs 'dim' and 'entries' fields")
    dim = obj["dim"]
    # bool is an int subclass, so "dim": true would read as 1
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ParseError(f"invalid dim {dim!r}")
    entries = obj["entries"]
    try:
        arr = np.array([[_entry(e) for e in row] for row in entries], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"entries are not rows of [re, im] pairs: {exc}") from exc
    if arr.shape != (dim, dim):
        raise ParseError(f"entries shape {arr.shape} does not match dim {dim}")
    # json.load accepts NaN and Infinity, and the largest |entry| is then not finite
    scale = float(np.abs(arr).max())
    if not np.isfinite(scale):
        raise ParseError("entries must be finite")
    asym = float(np.abs(arr - arr.conj().T).max())
    if asym > 1e-6 * max(scale, 1e-300):
        raise ParseError(
            f"matrix asymmetry {asym:.3e} exceeds 1e-6 of max entry {scale:.3e}"
        )
    return arr


def load_pair(paths: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """A pair from one file (JSON array of two matrices) or two files."""
    objs = []
    for path in paths:
        try:
            with open(path) as fh:
                objs.append(json.load(fh))
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed JSON in {path}: {exc}") from exc
    if len(objs) == 1:
        if not isinstance(objs[0], list) or len(objs[0]) != 2:
            raise ParseError(
                "a single input file must hold a JSON array of two matrices"
            )
        objs = objs[0]
    if len(objs) != 2:
        raise ParseError("expected exactly two matrices")
    return _parse_matrix(objs[0]), _parse_matrix(objs[1])


def _json_ready(value):
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    return value


def cmd_compute(args) -> int:
    A, B = load_pair(args.pair)
    # admitted once: every quantity below is read off this one pair, min frame included
    pair = psd_pair(A, B)
    result: dict = {
        "dim": A.shape[0],
        "interpretation": "dual" if args.as_dual else "states",
    }
    membership = {}
    for kind in _KINDS:
        result[f"fidelity_{kind}"] = _FIDELITIES[kind](pair)
        lower, result[f"polar_{kind}"] = _POLARS[kind](pair)
        # in the dual body iff the polar is >= 1, on the lower end, as polar_membership
        membership[kind] = lower >= _DUAL_BODY_FLOOR
    certs = {}
    for kind in _KINDS:
        try:
            c = _certificate(kind, pair)
            certs[kind] = {
                "primal_value": c.primal_value,
                "dual_value": c.dual_value,
                "gap": c.gap,
                "primal_feasible": c.primal_feasible,
                "dual_feasible": c.dual_feasible,
                "valid": c.is_valid,
            }
        except FidlabError as exc:
            certs[kind] = {"skipped": str(exc)}
    result["certificates"] = certs
    if A.shape[0] == 2:
        result["dual_body_membership"] = membership
    _emit(result, args)
    return 0


def _report_dict(rep: Report, reproducible: bool) -> dict:
    out = {
        "suite": rep.suite,
        "trials": rep.trials,
        "seed": rep.seed,
        "failures": sorted(rep.failures, key=lambda f: (f["case"], f["quantity"])),
    }
    if not reproducible:
        out["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return out


def cmd_verify(args) -> int:
    dims = None
    if args.dims:
        try:
            dims = tuple(int(d) for d in args.dims.split(","))
        except ValueError as exc:
            raise ParseError(f"bad --dims list {args.dims!r}") from exc
        if min(dims) < 1:
            raise ParseError(f"--dims entries must be >= 1, got {args.dims!r}")
    if args.trials is not None and args.trials < 1:
        raise ParseError(f"--trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise ParseError(f"--seed must be >= 0, got {args.seed}")
    rep = run_suite(args.suite, dims=dims, trials=args.trials, seed=args.seed)
    _emit(_report_dict(rep, args.reproducible), args)
    return 0 if rep.passed else 1


def cmd_boundary(args) -> int:
    frame = M0Frame(l=args.l, m=args.m, rotation=np.eye(2, dtype=complex))
    n = args.n_samples
    if n < 2:
        raise ParseError("need at least 2 samples for inclusive endpoints")
    l2 = frame.l * frame.l
    rows = []
    bad = 0
    for i in range(n):
        s = -2.0 + 4.0 * i / (n - 1)
        alpha = 2.0 * np.pi * i / n
        p = m0_extreme_points(frame, s, alpha)
        # extreme points sit on the z = 0 boundary sheet, where the minimal
        # admissible w is the f1 branch in l^2-scaled coordinates
        w_min = l2 * f1(np.hypot(p.x, p.y) / l2)
        rows.append((s, alpha, p.x, p.y, p.z, p.w, w_min))
        if not m0_membership(frame, p):
            bad += 1
    lines = ["s,alpha,x,y,z,w,w_min"]
    lines += [",".join(f"{v:.12g}" for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if bad:
        print(f"{bad} sampled points failed membership", file=sys.stderr)
        return 1
    return 0


def _emit(payload: dict, args) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, default=_json_ready))
        return
    _emit_text(payload)


def _emit_text(payload: dict, indent: int = 0) -> None:
    pad = " " * indent
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _emit_text(value, indent + 2)
        elif isinstance(value, list):
            print(f"{pad}{key}: {len(value)} item(s)")
            for item in value:
                if isinstance(item, dict):
                    _emit_text(item, indent + 2)
                    print()
                else:
                    print(f"{pad}  {item}")
        elif isinstance(value, float):
            print(f"{pad}{key}: {value:.10f}")
        else:
            print(f"{pad}{key}: {value}")


# built on first use and shared by every main() call: parse_args leaves it unchanged
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fidlab",
        description="Quantum fidelities, polar duals, certificates, "
        "and qubit dual-body geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="fidelities, polars, certificates of a pair")
    pc.add_argument("pair", nargs="+",
                    help="one JSON file with two matrices, or two files")
    pc.add_argument("--as-dual", action="store_true",
                    help="treat the pair as dual operators (L0, L1)")
    pc.add_argument("--format", choices=("json", "text"), default="text")
    pc.set_defaults(func=cmd_compute)

    pv = sub.add_parser("verify", help="run a seeded invariant suite")
    pv.add_argument("suite")
    pv.add_argument("--dims", default=None, help="comma-separated dimensions")
    pv.add_argument("--trials", type=int, default=None)
    pv.add_argument("--seed", type=int, default=42)
    pv.add_argument("--format", choices=("json", "text"), default="json")
    pv.add_argument("--reproducible", action="store_true",
                    help="suppress the timestamp for byte-identical reports")
    pv.set_defaults(func=cmd_verify)

    pb = sub.add_parser("boundary", help="sample extreme points of M0 to CSV")
    pb.add_argument("--l", type=float, required=True)
    pb.add_argument("--m", type=float, required=True)
    pb.add_argument("--n-samples", type=int, default=100)
    pb.add_argument("--out", default=None, help="output CSV path (default stdout)")
    pb.add_argument("--format", choices=("csv",), default="csv")
    pb.set_defaults(func=cmd_boundary)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, UnknownSuite) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FidlabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
