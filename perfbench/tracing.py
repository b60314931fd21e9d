"""Tracing shim: spans around every call into fidlab's layers and numpy.linalg.

The shim lives entirely in the benchmark. ``Tracer.install`` replaces each
public function of each fidlab module with a recording wrapper, in every
fidlab namespace that binds it (``from .linalg_core import psd_sqrt``
copies the binding into ``fidelity``, ``certify`` and others), and wraps
the ``numpy.linalg`` entry points. ``Tracer.restore`` puts every original
back. Spans carry name, start, end, parent and op id; they are kept in
flat arrays in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "verify", "certify", "polar", "fidelity", "qubit_geom",
          "superop", "channels", "linalg_core")
NUMPY_LAYER = "numpy_linalg"
ALL_LAYERS = LAYERS + (NUMPY_LAYER,)
# private functions that still mark a layer boundary worth timing
EXTRA_FUNCTIONS = {"cli": ("_emit",)}
NUMPY_ENTRY_POINTS = ("eigh", "eigvalsh", "eig", "eigvals", "svd", "svdvals",
                      "norm", "matrix_norm", "matrix_rank", "qr", "cholesky",
                      "det", "slogdet", "inv", "pinv", "solve", "lstsq", "cond")
NORM_ENTRY_POINTS = ("norm", "matrix_norm")
SPECTRAL_ORDS = (2, -2, "nuc")  # norms that need a singular value decomposition
EIGH_NAMES = ("eigh", "eigvalsh")
SVD_NAMES = ("svd", "svdvals", "matrix_rank", "pinv", "cond", "norm.spectral",
             "matrix_norm.spectral")
OP_SPAN = "bench.op"
CERTIFICATE = "certify.duality_certificate"  # its result's validity is counted


def public_functions(module) -> list[str]:
    """Functions defined in ``module`` and exported by its ``__all__``
    (or, without ``__all__``, every name not starting with an underscore)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [n for n in names
            if inspect.isfunction(getattr(module, n, None))
            and getattr(module, n).__module__ == module.__name__]


def _cube_work(a) -> int:
    """m * n * min(m, n) for each matrix of a (stacked) 2-d operand."""
    shape = getattr(a, "shape", None)
    if shape is None:
        shape = np.shape(a)
    if len(shape) < 2:
        return 0
    m, n = shape[-2], shape[-1]
    return math.prod(shape[:-2]) * m * n * min(m, n)


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self.name_ids = {OP_SPAN: 0}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")  # n^3 of a numpy decomposition, else 0
        self.raised = array("b")
        self.valid_certificates = 0
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def enter(self, name_id: int, work: int = 0) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.work.append(work)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def exit(self, i: int, raised: bool) -> None:
        self.end[i] = time.perf_counter()
        self.raised[i] = raised
        self._stack.pop()

    def call(self, name_id: int, fn, args, kwargs, work: int = 0):
        i = self.enter(name_id, work)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self.exit(i, isinstance(exc, Exception))
            raise
        self.exit(i, False)
        return result

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark op under a root span carrying its id."""
        self._op = op_id
        try:
            return self.call(0, fn, args, {})
        finally:
            self._op = -1

    # -- installing and removing the wrappers ------------------------------

    def _wrap(self, fn, name: str):
        name_id = self.name_id(name)
        is_certificate = name == CERTIFICATE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name_id, fn, args, kwargs)
            if is_certificate:
                self.valid_certificates += bool(result.is_valid)
            return result

        return wrapper

    def _wrap_numpy(self, fn, name: str):
        plain = self.name_id(f"{NUMPY_LAYER}.{name}")
        is_norm = name in NORM_ENTRY_POINTS
        spectral = self.name_id(f"{NUMPY_LAYER}.{name}.spectral") if is_norm else plain

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            work, name_id = (_cube_work(args[0]) if args else 0), plain
            if is_norm:
                ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
                if ord_ in SPECTRAL_ORDS and np.ndim(args[0]) >= 2:
                    name_id = spectral
                else:
                    work = 0
            return self.call(name_id, fn, args, kwargs, work)

        return wrapper

    def _patch(self, namespace, attr: str, value) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules[f"fidlab.{layer}"]
            for fname in public_functions(module) + list(EXTRA_FUNCTIONS.get(layer, ())):
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{fname}"))
        fidlab_modules = [m for name, m in list(sys.modules.items())
                          if name == "fidlab" or name.startswith("fidlab.")]
        for module in fidlab_modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        for fname in NUMPY_ENTRY_POINTS:
            self._patch(np.linalg, fname, self._wrap_numpy(getattr(np.linalg, fname), fname))

    def restore(self) -> None:
        while self._patches:
            namespace, attr, value = self._patches.pop()
            setattr(namespace, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def save(self, path, meta: str) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 op=np.frombuffer(self.op, np.int32), start=np.frombuffer(self.start),
                 end=np.frombuffer(self.end), work=np.frombuffer(self.work, np.int64),
                 raised=np.frombuffer(self.raised, np.int8), meta=np.array(meta))


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered, cur_lo, cur_hi = 0.0, None, None
        for s, e in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            if e <= s:
                continue
            if cur_hi is None or s > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = s, e
            else:
                cur_hi = max(cur_hi, e)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(tracer: Tracer, n_ops: int,
                  op_labels: dict[int, str]) -> dict[str, float | None]:
    """Per-layer metrics of a traced pass over ``n_ops`` ops (see README.md).

    A per-call ratio whose call never happened is None, not 0.
    """
    names = tracer.names
    layer_ids = [layer_of(n) for n in names]
    name, parent = tracer.name, tracer.parent
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    own = self_times(tracer.start, tracer.end, parent)
    per_op = 1.0 / n_ops
    m: dict[str, float] = {}
    calls = defaultdict(int)
    self_s = defaultdict(float)
    errors = defaultdict(int)
    for i, nid in enumerate(name):
        layer = layer_ids[nid]
        calls[layer] += 1
        self_s[layer] += own[i]
        p = parent[i]
        if tracer.raised[i] and (p < 0 or layer_ids[name[p]] != layer):
            errors[layer] += 1
    for layer in ALL_LAYERS:
        m[f"{layer}.calls_per_op"] = calls[layer] * per_op
        m[f"{layer}.self_ms_per_op"] = self_s[layer] * 1e3 * per_op
        m[f"{layer}.errors_per_op"] = errors[layer] * per_op

    def ids(*qualified):
        return {tracer.name_ids[q] for q in qualified if q in tracer.name_ids}

    eigh = ids(*(f"{NUMPY_LAYER}.{n}" for n in EIGH_NAMES))
    svd = ids(*(f"{NUMPY_LAYER}.{n}" for n in SVD_NAMES))
    m[f"{NUMPY_LAYER}.eigh_per_op"] = sum(1 for n in name if n in eigh) * per_op
    m[f"{NUMPY_LAYER}.svd_per_op"] = sum(1 for n in name if n in svd) * per_op
    m[f"{NUMPY_LAYER}.n3_per_op"] = sum(tracer.work) * per_op

    # inclusive times and descendant counts of named spans
    for kind in ("min", "half", "max"):
        polar_kind = ids(f"polar.polar_{kind}")
        spans = [i for i, n in enumerate(name) if n in polar_kind]
        m[f"polar.{kind}.ms_per_call"] = (
            sum(dur[i] for i in spans) * 1e3 / len(spans) if spans else None)
    polar_min = ids("polar.polar_min")
    inside = [False] * len(name)
    eigh_in_min = 0
    for i, p in enumerate(parent):
        inside[i] = p >= 0 and (inside[p] or name[p] in polar_min)
        eigh_in_min += inside[i] and name[i] in eigh
    n_min = sum(1 for n in name if n in polar_min)
    m["polar.min.eigh_per_call"] = eigh_in_min / n_min if n_min else None

    n_cert = sum(1 for n in name if n in ids(CERTIFICATE))
    crossings = sum(1 for i, n in enumerate(name)
                    if layer_ids[n] == "fidelity" and parent[i] >= 0
                    and layer_ids[name[parent[i]]] == "certify")
    m["certify.fidelity_calls_per_cert"] = crossings / n_cert if n_cert else None
    m["certify.valid_ratio"] = tracer.valid_certificates / n_cert if n_cert else None

    oracles = ids("qubit_geom.unique_root_w", "qubit_geom.w2_min_oracle")
    m["qubit_geom.oracle_ms_per_op"] = sum(
        dur[i] for i, n in enumerate(name)
        if n in oracles and not (parent[i] >= 0 and name[parent[i]] in oracles)
    ) * 1e3 * per_op
    for metric, fname in (("cli.parse_ms_per_op", "cli.load_pair"),
                          ("cli.emit_ms_per_op", "cli._emit")):
        fid = ids(fname)
        m[metric] = sum(dur[i] for i, n in enumerate(name) if n in fid) * 1e3 * per_op

    suites = defaultdict(list)
    run_suite = ids("verify.run_suite")
    for i, n in enumerate(name):
        if n in run_suite:
            suites[op_labels[tracer.op[i]]].append(dur[i])
    for suite, ds in sorted(suites.items()):
        m[f"verify.{suite}.s"] = sum(ds) / len(ds)
    return m
