"""In-memory span tracing of gorlab's layers, driven from outside the package.

A traced run replaces selected functions of gorlab's modules with wrappers
that record one span per call: (name, start, end, parent, operation).  The
wrappers are installed at every site that binds the function, because
`from .x import f` copies the binding into each importing module.  Nothing
under `src/` changes; `instrument` returns a function that restores the
original bindings.

Spans are kept in memory while the workload runs and written out at the end.
A span's self time is its duration minus the part of it that child spans
cover, so the self times of all spans partition the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

from gorlab.errors import GorlabError

# Functions wrapped per layer.  Methods are written "Class.method".  Module
# helpers that are not listed (gorlab.modules, private helpers) count toward
# the self time of the nearest wrapped caller.
TARGETS = {
    "linalg": ["rref_inplace", "rref_array", "rank_array", "row_space",
               "kernel_array", "solve_many", "solve_array",
               "reduce_mod_rowspace", "in_rowspace"],
    "resolution": ["resolve", "syzygy", "k_syzygy_dims", "lift_chain_map",
                   "MinimalFreeResolution.extend",
                   "MinimalFreeResolution._step"],
    "homology": ["tor", "ext", "tor_induced"],
    "koszul": ["is_koszul"],
    "series": ["poincare_series", "certify_rational"],
    "io": ["canonical_json", "resolution_to_dict", "load_module", "load_ring",
           "table_to_dict", "module_info", "module_to_dict",
           "series_to_dict", "verdict_to_dict", "ring_to_dict"],
    "cli": ["main"],
}

# "bench" is the self time of the operation spans: the harness's own code
# inside an operation and unwrapped gorlab code it calls directly
LAYERS = (*TARGETS, "bench")

HOMOLOGY_TABLES = ("homology.tor", "homology.ext")
HOMOLOGY_CALLS = HOMOLOGY_TABLES + ("homology.tor_induced",)


class Tracer:
    """Spans and counters of one traced run.

    Spans are recorded only while an operation is open, so work the harness
    does between operations (building inputs, serializing for the digest
    check) never shows up as a layer's time.
    """

    def __init__(self):
        self.spans: list[list] = []    # [name, start_ns, end_ns, parent, op]
        self.counters: dict = defaultdict(int)
        self.maxima: dict = defaultdict(int)
        self.op = None
        self._stack: list[int] = []
        self._resolutions: dict = {}

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), None, parent, self.op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order")

    def inside(self, prefixes) -> bool:
        """Whether an open span's name starts with one of the prefixes."""
        return any(self.spans[i][0].startswith(prefixes) for i in self._stack)

    def open_op(self, op_id: str):
        self.op = op_id
        return self.begin("bench.op")

    def close_op(self, idx: int):
        self.end(idx)
        self.op = None
        self._harvest_resolutions()

    # -- counters -----------------------------------------------------------

    def note_resolution(self, res):
        # read when the operation ends: callers keep extending a resolution
        # after `resolve` has returned it
        self._resolutions[id(res)] = res

    def _harvest_resolutions(self):
        for res in self._resolutions.values():
            D = res.ring.dim
            self.counters["resolution.differentials"] += res.head
            cols = [b * D for b in res.betti_head[: res.head]]
            if cols:
                self.maxima["resolution.max_kernel_cols"] = max(
                    self.maxima["resolution.max_kernel_cols"], max(cols))
        self._resolutions.clear()


def self_times(spans) -> list[int]:
    """Self time of every span, in the spans' clock unit (ns).

    Self time is the span's duration minus the union of its children's
    intervals, clipped to the span; overlapping children are not counted
    twice.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


# ---------------------------------------------------------------------------
# counters taken at the wrapped calls


def _operand_bytes(args) -> int:
    """Bytes of the largest array argument, counted as int64 entries."""
    best = 0
    for a in args:
        size = getattr(a, "size", None)
        if isinstance(size, int) and hasattr(a, "shape"):
            best = max(best, size * 8)
    return best


def _count_linalg(tracer, name, args, out):
    tracer.maxima["linalg.max_operand_bytes"] = max(
        tracer.maxima["linalg.max_operand_bytes"], _operand_bytes(args))
    if name == "linalg.rref_inplace":
        m, n = args[0].shape
        rank = len(out)
        c = tracer.counters
        c["linalg.rref_inplace.cells"] += m * n
        c["linalg.rref_inplace.field_ops"] += 2 * m * n * rank
        c["linalg.rref_inplace.rows"] += m
        c["linalg.rref_inplace.rank"] += rank


def _count_resolution(tracer, name, args, out):
    if name == "resolution.resolve":
        tracer.note_resolution(out)


def _count_homology(tracer, name, args, out):
    if name in HOMOLOGY_TABLES:
        c = tracer.counters
        c["homology.honest_degrees"] += out.window + 1
        c["homology.entries"] += len(out.entries)
        c["homology.certified_entries"] += sum(
            t.provenance == "certified" for t in out.entries)


def _count_io(tracer, name, args, out):
    if name == "io.canonical_json":
        tracer.counters["io.bytes_out"] += len(out)


COUNTERS = {"linalg": _count_linalg, "resolution": _count_resolution,
            "homology": _count_homology, "io": _count_io}


def _wrap(tracer: Tracer, name: str, fn, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.op is None:
            return fn(*args, **kwargs)
        # only the outermost homology call counts toward tables and
        # refusals: ext computes a tor table of its own inside
        outer = name in HOMOLOGY_CALLS and not tracer.inside("homology.")
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        except GorlabError:
            if outer:
                tracer.counters["homology.refusals"] += 1
            raise
        finally:
            tracer.end(idx)
        if count is not None and (outer or name not in HOMOLOGY_CALLS):
            count(tracer, name, args, out)
        return out

    return wrapper


def instrument(tracer: Tracer):
    """Wrap every target function at every gorlab site that binds it.

    Returns a function that puts the original bindings back.
    """
    homes = {layer: importlib.import_module(f"gorlab.{layer}")
             for layer in TARGETS}
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "gorlab" or n.startswith("gorlab."))]
    restores = []
    for layer, names in TARGETS.items():
        for qual in names:
            span_name = f"{layer}.{qual.split('.')[-1].lstrip('_')}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                owners = [(getattr(homes[layer], cls_name), meth)]
                orig = owners[0][0].__dict__[meth]
            else:
                orig = getattr(homes[layer], qual)
                owners = [(mod, attr) for mod in modules
                          for attr, val in vars(mod).items() if val is orig]
            w = _wrap(tracer, span_name, orig, COUNTERS.get(layer))
            for owner, attr in owners:
                setattr(owner, attr, w)
                restores.append((owner, attr, orig))

    def restore():
        for owner, attr, orig in reversed(restores):
            setattr(owner, attr, orig)

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, selfs, traced_wall_s: float,
                  untraced_wall_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced batch;
    selfs are the spans' self times from self_times."""
    spans = tracer.spans
    by_name = defaultdict(float)
    calls = defaultdict(int)
    by_layer = defaultdict(float)
    for s, st in zip(spans, selfs):
        by_name[s[0]] += st / 1e9
        calls[s[0]] += 1
        by_layer[s[0].split(".")[0]] += st / 1e9
    total = sum(by_layer.values())
    c, mx = tracer.counters, tracer.maxima
    rref_self = by_name["linalg.rref_inplace"]
    io_self = by_name["io.canonical_json"]
    m = {
        "linalg.rref_inplace.calls": (calls["linalg.rref_inplace"], "count"),
        "linalg.rref_inplace.self_s": (rref_self, "s"),
        "linalg.rref_inplace.cells": (c["linalg.rref_inplace.cells"], "count"),
        "linalg.rref_inplace.field_ops": (c["linalg.rref_inplace.field_ops"], "count"),
        "linalg.rref_inplace.gops_per_s": (
            _ratio(c["linalg.rref_inplace.field_ops"] / 1e9, rref_self), "Gop/s"),
        "linalg.rank_yield": (_ratio(c["linalg.rref_inplace.rank"],
                                     c["linalg.rref_inplace.rows"]), "share"),
        "linalg.max_matrix_mb": (mx["linalg.max_operand_bytes"] / 2**20, "MiB"),
        "resolution.extend.calls": (calls["resolution.extend"], "count"),
        "resolution.step.calls": (calls["resolution.step"], "count"),
        "resolution.differentials": (c["resolution.differentials"], "count"),
        "resolution.max_kernel_cols": (mx["resolution.max_kernel_cols"], "count"),
        "homology.honest_degrees": (c["homology.honest_degrees"], "count"),
        "homology.certified_share": (_ratio(c["homology.certified_entries"],
                                            c["homology.entries"]), "share"),
        "homology.refusals": (c["homology.refusals"], "count"),
        "io.bytes_out": (c["io.bytes_out"], "bytes"),
        "io.canonical_json.mb_per_s": (
            _ratio(c["io.bytes_out"] / 2**20, io_self), "MiB/s"),
    }
    for name in ("linalg.kernel_array", "linalg.row_space",
                 "linalg.reduce_mod_rowspace", "linalg.solve_many",
                 "resolution.extend", "resolution.step",
                 "resolution.k_syzygy_dims",
                 "resolution.lift_chain_map", "homology.tor", "homology.ext",
                 "homology.tor_induced", "koszul.is_koszul",
                 "series.poincare_series", "series.certify_rational",
                 "io.canonical_json", "io.resolution_to_dict",
                 "io.load_module", "cli.main"):
        m[f"{name}.self_s"] = (by_name[name], "s")
    for layer in LAYERS:
        m[f"layer.{layer}.self_share"] = (_ratio(by_layer[layer], total), "share")
    m["trace.spans"] = (len(spans), "count")
    m["trace.wall_s"] = (traced_wall_s, "s")
    m["trace.overhead"] = (_ratio(traced_wall_s, untraced_wall_s), "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def write_spans(path: str, spans, selfs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s, st in zip(spans, selfs):
            fh.write(json.dumps({"name": s[0], "start_ns": s[1], "end_ns": s[2],
                                 "parent": s[3], "op": s[4],
                                 "self_ns": st}) + "\n")
