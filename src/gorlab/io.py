"""Canonical JSON serialization for rings, modules, series and reports.

All files are UTF-8 JSON with sorted keys, two-space indentation and a
trailing newline; storing a loaded file reproduces it byte for byte.  Every
number is an integer — no floating point appears in any artifact.  Schema
violations raise SchemaError carrying a JSON pointer to the offending spot.

Byte contract: ``canonical_json(obj)`` is exactly
``json.dumps(obj, sort_keys=True, indent=2) + "\n"``.  It does not call that
encoder, though: ``json.dumps`` drops to its pure-Python path whenever
``indent`` is set.  Dicts and lists are walked here instead.  An integer
ndarray is written as ``json.dumps`` writes its ``tolist()``, but from the
array itself: each distinct vector along its last axis is formatted once
and the rows are joined from those texts, so a differential never becomes
Python ints or nested lists.  ``write_json`` writes the same chunks straight
to a text stream, so a large document is never held as one string.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import SchemaError
from .koszul import KoszulVerdict
from .modules import (
    FiniteModule,
    Presentation,
    from_presentation,
    hilbert_function,
    nu,
    radical_rows,
)
from .resolution import MinimalFreeResolution, resolve
from .ring import ShortGorensteinRing, make_ring
from .series import RationalityCertificate, TruncatedIntegerSeries


def canonical_json(obj) -> str:
    out: list[str] = []
    _encode(obj, "\n", out.append)
    out.append("\n")
    return "".join(out)


def write_json(obj, fh) -> None:
    """Write canonical_json(obj) to the text stream fh chunk by chunk, so a
    large document is never held as one string.  An object that cannot be
    encoded raises only after the chunks before it are written."""
    _encode(obj, "\n", fh.write)
    fh.write("\n")


def store_json(obj, path: str):
    """Write canonical_json(obj) to path (truncated first: see
    `write_json` for an object that cannot be encoded)."""
    with open(path, "w", encoding="utf-8") as fh:
        write_json(obj, fh)


def _encode(x, nl: str, emit):
    """Emit the indented text of x in chunks; nl is a newline plus x's
    indent."""
    if isinstance(x, dict):
        if not x:
            emit("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(x.items()):
            emit(sep + json.dumps(_key(key)) + ": ")
            _encode(value, inner, emit)
            sep = "," + inner
        emit(nl + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            emit("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for value in x:
            emit(sep)
            _encode(value, inner, emit)
            sep = "," + inner
        emit(nl + "]")
    elif isinstance(x, np.ndarray):
        _encode_array(x, nl, emit)
    else:
        emit(json.dumps(x))


def _key(key) -> str:
    # json.dumps turns these key types into strings the same way
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


def _encode_array(x: np.ndarray, nl: str, emit):
    """Emit the text json.dumps gives x.tolist() at indent nl, for an integer
    array, one chunk per list of last-axis vectors."""
    if x.dtype.kind not in "iu":
        raise TypeError(f"Object of type ndarray with dtype {x.dtype} "
                        f"is not JSON serializable")
    if x.size == 0 or x.ndim < 2:
        # nothing to share: no entries, or a single vector
        _encode(x.tolist(), nl, emit)
        return
    # the distinct vectors along the last axis, found as raw bytes
    d = x.shape[-1]
    rows = np.ascontiguousarray(x).reshape(-1, d)
    keys = rows.view(np.dtype((np.void, rows.itemsize * d))).ravel()
    _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    vec_nl = nl + "  " * (x.ndim - 1)
    inner = vec_nl + "  "
    texts = np.array(["[" + inner + ("," + inner).join(map(str, rows[r].tolist()))
                      + vec_nl + "]" for r in first.tolist()], dtype=object)
    _emit_rows(texts[inv.reshape(x.shape[:-1])], nl, emit)


def _emit_rows(texts: np.ndarray, nl: str, emit):
    """Emit a nested list whose leaves are the given texts, at indent nl."""
    inner = nl + "  "
    if texts.ndim == 1:
        emit("[" + inner + ("," + inner).join(texts) + nl + "]")
        return
    sep = "[" + inner
    for sub in texts:
        emit(sep)
        _emit_rows(sub, inner, emit)
        sep = "," + inner
    emit(nl + "]")


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as ex:
        raise SchemaError(f"invalid JSON in {path}: {ex.msg}") from ex


def _require(cond: bool, message: str, pointer: str):
    if not cond:
        raise SchemaError(message, pointer)


def _int_matrix(obj, pointer: str) -> list:
    _require(isinstance(obj, list) and obj, "expected a nonempty array", pointer)
    width = None
    for i, row in enumerate(obj):
        _require(isinstance(row, list), "expected an array of integers",
                 f"{pointer}/{i}")
        if width is None:
            width = len(row)
        _require(len(row) == width, "ragged matrix", f"{pointer}/{i}")
        for j, v in enumerate(row):
            _require(isinstance(v, int) and not isinstance(v, bool),
                     "expected an integer", f"{pointer}/{i}/{j}")
    return obj


# ---------------------------------------------------------------------------
# rings


def ring_to_dict(ring: ShortGorensteinRing) -> dict:
    return {"p": int(ring.p), "e": int(ring.e),
            "form": [[int(v) for v in row] for row in ring.form]}


def ring_from_dict(d, pointer: str = "") -> ShortGorensteinRing:
    _require(isinstance(d, dict), "expected a ring object", pointer)
    for key in ("p", "e", "form"):
        _require(key in d, f"missing key {key!r}", pointer)
    _require(isinstance(d["p"], int), "expected an integer", f"{pointer}/p")
    _require(isinstance(d["e"], int), "expected an integer", f"{pointer}/e")
    form = _int_matrix(d["form"], f"{pointer}/form")
    _require(len(form) == d["e"] and len(form[0]) == d["e"],
             f"form must be {d['e']}x{d['e']}", f"{pointer}/form")
    return make_ring(d["p"], d["e"], form)


def load_ring(path: str) -> ShortGorensteinRing:
    return ring_from_dict(load_json(path))


# ---------------------------------------------------------------------------
# modules


def canonical_presentation(M: FiniteModule) -> Presentation:
    """Minimal cover plus first-syzygy relation matrix."""
    res = resolve(M, 1, min_head=1)
    g = res.betti_head[0]
    r = res.betti_head[1] if len(res.betti_head) > 1 else 0
    if r == 0:
        entries = np.zeros((g, 0, M.ring.dim), dtype=np.int64)
    else:
        entries = res.diff(1).transpose(1, 0, 2)
    return Presentation(M.ring, entries)


def module_to_dict(M: FiniteModule, ring_ref=None) -> dict:
    """ring_ref: a path string to reference the ring by file, else inline.
    The zero module has no generator, so no presentation the reader
    accepts, and raises SchemaError."""
    _require(M.dim > 0, "the zero module has no generator array",
             "/presentation")
    P = canonical_presentation(M)
    return {
        "ring": ring_ref if ring_ref is not None else ring_to_dict(M.ring),
        "presentation": P.entries.tolist(),
    }


def presentation_from_dict(ring, obj, pointer: str = "/presentation") -> Presentation:
    _require(isinstance(obj, list) and obj, "expected a generator array", pointer)
    d = ring.dim
    rows = []
    width = None
    for i, gen in enumerate(obj):
        _require(isinstance(gen, list), "expected a relation array",
                 f"{pointer}/{i}")
        if width is None:
            width = len(gen)
        _require(len(gen) == width, "ragged presentation", f"{pointer}/{i}")
        for j, elem in enumerate(gen):
            _require(isinstance(elem, list) and len(elem) == d,
                     f"element must have {d} coefficients",
                     f"{pointer}/{i}/{j}")
            for t, v in enumerate(elem):
                _require(isinstance(v, int) and not isinstance(v, bool),
                         "expected an integer", f"{pointer}/{i}/{j}/{t}")
        rows.append(gen)
    entries = np.asarray(rows, dtype=np.int64)
    if entries.size == 0:
        entries = np.zeros((len(obj), 0, d), dtype=np.int64)
    return Presentation(ring, entries)


def module_from_dict(d, base_dir: str = ".") -> FiniteModule:
    _require(isinstance(d, dict), "expected a module object", "")
    _require("ring" in d, "missing key 'ring'", "")
    _require("presentation" in d, "missing key 'presentation'", "")
    if isinstance(d["ring"], str):
        ring = ring_from_dict(load_json(os.path.join(base_dir, d["ring"])),
                              "/ring")
    else:
        ring = ring_from_dict(d["ring"], "/ring")
    P = presentation_from_dict(ring, d["presentation"])
    M, _ = from_presentation(P)
    return M


def load_module(path: str) -> FiniteModule:
    return module_from_dict(load_json(path), os.path.dirname(path) or ".")


def store_module(M: FiniteModule, path: str, ring_ref=None):
    store_json(module_to_dict(M, ring_ref), path)


# ---------------------------------------------------------------------------
# computation results


def resolution_to_dict(res: MinimalFreeResolution, steps: int) -> dict:
    betti = [int(b) for b in res.betti(steps)]
    head = min(steps, res.head)
    return {"betti": betti, "materialized_through": head,
            "differentials": [res.diff(i) for i in range(1, head + 1)]}


def table_to_dict(table, induced=None) -> dict:
    entries = []
    for t in table.entries:
        rec = {"i": int(t.i), "length": int(t.length), "nu": int(t.nu),
               "m_annihilated": bool(t.m_annihilated),
               "provenance": t.provenance}
        if induced is not None and t.i < len(induced):
            rec["induced_rank"] = int(induced[t.i].rank)
        entries.append(rec)
    return {"entries": entries, "window": int(table.window),
            "junction": None if table.junction is None else int(table.junction)}


def series_to_dict(S: TruncatedIntegerSeries,
                   cert: RationalityCertificate | None) -> dict:
    return {
        "kind": S.kind,
        "coefficients": [int(c) for c in S.coefficients],
        "certificate": None if cert is None else {
            "s": int(cert.s),
            "numerator": [int(q) for q in cert.numerator],
            "e": int(cert.e),
        },
    }


def verdict_to_dict(v: KoszulVerdict) -> dict:
    witness = None
    if v.witness is not None:
        j, element = v.witness
        witness = {"j": int(j), "element": [int(c) for c in element]}
    return {"verdict": v.verdict, "witness": witness, "i_max": int(v.i_max)}


def module_info(M: FiniteModule) -> dict:
    U, _ = radical_rows(M)
    return {
        "dim": int(M.dim),
        "nu": int(nu(M)),
        "radical_dim": int(U.shape[0]),
        "hilbert": [int(h) for h in hilbert_function(M)],
        "ring": ring_to_dict(M.ring),
    }
