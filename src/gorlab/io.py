"""Canonical JSON serialization for rings, modules, series and reports.

All files are UTF-8 JSON with sorted keys, two-space indentation and a
trailing newline; storing a loaded file reproduces it byte for byte.  Every
number is an integer — no floating point appears in any artifact.  Schema
violations raise SchemaError carrying a JSON pointer to the offending spot.

Byte contract: ``canonical_json(obj)`` is exactly
``json.dumps(obj, sort_keys=True, indent=2) + "\n"``.  It does not call that
encoder, though: ``json.dumps`` drops to its pure-Python path whenever
``indent`` is set.  Dicts and lists are walked here instead.  A
differential is handed over as its stored nonzeros (`resolution.Nonzeros`)
and written as ``json.dumps`` writes ``G.dense().tolist()``, from the
nonzeros alone, so a differential never becomes a dense array, Python ints
or nested lists.  A differential has about 1.4 nonzero vectors per list
and is otherwise zero vectors, so each list is written as shared pieces:
each distinct nonzero vector's text, formatted once, and for each run of k
zero vectors the blocks of 2^b copies of the zero vector's text and
separator, one per set bit of k, made once per differential by doubling.
Any other object, an ndarray included, is written as ``json.dumps`` writes
it, or raises TypeError as it does.  ``write_json`` writes the same pieces
straight to a text stream: no write of a differential is longer than its
largest zero block plus one vector's text, and a large document is never
held as one string.
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
from .resolution import MinimalFreeResolution, Nonzeros, resolve
from .ring import ShortGorensteinRing, make_ring
from .series import RationalityCertificate, TruncatedIntegerSeries


def canonical_json(obj) -> str:
    out: list[str] = []
    _encode(obj, "\n", out.append)
    out.append("\n")
    return "".join(out)


def write_json(obj, fh) -> None:
    """Write canonical_json(obj) to the text stream fh in pieces, so a
    large document is never held as one string: no write of a differential
    is longer than its largest block of zero vectors plus one vector's
    text, and most of its writes are shared strings (`_encode_nonzeros`).
    An object that cannot be encoded raises only after the pieces before
    it are written."""
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
    elif isinstance(x, Nonzeros):
        # a NamedTuple, so checked before tuple
        _encode_nonzeros(x, nl, emit)
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


def _encode_nonzeros(G: Nonzeros, nl: str, emit):
    """Emit the text json.dumps gives G.dense().tolist() at indent nl, from
    the nonzeros alone, in shared pieces: a run of k zero vectors is the
    blocks of 2^b copies of the zero vector's text and separator, one per
    set bit of k, made once per differential by doubling; each distinct
    nonzero vector's text is formatted once.  So no write is longer than
    the largest zero block plus one vector's text."""
    a, j, C = G.shape
    if not (a and j and C):
        _encode(G.dense().tolist(), nl, emit)
        return
    row_nl = nl + "  "
    vec_nl = row_nl + "  "
    inner = vec_nl + "  "
    sep = "," + vec_nl

    def text(v) -> str:
        return "[" + inner + ("," + inner).join(map(str, v)) + vec_nl + "]"

    # the vectors of the (generator, target) pairs holding a nonzero, each
    # distinct one formatted once (found as raw bytes), with and without
    # the separator that follows every vector but a list's last
    pairs, at = np.unique(G.gen * j + G.target, return_inverse=True)
    vecs = np.zeros((len(pairs), C), dtype=np.int64)
    vecs[at, G.slot] = G.val
    keys = vecs.view(np.dtype((np.void, vecs.itemsize * C))).ravel()
    _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    last = [text(vecs[r].tolist()) for r in first.tolist()]
    texts = [t + sep for t in last]
    zero = text([0] * C)
    # blocks[b] is 2^b copies of the zero vector's text and separator; a
    # run holds at most j - 1 of them
    blocks = [zero + sep]
    while 2 ** len(blocks) < j:
        blocks.append(blocks[-1] * 2)

    def zeros(k):
        b = 0
        while k:
            if k & 1:
                emit(blocks[b])
            k >>= 1
            b += 1

    gen, col = np.divmod(pairs, j)
    ends = np.searchsorted(gen, np.arange(1, a + 1)).tolist()
    col, inv = col.tolist(), inv.tolist()
    lo, head = 0, "[" + row_nl + "[" + vec_nl
    between = row_nl + "]," + row_nl + "[" + vec_nl
    for hi in ends:
        emit(head)
        nxt = 0     # the list's first vector not yet written
        for k in range(lo, hi):
            c = col[k]
            zeros(c - nxt)
            emit(texts[inv[k]] if c + 1 < j else last[inv[k]])
            nxt = c + 1
        if nxt < j:
            zeros(j - 1 - nxt)
            emit(zero)
        lo, head = hi, between
    emit(row_nl + "]" + nl + "]")


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
    return Presentation(M.ring, res.diff(1).transpose(1, 0, 2))


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
            "differentials": res.nonzeros[:head]}


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
