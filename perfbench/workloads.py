"""The benchmark's workloads: inputs built from a seed, and their operations.

Every workload draws a fixed set of modules exactly as the package's own
suites draw them.  The seed then picks the k-basis each module is written
in: seed 0 keeps the drawn basis, any other seed conjugates the action
matrices by a random invertible matrix.  The modules stay isomorphic, so
every seed-invariant output (Betti numbers, Tor/Ext tables, ranks,
certificates, verdicts) can be checked against one digest recorded at seed
0, while the matrices the engine eliminates change with the seed.

A set-up builds fresh ring and module objects, so no operation sees a
resolution cached by an earlier operation or an earlier batch.
"""

from __future__ import annotations

import contextlib
import io as textio
import json
import os

import numpy as np

from gorlab import cli, homology, io, koszul, linalg, series, verify
from gorlab.errors import GorlabError
from gorlab.modules import (
    FiniteModule,
    cyclic_module,
    hilbert_function,
    radical_rows,
    submodule,
)
from gorlab.resolution import k_syzygy_dims
from gorlab.ring import identity_form, make_ring


def loefwall(e: int, n: int) -> list[int]:
    """Betti numbers of k through degree n, from 1/(1 - e t + t^2)."""
    b = [1, e]
    while len(b) <= n:
        b.append(e * b[-1] - b[-2])
    return b[: n + 1]


def in_basis(M: FiniteModule, seed: int, salt) -> FiniteModule:
    """M itself at seed 0, else M written in a random basis drawn from
    (seed, salt)."""
    if seed == 0 or M.dim == 0:
        return M
    p, d = M.ring.p, M.dim
    rng = np.random.default_rng([seed, *salt])
    while True:
        P = rng.integers(0, p, size=(d, d), dtype=np.int64)
        if linalg.rank_array(P, p) == d:
            break
    Pinv = np.stack(linalg.solve_many(P, np.eye(d, dtype=np.int64), p), axis=1)
    actions = np.einsum("ab,ibc,cd->iad", P, M.actions, Pinv) % p
    return FiniteModule(M.ring, actions)


def warm_k(ring, modules) -> None:
    """Materialize the ring's resolution of k as far as any junction or
    Koszul bound of these modules reads it, as one verify run does once."""
    k_syzygy_dims(ring, max(M.dim for M in modules) * ring.dim)


# ---------------------------------------------------------------------------
# readme_cli


class CliRefusal(GorlabError):
    """The CLI exited 2: a usage, I/O or validation refusal."""


def _cli(argv) -> str:
    out, err = textio.StringIO(), textio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc == 2:
        raise CliRefusal(err.getvalue().strip())
    if rc != 0:
        raise RuntimeError(f"exit {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def _resolve_view(text: str) -> str:
    d = json.loads(text)
    shapes = [[len(G), len(G[0]) if G else 0] for G in d["differentials"]]
    return io.canonical_json({"betti": d["betti"], "shapes": shapes,
                              "materialized_through": d["materialized_through"]})


def _koszul_view(text: str) -> str:
    d = json.loads(text)
    if d["witness"] is not None:
        d["witness"] = {"j": d["witness"]["j"]}   # the element is basis-bound
    return io.canonical_json(d)


class ReadmeCli:
    """The README's CLI commands, in README order, through gorlab.cli.main."""

    name = "readme_cli"
    nominal_batch_s = 13.0
    min_batches = 3     # 8 commands a pass; the quantiles need 20 or more

    def setup(self, seed: int, workdir: str):
        os.makedirs(workdir, exist_ok=True)
        r3, m1, rx = (os.path.join(workdir, f) for f in
                      ("r3.json", "m1.json", "rx.json"))
        _cli(["ring", "new", "--e", "3", "--form", "identity", "--out", r3])
        _cli(["module", "random", "--ring", r3, "--gens", "2", "--rels", "2",
              "--seed", "5", "--out", m1])
        _cli(["module", "new", "--ring", r3, "--presentation",
              "[[[0,1,0,0,0]]]", "--out", rx])
        if seed:
            for i, path in enumerate((m1, rx)):
                io.store_module(in_basis(io.load_module(path), seed, (i,)), path)
        return r3, m1, rx

    def run_batch(self, files, gate) -> None:
        r3, m1, rx = files
        commands = [
            ("ring_check", ["ring", "check", r3], None),
            ("module_info", ["module", "info", m1], None),
            ("resolve", ["resolve", m1, "--steps", "10"], _resolve_view),
            ("tor", ["tor", "--m", rx, "--n-mod", m1, "--range", "0..12",
                     "--induced"], None),
            ("ext", ["ext", "--m", rx, "--n-mod", m1, "--range", "0..12"], None),
            ("series_poincare", ["series", "poincare", "--module", rx,
                                 "--steps", "6", "--certify"], None),
            ("koszul", ["koszul", m1], _koszul_view),
            ("verify_lofwall", ["verify", "lofwall", "--e", "3", "--cutoff",
                                "20"], None),
        ]
        for key, argv, view in commands:
            text = gate.call(key, lambda: _cli(argv),
                             lambda t, v=view: (v(t) if v else t, t))
            if text is None:
                continue
            if key == "series_poincare":
                gate.require(key, json.loads(text) == {
                    "kind": "poincare",
                    "coefficients": [1, 1, 2, 5, 13, 34, 89],
                    "certificate": {"s": 1, "numerator": [1, -2], "e": 3}},
                    "differs from the README's R/(x1) example")
            elif key == "verify_lofwall":
                trial = json.loads(text)["trials"][0]
                gate.require(key, trial["betti"] == loefwall(3, 20),
                             "Betti numbers of k differ from 1/(1 - 3t + t^2)")


# ---------------------------------------------------------------------------
# tor_ext_pairs

PAIR_CUTOFF = 25
PAIR_TRIALS = 8


def _table_texts(table):
    return io.canonical_json(io.table_to_dict(table)), None


def _induced_texts(results):
    ranks = [{"i": r.i, "rank": r.rank, "source_length": r.source_length,
              "target_length": r.target_length, "provenance": r.provenance}
             for r in results]
    return io.canonical_json(ranks), None


class TorExtPairs:
    """The first PAIR_TRIALS pairs of `verify main-theorem` at the README's
    defaults (seed 0, e = 3, identity form, max_dim 12, cutoff 25)."""

    name = "tor_ext_pairs"
    nominal_batch_s = 45.0
    min_batches = 1

    def setup(self, seed: int, workdir: str):
        cfg = verify.TrialConfig(trials=PAIR_TRIALS, cutoff=PAIR_CUTOFF,
                                 max_dim=12)
        ring = verify._ring_for(cfg)
        pairs = []
        for t in range(PAIR_TRIALS):
            rng = np.random.default_rng(cfg.seed + t)
            M = in_basis(verify._draw_module(ring, cfg, rng), seed, (t, 0))
            N = in_basis(verify._draw_module(ring, cfg, rng), seed, (t, 1))
            U, piv = radical_rows(M)
            iota = submodule(M, U, piv)[1] if U.shape[0] else None
            pairs.append((t, M, N, iota))
        warm_k(ring, [X for _, M, N, _ in pairs for X in (M, N)])
        return pairs

    def run_batch(self, pairs, gate) -> None:
        while pairs:
            t, M, N, iota = pairs.pop(0)
            T = gate.call(f"t{t}.tor", lambda: homology.tor(M, N, PAIR_CUTOFF),
                          _table_texts)
            if T is None:
                continue   # verify main-theorem abandons the pair here too
            gate.call(f"t{t}.ext", lambda: homology.ext(M, N, PAIR_CUTOFF),
                      _table_texts)
            if iota is not None:
                gate.call(f"t{t}.tor_induced",
                          lambda: homology.tor_induced(iota, N, T.window),
                          _induced_texts)


# ---------------------------------------------------------------------------
# betti_verdicts

VERDICT_DRAWS = 25
POINCARE_STEPS = 30
CERT_MARGIN = 5


def _verdict_texts(out):
    v, S, cert = out
    full = {"verdict": io.verdict_to_dict(v), "series": io.series_to_dict(S, cert)}
    view = json.loads(json.dumps(full))
    if view["verdict"]["witness"] is not None:
        view["verdict"]["witness"] = {"j": view["verdict"]["witness"]["j"]}
    return io.canonical_json(view), io.canonical_json(full)


class BettiVerdicts:
    """Alternating cyclic R/I (the koszul_iff draw of the lemma suite, over
    e = 3 and e = 4) and random modules (the acceptance criterion 2 draw)."""

    name = "betti_verdicts"
    nominal_batch_s = 8.0
    min_batches = 1

    def setup(self, seed: int, workdir: str):
        rings = {e: make_ring(101, e, identity_form(e)) for e in (3, 4)}
        cfg = verify.TrialConfig(max_dim=12)
        mods = []
        for j in range(VERDICT_DRAWS):
            ring = rings[3 if j % 2 == 0 else 4]
            edge = 0 if j % 10 == 0 else 1 if j % 10 == 5 else -1
            gens = verify._draw_ideal_gens(ring, np.random.default_rng(3000 + j),
                                           include_edge=edge)
            M, _ = cyclic_module(ring, gens)
            mods.append((f"c{j}", in_basis(M, seed, (0, j)), edge))
            R = verify._draw_module(rings[3], cfg, np.random.default_rng(1000 + j))
            mods.append((f"r{j}", in_basis(R, seed, (1, j)), None))
        for ring in rings.values():
            warm_k(ring, [M for _, M, _ in mods if M.ring is ring])
        return mods

    def run_batch(self, mods, gate) -> None:
        while mods:
            key, M, edge = mods.pop(0)

            def op():
                v = koszul.is_koszul(M)
                S = series.poincare_series(M, POINCARE_STEPS)
                return v, S, series.certify_rational(S, M.ring.e, CERT_MARGIN)

            out = gate.call(key, op, _verdict_texts)
            if out is None or edge is None:
                continue
            verdict, S, _ = out
            e = M.ring.e
            if edge == 1:     # I = m: R/I is k
                gate.require(key, list(S.coefficients) == loefwall(e, POINCARE_STEPS),
                             "Betti numbers of k differ from 1/(1 - e t + t^2)")
            if M.dim != M.ring.dim:   # proper I: not Koszul exactly when I = m^2
                is_m2 = hilbert_function(M) == [1, e]
                gate.require(key, verdict.is_koszul() != is_m2,
                             "R/I verdict contradicts 'not Koszul iff I = m^2'")


WORKLOADS = {w.name: w for w in (ReadmeCli(), TorExtPairs(), BettiVerdicts())}
