"""Seeded, bounded property suites for the structural results.

Each check tests one statement, or the lemma suite eight, through per-trial
functions (cfg, ring, t, rng) -> record that generate rings and modules from
an explicit seed.  `run_check` is the one runner: it refuses e <= 2 for the
statements that assume e > 2 (`NEEDS_E3`), builds the check's ring, runs
trial t of each function with rng = default_rng(seed + offset + t), adds the
trial index, and a lemma's name, to each record, and returns a
VerificationReport whose failures carry a reproducer (the seed and trial
index).  Statements with hypotheses (m^2 M = 0, Koszulness filters) skip
instances that violate them; a skip is never a failure.  "i >> 0" conclusions are
operationalized as: there exists s <= cutoff - margin with the property
holding on [s, cutoff].
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from . import homology, koszul, linalg, series
from .errors import ConfigError, GorlabError, InsufficientDegree
from .modules import (
    FiniteModule,
    cyclic_module,
    hilbert_function,
    matlis_dual,
    hom_space,
    nu,
    radical_rows,
    radical_square_rows,
    random_module,
    split_extension,
)
from .resolution import resolve, syzygy
from .ring import (
    FORM_CHOICES,
    ShortGorensteinRing,
    hyperbolic_form,
    identity_form,
    make_ring,
    named_form,
)


@dataclass(frozen=True)
class TrialConfig:
    seed: int = 0
    trials: int = 25
    p: int = 101
    e: int = 3
    form: str = "identity"
    max_generators: int = 3
    max_relations: int = 3
    max_dim: int = 12
    cutoff: int = 20
    margin: int = 5

    def __post_init__(self):
        if self.cutoff < 10:
            raise ConfigError(f"cutoff {self.cutoff} < 10")
        if self.trials < 1 or self.max_generators < 1 or self.max_dim < 1:
            raise ConfigError("trial counts and size caps must be positive")
        if self.max_relations < 0:
            raise ConfigError("negative configuration value")
        if self.margin < 1:
            # a certificate on no tail degree certifies nothing
            raise ConfigError(f"margin {self.margin} < 1")
        if self.form not in FORM_CHOICES:
            raise ConfigError(f"form must be one of {FORM_CHOICES}")


@dataclass
class VerificationReport:
    check: str
    config: dict
    passed: bool
    trials: list
    failures: list
    elapsed_ms: int

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "check": self.check,
            "config": self.config,
            "pass": self.passed,
            "trials": self.trials,
            "failures": self.failures,
        }
        if include_timing:
            out["elapsed_ms"] = self.elapsed_ms
        return out


def _ring_for(cfg: TrialConfig, index: int = 0) -> ShortGorensteinRing:
    return make_ring(cfg.p, cfg.e,
                     named_form(cfg.form, cfg.e, cfg.p, cfg.seed + 7919 * index))


def _draw_module(ring, cfg: TrialConfig, rng) -> FiniteModule:
    """A random nonzero module within the size caps."""
    while True:
        g = int(rng.integers(1, cfg.max_generators + 1))
        r = int(rng.integers(0, cfg.max_relations + 1))
        M = random_module(ring, g, r, int(rng.integers(0, 2**62)))
        if 0 < M.dim <= cfg.max_dim:
            return M


def _draw_ideal_gens(ring, rng, include_edge: int = -1):
    """1-3 random ideal generators with mixed degree-1/degree-2 parts;
    include_edge 0 -> I = m^2, 1 -> I = m."""
    if include_edge == 0:
        return [ring.w()]
    if include_edge == 1:
        return [ring.x(i) for i in range(1, ring.e + 1)] + [ring.w()]
    gens = []
    for _ in range(int(rng.integers(1, 4))):
        c = np.zeros(ring.dim, dtype=np.int64)
        c[1:ring.e + 1] = rng.integers(0, ring.p, size=ring.e)
        if rng.integers(0, 2):
            c[-1] = rng.integers(0, ring.p)
        gens.append(ring.element(c))
    return gens


def _fingerprint(M: FiniteModule) -> dict:
    return {"dim": int(M.dim), "nu": int(nu(M)),
            "hilbert": [int(h) for h in hilbert_function(M)]}


def _judge(rec: dict, problems: list) -> dict:
    """rec with status "fail" and its problems if there are any, else
    status "pass"."""
    rec["status"] = "fail" if problems else "pass"
    if problems:
        rec["problems"] = problems
    return rec


def _zero_tail_start(ranks) -> int:
    """The least s >= 1 with every rank from degree s on zero."""
    s = len(ranks)
    while s > 1 and ranks[s - 1] == 0:
        s -= 1
    return s


# ---------------------------------------------------------------------------
# the four single-statement checks, one per-trial function each


def _lofwall(cfg: TrialConfig, _ring, t: int, rng) -> dict:
    """beta_i(k) equals the expansion of 1/(1 - e t + t^2) through the cutoff,
    with b_0 = 1, b_1 = e and the three-term recurrence, over the ring of
    trial t (not the check's ring: a random form is drawn afresh per trial)."""
    k = FiniteModule.residue_field(_ring_for(cfg, t))
    b = [int(x) for x in resolve(k, cfg.cutoff).betti(cfg.cutoff)]
    expected = series.expand_rational([1], cfg.e, cfg.cutoff)
    ok = (b == expected and b[0] == 1 and b[1] == cfg.e
          and all(b[i + 1] == cfg.e * b[i] - b[i - 1]
                  for i in range(1, cfg.cutoff)))
    return {"status": "pass" if ok else "fail", "betti": b, "expected": expected}


def _main_theorem(cfg: TrialConfig, ring, t: int, rng) -> dict:
    """Per random pair (M, N): m Tor_i = m Ext^i = 0 on a tail [s, n];
    certify_rational succeeds on all four series; length = nu on the tail."""
    n = cfg.cutoff
    M = _draw_module(ring, cfg, rng)
    N = _draw_module(ring, cfg, rng)
    rec = {"M": _fingerprint(M), "N": _fingerprint(N)}
    try:
        ttab = homology.tor(M, N, n)
        etab = homology.ext(M, N, n)
        s = n + 1
        for s_try in range(n, -1, -1):
            if (ttab.entries[s_try].m_annihilated
                    and etab.entries[s_try].m_annihilated):
                s = s_try
            else:
                break
        rec["s"] = s
        problems = []
        if s > n - cfg.margin:
            problems.append(f"m-annihilation tail starts at {s}")
        for label, ser in (
            ("tor_nu", series.TruncatedIntegerSeries("tor_nu", ttab.nus())),
            ("tor_length", series.TruncatedIntegerSeries("tor_length", ttab.lengths())),
            ("ext_nu", series.TruncatedIntegerSeries("ext_nu", etab.nus())),
            ("ext_length", series.TruncatedIntegerSeries("ext_length", etab.lengths())),
        ):
            try:
                cert = series.certify_rational(ser, cfg.e, cfg.margin)
                rec[label + "_s"] = cert.s
            except InsufficientDegree as ex:
                problems.append(f"{label} not certified: {ex}")
        for i in range(s, n + 1):
            if ttab.entries[i].length != ttab.entries[i].nu:
                problems.append(f"tor length != nu at {i}")
            if etab.entries[i].length != etab.entries[i].nu:
                problems.append(f"ext length != nu at {i}")
        return _judge(rec, problems)
    except GorlabError as ex:
        return _judge(rec, [f"{type(ex).__name__}: {ex}"])


def _vanishing(cfg: TrialConfig, ring, t: int, rng) -> dict:
    """For Koszul M with m^2 M = 0 and arbitrary N, the induced maps
    Tor_i(iota_M, N) vanish on a tail; cyclic Koszul M obey the effective
    bound: zero for every i > nu(N*)."""
    n = cfg.cutoff
    cyclic = t % 2 == 0
    if cyclic:
        M, _ = cyclic_module(ring, _draw_ideal_gens(ring, rng))
    else:
        M = _draw_module(ring, cfg, rng)
    N = _draw_module(ring, cfg, rng)
    rec = {"cyclic": cyclic, "M": _fingerprint(M), "N": _fingerprint(N)}
    if M.dim == 0 or radical_square_rows(M)[0].shape[0]:
        return dict(rec, status="skipped", reason="m^2 M != 0 or M = 0")
    if not koszul.is_koszul(M).is_koszul():
        return dict(rec, status="skipped", reason="M not Koszul")
    ranks, certified = homology.iota_vanishing(M, N, n)
    rec["ranks"] = [int(r) for r in ranks]
    rec["certified_through"] = certified
    problems = []
    rec["s"] = s = _zero_tail_start(ranks)
    if certified < n:
        problems.append(f"vanishing tail only certified through {certified}")
    elif s > n - cfg.margin:
        problems.append(f"rank tail starts at {s}")
    if cyclic:
        bound = nu(matlis_dual(N))
        rec["nu_dual"] = int(bound)
        bad = [i for i in range(bound + 1, len(ranks)) if ranks[i] != 0]
        if bad:
            problems.append(f"cyclic bound violated at {bad}")
    return _judge(rec, problems)


def _e2_ring(cfg: TrialConfig) -> ShortGorensteinRing:
    """R2 = k[x,y]/(x^2, y^2), the ring of the e = 2 counterexample."""
    return make_ring(cfg.p, 2, hyperbolic_form(2))


def _counterexample_e2(cfg: TrialConfig, ring, t: int, rng) -> dict:
    """Over R2 = k[x,y]/(x^2, y^2) with M = N = R/(x): Tor_i(M, N) is M
    itself for every i >= 1 (length 2, nu 1, not killed by m), the induced
    maps have rank 1, and beta_i(M) = 1; the nu series is still rational."""
    n = min(cfg.cutoff, 15)
    M, _ = cyclic_module(ring, [ring.x(1)])
    rec = {"M": _fingerprint(M)}
    problems = []
    # at e = 2 the window is the whole table, so the ranks run through n
    table, _, ranks = homology.length_count(M, M, n)
    betti = [int(b) for b in resolve(M, n).betti(n)]
    rec["lengths"] = table.lengths()
    rec["betti"] = betti
    for i in range(1, n + 1):
        e = table.entries[i]
        if not (e.length == 2 and e.nu == 1 and not e.m_annihilated):
            problems.append(f"Tor_{i} is not M numerically")
    if betti != [1] * (n + 1):
        problems.append("beta_i(R/(x)) != 1")
    rec["ranks"] = [int(r) for r in ranks]
    if any(r != 1 for r in ranks[1:]):
        problems.append("induced rank != 1 at a positive degree")
    nu_series = series.TruncatedIntegerSeries("tor_nu", table.nus())
    try:
        cert = series.certify_rational(nu_series, 2, cfg.margin)
        rec["nu_series_s"] = cert.s
        rec["note"] = ("rationality holds at e = 2 even though "
                       "m-annihilation fails")
    except InsufficientDegree as ex:
        problems.append(f"nu series not certified: {ex}")
    return _judge(rec, problems)


# ---------------------------------------------------------------------------
# lemma suite: the supporting lemmas, one per-trial function each


def _first_syzygy_off_k(M: FiniteModule) -> FiniteModule | None:
    """M_1 = syzygy(M, 1) when m^2 M = 0, M_1 != 0 and M_1 does not split
    off k (the hypotheses of the Lescot formulas); otherwise None."""
    if radical_square_rows(M)[0].shape[0]:
        return None
    M1 = syzygy(M, 1)
    if M1.dim == 0 or koszul.split_off_k_witness(M1) is not None:
        return None
    return M1


def _lescot(cfg: TrialConfig, ring, t: int, rng) -> dict:
    """nu(M_1) = nu(M) e - nu(mM) and nu(m M_1) = nu(M), for m^2 M = 0 and
    M_1 not splitting off k."""
    M = _draw_module(ring, cfg, rng)
    rec = {"M": _fingerprint(M)}
    M1 = _first_syzygy_off_k(M)
    if M1 is None:
        return dict(rec, status="skipped")
    U, _ = radical_rows(M)
    lhs1, rhs1 = nu(M1), nu(M) * ring.e - U.shape[0]
    # nu(m M_1) = dim m M_1: it is a vector space since m^2 M_1 = 0
    U1, _ = radical_rows(M1)
    lhs2, rhs2 = U1.shape[0], nu(M)
    ok = lhs1 == rhs1 and lhs2 == rhs2
    return dict(rec, status="pass" if ok else "fail",
                values=[int(lhs1), int(rhs1), int(lhs2), int(rhs2)])


def _edge(t: int) -> int:
    """Every tenth ideal is m^2 (t = 0 mod 10) or m (t = 5 mod 10)."""
    return 0 if t % 10 == 0 else 1 if t % 10 == 5 else -1


def _betti_growth(cfg: TrialConfig, _ring, t: int, rng) -> dict:
    """For proper ideals I and e > 2: beta_i(R/I) strictly increasing from
    i = 1 and beta_i >= i, over identity-form rings with e = 3 and e = 4 in
    turn (not over the suite's ring)."""
    e = 3 if t % 2 == 0 else 4
    ring = make_ring(cfg.p, e, identity_form(e))
    gens = _draw_ideal_gens(ring, rng, include_edge=_edge(t))
    M, _ = cyclic_module(ring, gens)
    rec = {"e": e, "M": _fingerprint(M)}
    if M.dim == ring.dim:   # I = 0 is not proper-interesting: R is free
        return dict(rec, status="skipped")
    n = min(cfg.cutoff, 12)
    b = [int(x) for x in resolve(M, n).betti(n)]
    ok = (all(b[i] >= i for i in range(n + 1))
          and all(b[i + 1] > b[i] for i in range(1, n)))
    return dict(rec, status="pass" if ok else "fail", betti=b)


def _koszul_iff(cfg: TrialConfig, ring, t: int, rng) -> dict:
    """R/I is not Koszul exactly when I = m^2."""
    M, _ = cyclic_module(ring, _draw_ideal_gens(ring, rng, include_edge=_edge(t)))
    rec = {"M": _fingerprint(M)}
    if M.dim == ring.dim:   # I = 0: R/I free, Koszulness trivial
        return dict(rec, status="skipped")
    is_m2 = hilbert_function(M) == [1, ring.e]
    verdict = koszul.is_koszul(M)
    ok = verdict.is_koszul() == (not is_m2)
    return dict(rec, status="pass" if ok else "fail", i_eq_m2=is_m2,
                verdict=verdict.verdict)


def _tail_equivalence(cfg: TrialConfig, ring, t: int, rng) -> dict:
    """Tor_i(iota_M, N) vanishes for i >> 0 iff the same holds for M_1,
    when m^2 M = 0 and M_1 does not split off k."""
    M = _draw_module(ring, cfg, rng)
    N = _draw_module(ring, cfg, rng)
    rec = {"M": _fingerprint(M), "N": _fingerprint(N)}
    M1 = _first_syzygy_off_k(M)
    if M1 is None:
        return dict(rec, status="skipped")
    n = min(cfg.cutoff, 12)
    vm = _tail_vanishes(M, N, n, cfg.margin)
    v1 = _tail_vanishes(M1, N, n, cfg.margin)
    return dict(rec, status="pass" if vm == v1 else "fail", vanishing=[vm, v1])


def _tail_vanishes(M: FiniteModule, N: FiniteModule, n: int, margin: int) -> bool:
    ranks, certified = homology.iota_vanishing(M, N, n)
    # zeros hold on [s, certified]; certified degrees count toward the
    # margin just like honest ones (the honest window alone can be shorter
    # than the margin even when the tail is certified much further)
    return certified >= n and _zero_tail_start(ranks) <= n - margin


def _length_count(cfg: TrialConfig, ring, t: int, rng) -> dict:
    """Length-count equality at degree i holds iff the induced maps vanish
    at i and i-1 (Remark conditions), plus the companion inequality."""
    M = _draw_module(ring, cfg, rng)
    N = _draw_module(ring, cfg, rng)
    rec = {"M": _fingerprint(M), "N": _fingerprint(N)}
    if radical_square_rows(M)[0].shape[0]:
        return dict(rec, status="skipped")
    rep = homology.length_count_audit(M, N, min(cfg.cutoff, 10))
    ok = all(r["equality"] and r["inequality"]
             and r["equality_iff_vanishing"] for r in rep.degrees)
    return dict(rec, status="pass" if ok else "fail",
                degrees_checked=len(rep.degrees))


def _hom_vanishing(cfg: TrialConfig, ring, t: int, rng) -> dict:
    """For cyclic Koszul M and beta_i(M) > beta_i(N) at some i: every
    phi: M -> N lands in mN, and (when m^2 N = 0) phi kills mM."""
    M, _ = cyclic_module(ring, _draw_ideal_gens(ring, rng))
    N = _draw_module(ring, cfg, rng)
    rec = {"M": _fingerprint(M), "N": _fingerprint(N)}
    if M.dim == 0 or M.dim == ring.dim or not koszul.is_koszul(M).is_koszul():
        return dict(rec, status="skipped")
    n = min(cfg.cutoff, 12)
    bM = resolve(M, n).betti(n)
    bN = resolve(N, n).betti(n)
    if not any(bM[i] > bN[i] for i in range(n + 1)):
        return dict(rec, status="skipped",
                    reason="no degree with beta_i(M) > beta_i(N)")
    UN, pivN = radical_rows(N)
    UM, _ = radical_rows(M)
    p = ring.p
    problems = []
    for phi in hom_space(M, N):
        img = phi.matrix.T % p   # rows are images of the basis of M
        if not linalg.in_rowspace(UN, pivN, img, p):
            problems.append("phi(M) not inside mN")
        if radical_square_rows(N)[0].shape[0] == 0 and UM.shape[0]:
            if (phi.matrix @ UM.T % p).any():
                problems.append("phi does not kill mM")
    return _judge(rec, problems)


def _three_parts(cfg: TrialConfig, ring, t: int, rng) -> dict:
    """Split extensions 0 -> Rx -> M -> B -> 0 with x outside mM: when
    m^2 M = 0 and M is Koszul, B is Koszul."""
    M = _draw_module(ring, cfg, rng)
    rec = {"M": _fingerprint(M)}
    if radical_square_rows(M)[0].shape[0] or not koszul.is_koszul(M).is_koszul():
        return dict(rec, status="skipped")
    # x = the first minimal generator of M
    U, piv = radical_rows(M)
    pivset = set(piv)
    free_cols = [c for c in range(M.dim) if c not in pivset]
    x = np.zeros(M.dim, dtype=np.int64)
    x[free_cols[0]] = 1
    data = split_extension(M, x)
    verdict = koszul.is_koszul(data.B)
    return dict(rec, status="pass" if verdict.is_koszul() else "fail",
                B_dim=int(data.B.dim))


def _ann_is_m2(ann: np.ndarray, p: int) -> bool:
    """ann given as rref rows of {r : r x = 0} inside R; m^2 = span(w)."""
    if ann.shape[0] != 1:
        return False
    v = ann[0] % p
    return not v[:-1].any() and v[-1] != 0


def _annihilator(cfg: TrialConfig, ring, t: int, rng) -> dict:
    """Search for x outside mM with ann(x) != m^2 (exists over algebraically
    closed k when m^2 M = 0 and nu(M) >= nu(mM)); over GF(p) a not-found is a
    soft outcome, reported but never failing."""
    M = _draw_module(ring, cfg, rng)
    rec = {"M": _fingerprint(M)}
    U, piv = radical_rows(M)
    if radical_square_rows(M)[0].shape[0] or nu(M) < U.shape[0]:
        return dict(rec, status="skipped")
    pivset = set(piv)
    free_cols = [c for c in range(M.dim) if c not in pivset]
    p = ring.p
    found = False
    candidates = 0
    for _ in range(60):
        x = np.zeros(M.dim, dtype=np.int64)
        x[free_cols] = rng.integers(0, p, size=len(free_cols))
        if not x.any():
            continue
        candidates += 1
        T = np.stack([M.all_ops[b] @ x % p for b in range(ring.dim)], axis=1)
        ann = linalg.kernel_array(T, p)
        if not _ann_is_m2(ann, p):
            found = True
            break
    return dict(rec, status="pass" if found else "soft_not_found",
                candidates=candidates)


def _per(k: int):
    """The trial count of k trials per cfg.trials."""
    return lambda cfg: k * cfg.trials


# lemma -> (per-trial function, seed offset, trial count); trial t of a
# lemma draws from default_rng(cfg.seed + offset + t)
LEMMAS = {
    "lescot": (_lescot, 1000, _per(4)),
    "betti_growth": (_betti_growth, 2000, _per(2)),
    "koszul_iff": (_koszul_iff, 3000, _per(8)),
    "tail_equivalence": (_tail_equivalence, 4000, _per(1)),
    "length_count": (_length_count, 5000, _per(1)),
    "hom_vanishing": (_hom_vanishing, 6000, _per(1)),
    "three_parts": (_three_parts, 8000, _per(1)),
    "annihilator": (_annihilator, 9000, _per(1)),
}

# check -> (report name, ring builder, lemmas); a check that tests a single
# statement has the one lemma None, whose records carry no "check" name
CHECKS = {
    "lofwall": ("lofwall", _ring_for, {None: (
        _lofwall, 0, lambda cfg: cfg.trials if cfg.form == "random" else 1)}),
    "main-theorem": ("main_theorem", _ring_for, {None: (_main_theorem, 0, _per(1))}),
    "vanishing": ("vanishing_proposition", _ring_for, {None: (_vanishing, 0, _per(1))}),
    "counterexample-e2": ("counterexample_e2", _e2_ring, {None: (
        _counterexample_e2, 0, lambda cfg: 1)}),
    "lemma-suite": ("lemma_suite", _ring_for, LEMMAS),
}

# checks whose statement assumes e > 2 -> their refusal at e <= 2
NEEDS_E3 = {
    "main-theorem": "the theorem assumes e > 2; run the check counterexample-e2 instead",
    "vanishing": "the proposition assumes e > 2",
}


def run_check(name: str, cfg: TrialConfig) -> VerificationReport:
    """Run every trial of every lemma of the check `name`, in table order,
    on the check's ring; the report fails when any record has status
    "fail"."""
    if name not in CHECKS:
        raise ConfigError(f"unknown check {name!r}; choose from {sorted(CHECKS)}")
    if cfg.e <= 2 and name in NEEDS_E3:
        raise ConfigError(NEEDS_E3[name])
    t0 = time.time()
    report, ring_for, lemmas = CHECKS[name]
    ring = ring_for(cfg)
    trials = [{**({"check": lemma} if lemma else {}), "trial": t,
               **fn(cfg, ring, t, np.random.default_rng(cfg.seed + offset + t))}
              for lemma, (fn, offset, count) in lemmas.items()
              for t in range(count(cfg))]
    failures = [rec for rec in trials if rec.get("status") == "fail"]
    return VerificationReport(report, asdict(cfg), not failures, trials,
                              failures, int((time.time() - t0) * 1000))
