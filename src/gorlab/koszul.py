"""Koszulness of finite modules over short Gorenstein rings.

A module M is Koszul exactly when no syzygy M_j (j >= 1) splits off a copy
of the residue field k; a split copy of k in M_j is the same thing as a
socle element of M_j outside m M_j.  The test is finite: a split at index j
forces a direct summand isomorphic to k_{-j}, whose dimension equals
dim k_j, so indices with dim k_j > dim M can never fire.  i_max is the
largest index the bound allows, and a not_koszul verdict carries an explicit
witness vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import RadicalSquareNonzero
from .modules import (
    FiniteModule,
    radical_rows,
    socle_rows,
)
from .resolution import k_syzygy_dims, resolve
from .series import koszul_formula_holds

KOSZUL = "koszul"
NOT_KOSZUL = "not_koszul"


@dataclass(frozen=True)
class KoszulVerdict:
    module: FiniteModule
    verdict: str
    witness: tuple | None   # (j, element): socle vector of M_j inside F_{j-1}
    i_max: int

    def is_koszul(self) -> bool:
        return self.verdict == KOSZUL


def split_off_k_witness(M: FiniteModule) -> np.ndarray | None:
    """A socle element of M outside mM (proving k | M), or None.

    k is a direct summand of M iff soc(M) is not contained in mM: such an
    element spans a submodule k whose vanishing under m lets any k-linear
    projection fixing it be R-linear.
    """
    S, spiv = socle_rows(M)
    if S.shape[0] == 0:
        return None
    U, piv = radical_rows(M)
    red = linalg.reduce_mod_rowspace(U, piv, S, M.ring.p)
    for t in range(S.shape[0]):
        if red[t].any():
            return S[t]
    return None


def is_koszul(M: FiniteModule) -> KoszulVerdict:
    """Certified Koszulness verdict for M.

    Checks soc(M_j) subset of m M_j for 1 <= j <= i_max, where
    i_max = max{ j : dim k_j <= dim M }.  Free summands of M do not affect
    its syzygies, so modules with m^2 M != 0 need no special casing beyond
    the (safe, monotone) dimension bound.
    """
    ring = M.ring
    dims = k_syzygy_dims(ring, M.dim)
    i_max = len(dims) - 2   # the last listed dimension exceeds the bound
    if M.dim == 0:
        return KoszulVerdict(M, KOSZUL, None, i_max)
    res = resolve(M, max(i_max, 1), min_head=i_max)
    for j in range(1, i_max + 1):
        if res.betti_head[j] == 0:
            break   # the resolution has terminated; later syzygies vanish
        Mj, incl = res.syzygy(j)
        v = split_off_k_witness(Mj)
        if v is not None:
            element = incl.matrix @ v % ring.p
            return KoszulVerdict(M, NOT_KOSZUL, (j, element), i_max)
    return KoszulVerdict(M, KOSZUL, None, i_max)


@dataclass
class KoszulSeriesReport:
    module: FiniteModule
    truncation: int
    formula_holds: bool     # P_M(t) == H_M(-t)/H_R(-t) through degree n
    verdict: KoszulVerdict
    flagged: bool           # any disagreement between the two routes


def koszul_series_check(M: FiniteModule, n: int) -> KoszulSeriesReport:
    """Cross-validate the Poincare-series formula against the structural
    verdict.  The formula is necessary for Koszulness, so koszul with a
    failing formula (or not_koszul with the formula intact through a deep
    truncation) is flagged for inspection rather than asserted."""
    if M.action_w.any():
        raise RadicalSquareNonzero("series check requires m^2 M = 0")
    holds = koszul_formula_holds(M, n)
    verdict = is_koszul(M)
    flagged = holds != verdict.is_koszul()
    return KoszulSeriesReport(M, n, holds, verdict, flagged)
