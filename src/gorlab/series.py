"""Truncated integer generating series and rationality certification.

All series here are truncated power series with (unbounded) Python integer
coefficients: Hilbert and Poincare series of modules, and the nu/length
generating series of Tor and Ext tables.  A RationalityCertificate pins a
series to the denominator 1 - e t + t^2: it records the tail start s past
which the linear recurrence c_{i+1} = e c_i - c_{i-1} holds, together with
the numerator polynomial q(t) = (1 - e t + t^2) * S(t) truncated there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, InsufficientDegree
from .homology import ext, length_count, tor
from .modules import FiniteModule, hilbert_function
from .resolution import resolve

DEFAULT_MARGIN = 5

KINDS = ("hilbert", "poincare", "tor_nu", "tor_length", "ext_nu", "ext_length")


@dataclass(frozen=True)
class TruncatedIntegerSeries:
    kind: str
    coefficients: tuple

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown series kind {self.kind!r}")
        object.__setattr__(self, "coefficients",
                           tuple(int(c) for c in self.coefficients))

    @property
    def truncation(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, i: int) -> int:
        return self.coefficients[i]


@dataclass(frozen=True)
class RationalityCertificate:
    """S(t) = q(t) / (1 - e t + t^2) verified through the truncation degree."""

    e: int
    s: int
    numerator: tuple
    truncation: int


def hilbert_series(M: FiniteModule) -> TruncatedIntegerSeries:
    """dim(m^i M / m^{i+1} M) for i = 0, 1, 2 (length <= 3 since m^3 = 0)."""
    return TruncatedIntegerSeries("hilbert", hilbert_function(M))


def poincare_series(M: FiniteModule, n: int) -> TruncatedIntegerSeries:
    return TruncatedIntegerSeries("poincare", resolve(M, n).betti(n))


def _table_series(name: str, build, M, N, n: int,
                  mode: str) -> TruncatedIntegerSeries:
    """The nu or length series of the table build(M, N, n); the mode is
    checked before the table is computed."""
    if mode not in ("nu", "length"):
        raise ValueError(f"mode must be 'nu' or 'length', got {mode!r}")
    table = build(M, N, n)
    return TruncatedIntegerSeries(f"{name}_{mode}",
                                  table.nus() if mode == "nu" else table.lengths())


def tor_series(M: FiniteModule, N: FiniteModule, n: int,
               mode: str = "nu") -> TruncatedIntegerSeries:
    return _table_series("tor", tor, M, N, n, mode)


def ext_series(M: FiniteModule, N: FiniteModule, n: int,
               mode: str = "nu") -> TruncatedIntegerSeries:
    return _table_series("ext", ext, M, N, n, mode)


def certify_rational(S: TruncatedIntegerSeries, e: int,
                     min_margin: int = DEFAULT_MARGIN) -> RationalityCertificate:
    """Certificate that S has denominator 1 - e t + t^2.

    Finds the minimal s such that c_{i+1} = e c_i - c_{i-1} holds for all
    s <= i <= n-1 (with c_{-1} = 0) and requires a tail of at least
    min_margin degrees; the numerator is the truncated product
    (1 - e t + t^2) * S(t), of degree at most s + 1.  A margin below 1
    certifies nothing and raises ConfigError.
    """
    if min_margin < 1:
        raise ConfigError(f"margin {min_margin} < 1")
    c = S.coefficients
    n = len(c) - 1
    if n < min_margin:
        raise InsufficientDegree(
            f"series truncated at degree {n}, below the margin {min_margin}",
            violating_index=n)

    def rec_holds(i):
        prev = c[i - 1] if i >= 1 else 0
        return c[i + 1] == e * c[i] - prev

    s = 0
    for i in range(n - 1, -1, -1):
        if not rec_holds(i):
            s = i + 1
            break
    if n - s < min_margin:
        raise InsufficientDegree(
            f"recurrence tail starts at s = {s}, leaving margin {n - s} < "
            f"{min_margin}; last violation at index {s - 1}",
            violating_index=s - 1)
    q = []
    for j in range(s + 2):
        cj = c[j]
        c1 = c[j - 1] if j >= 1 else 0
        c2 = c[j - 2] if j >= 2 else 0
        q.append(cj - e * c1 + c2)
    while len(q) > 1 and q[-1] == 0:
        q.pop()
    return RationalityCertificate(e, s, tuple(q), n)


def expand_rational(numerator, e: int, n: int) -> list:
    """Coefficients through degree n of q(t) / (1 - e t + t^2)."""
    q = list(numerator)
    out = []
    for i in range(n + 1):
        v = q[i] if i < len(q) else 0
        if i >= 1:
            v += e * out[i - 1]
        if i >= 2:
            v -= out[i - 2]
        out.append(v)
    return out


def alternate(coeffs) -> list:
    """Coefficients of S(-t)."""
    return [int(c) if i % 2 == 0 else -int(c) for i, c in enumerate(coeffs)]


@dataclass
class SeriesIdentityReport:
    """Comparison of the Tor length/nu series with H_M(-t) P_N(t)."""

    M: FiniteModule
    N: FiniteModule
    truncation: int
    product: list          # coefficients of H_M(-t) * P_N(t)
    length_series: list
    nu_series: list
    induced_ranks: list    # ranks of Tor_i(iota_M, N) on the honest window
    length_matches: list   # degrees where length_i == product_i
    length_equality_through: int   # -1 if already degree 0 disagrees
    ranks_vanish_through: int      # largest d with ranks 0 on [1, d]
    consistent: bool       # equality and rank-vanishing cut off together


def series_identity_check(M: FiniteModule, N: FiniteModule,
                          n: int) -> SeriesIdentityReport:
    """Check sum l(Tor_i(M,N)) t^i = H_M(-t) P_N(t) degree by degree and
    correlate failures with nonvanishing induced maps Tor_i(iota_M, N).
    Requires m^2 M = 0, so that H_M(-t) = nu(M) - nu(mM) t and the product
    is the base of `homology.length_count`."""
    table, prod, ranks = length_count(M, N, n)
    lser = table.lengths()
    matches = [i for i in range(n + 1) if lser[i] == prod[i]]
    eq_through = -1
    while eq_through + 1 <= n and lser[eq_through + 1] == prod[eq_through + 1]:
        eq_through += 1
    rk_through = 0
    while rk_through + 1 < len(ranks) and ranks[rk_through + 1] == 0:
        rk_through += 1
    # the length count ties the two: equality at i needs rank_i = rank_{i-1} = 0
    w = len(ranks) - 1
    consistent = all(
        (lser[i] == prod[i]) == (ranks[i] == 0 and ranks[i - 1] == 0)
        for i in range(1, w + 1))
    return SeriesIdentityReport(M, N, n, prod, lser, table.nus(), ranks,
                                matches, eq_through, rk_through, consistent)


def koszul_formula_holds(M: FiniteModule, n: int) -> bool:
    """P_M(t) == H_M(-t) / H_R(-t) through degree n (Koszul necessary
    condition); the division is exact since H_R(-t) = 1 - e t + t^2."""
    h = alternate(hilbert_series(M).coefficients)
    expected = expand_rational(h, M.ring.e, n)
    return list(poincare_series(M, n).coefficients) == expected
