"""Short Gorenstein local rings presented by symmetric bilinear forms.

A ring R here has a fixed k-basis (1, x_1..x_e, w) over k = GF(p), with
multiplication x_i * x_j = B[i][j] * w for a symmetric nondegenerate e x e
form B, and x_i * w = w * w = 0.  Then m = (x_1..x_e, w), m^2 = (w) is the
socle, m^3 = 0, and the Hilbert series of R is (1, e, 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    ConfigError,
    CubeNotZero,
    Degenerate,
    EmbeddingDimTooSmall,
    NotAssociative,
    NotCommutative,
    NotSymmetric,
    RingMismatch,
    SocleRankNot1,
)
from .linalg import PrimeField


class ShortGorensteinRing:
    """Artinian Gorenstein local ring with m^3 = 0 and socle m^2 of rank 1."""

    __slots__ = ("field", "e", "form", "dim", "basis_reg", "_cache")

    def __init__(self, field: PrimeField, e: int, form: np.ndarray):
        p = field.p
        form = np.asarray(form, dtype=np.int64) % p
        if e < 2:
            raise EmbeddingDimTooSmall(f"embedding dimension {e} < 2")
        if form.shape != (e, e):
            raise NotSymmetric(f"form must be {e}x{e}")
        if not np.array_equal(form, form.T % p):
            raise NotSymmetric("multiplication form is not symmetric")
        if linalg.rank_array(form, p) < e:
            raise Degenerate("form is degenerate; socle would have rank > 1")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "dim", e + 2)
        object.__setattr__(self, "basis_reg", _basis_regular_reps(e, form, p))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, *_):
        raise AttributeError("ShortGorensteinRing is immutable")

    @property
    def p(self) -> int:
        return self.field.p

    def element(self, coeffs) -> "RingElement":
        return RingElement(self, coeffs)

    def x(self, i: int) -> "RingElement":
        """The i-th degree-one generator, 1-based."""
        if not 1 <= i <= self.e:
            raise IndexError(f"generator index {i} out of 1..{self.e}")
        c = np.zeros(self.dim, dtype=np.int64)
        c[i] = 1
        return RingElement(self, c)

    def w(self) -> "RingElement":
        c = np.zeros(self.dim, dtype=np.int64)
        c[-1] = 1
        return RingElement(self, c)

    def rep(self, coeffs: np.ndarray) -> np.ndarray:
        """Left-multiplication matrix of the element with these coefficients."""
        return np.tensordot(np.asarray(coeffs, dtype=np.int64) % self.p,
                            self.basis_reg, axes=1) % self.p

    def __eq__(self, other):
        return (
            isinstance(other, ShortGorensteinRing)
            and self.p == other.p
            and self.e == other.e
            and np.array_equal(self.form, other.form)
        )

    def __repr__(self):
        return f"ShortGorensteinRing(p={self.p}, e={self.e})"


def _basis_regular_reps(e: int, form: np.ndarray, p: int) -> np.ndarray:
    d = e + 2
    reg = np.zeros((d, d, d), dtype=np.int64)
    reg[0] = np.eye(d, dtype=np.int64)
    for i in range(1, e + 1):
        reg[i, i, 0] = 1                      # 1 -> x_i
        reg[i, d - 1, 1:e + 1] = form[i - 1]  # x_j -> B[i][j] w
    reg[d - 1, d - 1, 0] = 1                  # 1 -> w
    reg.setflags(write=False)
    return reg


@dataclass(frozen=True)
class RingElement:
    ring: ShortGorensteinRing
    coeffs: np.ndarray = field(compare=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.int64) % self.ring.p
        if c.shape != (self.ring.dim,):
            raise ValueError(f"element needs {self.ring.dim} coefficients")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __add__(self, other: "RingElement") -> "RingElement":
        _same_ring(self, other)
        return RingElement(self.ring, (self.coeffs + other.coeffs) % self.ring.p)

    def __sub__(self, other: "RingElement") -> "RingElement":
        _same_ring(self, other)
        return RingElement(self.ring, (self.coeffs - other.coeffs) % self.ring.p)

    def __mul__(self, other: "RingElement") -> "RingElement":
        _same_ring(self, other)
        return RingElement(self.ring, self.ring.rep(self.coeffs) @ other.coeffs % self.ring.p)

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.ring == other.ring
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def is_unit(self) -> bool:
        return int(self.coeffs[0]) != 0

    def __repr__(self):
        return f"RingElement({list(int(v) for v in self.coeffs)})"


def _same_ring(a: RingElement, b: RingElement):
    if a.ring != b.ring:
        raise RingMismatch("elements belong to different rings")


def make_ring(p: int, e: int, form) -> ShortGorensteinRing:
    """Validated ring from a prime, an embedding dimension and a form."""
    return ShortGorensteinRing(PrimeField(p), e, np.asarray(form, dtype=np.int64))


def identity_form(e: int) -> np.ndarray:
    return np.eye(e, dtype=np.int64)


def hyperbolic_form(e: int) -> np.ndarray:
    """Hyperbolic-plane blocks [[0,1],[1,0]], padded with a 1 when e is odd."""
    B = np.zeros((e, e), dtype=np.int64)
    for i in range(0, e - 1, 2):
        B[i, i + 1] = B[i + 1, i] = 1
    if e % 2:
        B[e - 1, e - 1] = 1
    return B


def random_nondegenerate_form(e: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """Resample random symmetric matrices until one is nondegenerate.

    Over GF(2), U + U^T has a zero diagonal, so it is alternating and hence
    degenerate in odd dimension; there the diagonal is drawn from U too."""
    while True:
        U = rng.integers(0, p, size=(e, e))
        if p == 2 and e % 2:
            B = np.triu(U) + np.triu(U, 1).T
        else:
            B = (U + U.T) % p
        if linalg.rank_array(B, p) == e:
            return B.astype(np.int64)


FORM_CHOICES = ("identity", "hyperbolic", "random")


def named_form(name: str, e: int, p: int, seed: int) -> np.ndarray:
    """The form of FORM_CHOICES called `name`; "random" is drawn from
    numpy's default_rng(seed), for seed >= 0."""
    if name == "identity":
        return identity_form(e)
    if name == "hyperbolic":
        return hyperbolic_form(e)
    if name == "random":
        if seed < 0:
            raise ConfigError(f"seed {seed} < 0")
        return random_nondegenerate_form(e, p, np.random.default_rng(seed))
    raise ConfigError(f"form must be one of {FORM_CHOICES}")


@dataclass
class AlgebraReport:
    """Diagnostics from validating raw structure constants."""

    p: int
    e: int
    commutative: bool
    associative: bool
    unital: bool
    cube_zero: bool
    socle_rank: int
    graded: bool
    accepted: bool
    form: np.ndarray | None = None
    ring: ShortGorensteinRing | None = None
    reason: str = ""


def validate_general_algebra(p: int, table) -> AlgebraReport:
    """Check an (e+2)^3 multiplication table against the short Gorenstein
    axioms and recover the bilinear form when the table is graded.

    The table gives structure constants c[i, j, k] on an ordered basis
    (1, y_1..y_e, z): basis_i * basis_j = sum_k c[i, j, k] basis_k.
    Raises on each violated axiom; a well-formed algebra that is not in the
    graded normal form is returned with accepted=False.
    """
    if not isinstance(p, int) or isinstance(p, bool):
        raise ConfigError(f"modulus {p!r} is not an integer")
    fld = PrimeField(p)
    try:
        c = np.asarray(table)
    except ValueError:   # ragged nesting
        c = np.zeros(0)
    if c.dtype.kind != "i" or c.ndim != 3 or len(set(c.shape)) != 1:
        raise ConfigError("structure constants must be a cubic integer array")
    c = c.astype(np.int64) % p
    d = c.shape[0]
    e = d - 2
    if e < 2:
        raise EmbeddingDimTooSmall(
            f"basis has {d} elements, so e = {e} < 2")

    if not np.array_equal(c, c.transpose(1, 0, 2)):
        raise NotCommutative("x_i x_j != x_j x_i for some basis pair")
    lhs = np.einsum("ijm,mkl->ijkl", c, c) % p
    rhs = np.einsum("jkm,iml->ijkl", c, c) % p
    if not np.array_equal(lhs, rhs):
        raise NotAssociative("(ab)c != a(bc) for some basis triple")
    unital = np.array_equal(c[0] % p, np.eye(d, dtype=np.int64))
    if not unital:
        return AlgebraReport(p, e, True, True, False, False, -1, False, False,
                             reason="basis element 0 is not an identity")

    # triple products of radical basis elements must vanish
    triple = lhs[1:, 1:, 1:]
    if triple.any():
        raise CubeNotZero("a product of three radical elements is nonzero")

    # socle = {v in algebra : b_i v = 0 for all radical basis b_i}
    stacked = np.concatenate([c[i].T for i in range(1, d)], axis=0)
    soc = linalg.kernel_array(stacked, p)
    # the identity direction is never in the socle; socle rank as an ideal
    socle_rank = soc.shape[0]
    if socle_rank != 1:
        raise SocleRankNot1(f"socle has rank {socle_rank}, expected 1")

    # graded normal form: products of degree-1 elements lie along z, z kills m
    graded = (not c[1:d - 1, 1:d - 1, :d - 1].any()) and (not c[d - 1, 1:, :].any())
    if not graded:
        return AlgebraReport(p, e, True, True, True, True, 1, False, False,
                             reason="table is not in graded normal form")
    form = c[1:e + 1, 1:e + 1, d - 1].copy()
    ring = ShortGorensteinRing(fld, e, form)
    return AlgebraReport(p, e, True, True, True, True, 1, True, True,
                         form=form, ring=ring)

