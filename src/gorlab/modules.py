"""Finite modules over short Gorenstein rings.

A module is a finite-dimensional k-space with one action matrix per degree-one
generator x_i; the action of w is forced by the ring relations
A_i A_j = B[i][j] A_w.  Elements are coefficient row vectors v, and a ring
element r acts by v |-> (A_r v^T)^T, i.e. column convention on the matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ConfigError, GeneratorInRadical, RingMismatch, UnitIdeal
from .ring import ShortGorensteinRing


class FiniteModule:
    """A finite R-module presented by its k-basis and action operators."""

    __slots__ = ("ring", "dim", "actions", "action_w", "all_ops", "_cache")

    def __init__(self, ring: ShortGorensteinRing, actions, action_w=None,
                 validate: bool = True):
        p = ring.p
        e = ring.e
        actions = np.asarray(actions, dtype=np.int64) % p
        if actions.ndim != 3 or actions.shape[0] != e or actions.shape[1] != actions.shape[2]:
            raise ValueError(f"need {e} square action matrices")
        d = actions.shape[1]
        if action_w is None:
            action_w = _derive_action_w(ring, actions)
        else:
            action_w = np.asarray(action_w, dtype=np.int64) % p
        if validate:
            _check_relations(ring, actions, action_w)
        all_ops = np.zeros((e + 2, d, d), dtype=np.int64)
        all_ops[0] = np.eye(d, dtype=np.int64)
        all_ops[1:e + 1] = actions
        all_ops[e + 1] = action_w
        for arr in (actions, action_w, all_ops):
            arr.setflags(write=False)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "action_w", action_w)
        object.__setattr__(self, "all_ops", all_ops)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, *_):
        raise AttributeError("FiniteModule is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def free(cls, ring: ShortGorensteinRing, rank: int) -> "FiniteModule":
        """Free module R^rank; basis index j*(e+2)+b is basis element b of
        the j-th copy, so generator j sits at coordinate j*(e+2)."""
        D = ring.dim
        I = np.eye(rank, dtype=np.int64)
        actions = np.stack([np.kron(I, ring.basis_reg[i]) for i in range(1, ring.e + 1)])
        action_w = np.kron(I, ring.basis_reg[D - 1])
        return cls(ring, actions, action_w, validate=False)

    @classmethod
    def residue_field(cls, ring: ShortGorensteinRing) -> "FiniteModule":
        z = np.zeros((ring.e, 1, 1), dtype=np.int64)
        return cls(ring, z, np.zeros((1, 1), dtype=np.int64), validate=False)

    @classmethod
    def zero(cls, ring: ShortGorensteinRing) -> "FiniteModule":
        z = np.zeros((ring.e, 0, 0), dtype=np.int64)
        return cls(ring, z, np.zeros((0, 0), dtype=np.int64), validate=False)

    # -- basics -------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FiniteModule)
            and self.ring == other.ring
            and self.dim == other.dim
            and np.array_equal(self.all_ops, other.all_ops)
        )

    def __repr__(self):
        return f"FiniteModule(dim={self.dim}, over {self.ring!r})"


def _derive_action_w(ring: ShortGorensteinRing, actions: np.ndarray) -> np.ndarray:
    p = ring.p
    i, j = np.argwhere(ring.form).transpose()[:, 0]
    inv = pow(int(ring.form[i, j]), p - 2, p)
    return linalg.matmul_mod(actions[i], actions[j], p) * inv % p


def _check_relations(ring: ShortGorensteinRing, actions: np.ndarray, action_w: np.ndarray):
    """Raise ValueError unless m^3 = 0 and x_i x_j = B[i][j] w for all i, j.

    The relations imply m^3 = 0: the actions then commute, so x_i x_j x_k
    equals both B_ij x_k w and B_jk x_i w, and a nonzero entry v_k of some
    x_k w would give B_ij = B_jk v_i / v_k, a form of rank 1, while B is
    nondegenerate of rank e >= 2.  m^3 = 0 is checked first all the same, so
    that actions nilpotent of too high an order are refused with that
    reason."""
    p = ring.p
    d = action_w.shape[0]
    if action_w.shape != (d, d) or actions.shape[1:] != (d, d):
        raise ValueError("action matrix shapes disagree")
    if (linalg.matmul_mod(actions, action_w, p).any()
            or linalg.matmul_mod(action_w, action_w, p).any()):
        raise ValueError("actions violate m^3 = 0")
    prod = linalg.matmul_mod(actions[:, None], actions[None], p)
    want = ring.form[:, :, None, None] * action_w[None, None] % p
    if not np.array_equal(prod, want):
        raise ValueError("actions violate x_i x_j = B[i][j] w")


@dataclass(frozen=True)
class ModuleMap:
    """R-linear map; matrix is (target.dim, source.dim), acting on columns."""

    source: FiniteModule
    target: FiniteModule
    matrix: np.ndarray

    def __post_init__(self):
        if self.source.ring != self.target.ring:
            raise RingMismatch("map between modules over different rings")
        p = self.source.ring.p
        m = np.asarray(self.matrix, dtype=np.int64) % p
        if m.shape != (self.target.dim, self.source.dim):
            raise ValueError("map matrix has wrong shape")
        lhs = linalg.matmul_mod(self.target.actions, m, p)
        rhs = linalg.matmul_mod(m, self.source.actions, p)
        if not np.array_equal(lhs, rhs):
            raise ValueError("matrix does not commute with the ring actions")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


# ---------------------------------------------------------------------------
# sub/quotient machinery.  Subspaces are handed around as rref rows + pivots.


def _rref_span(M: FiniteModule, V: np.ndarray):
    if M.dim == 0 or V.size == 0:
        return np.zeros((0, M.dim), dtype=np.int64), []
    return linalg.row_space(V.reshape(-1, M.dim), M.ring.p)


def submodule(M: FiniteModule, U: np.ndarray, pivots) -> tuple[FiniteModule, ModuleMap]:
    """The submodule spanned by the rref rows U (must be action-stable),
    with its inclusion into M."""
    p = M.ring.p
    piv = list(pivots)
    # coordinates of a rowspace vector are its entries at the pivot columns
    acts = linalg.matmul_mod(U, M.actions.transpose(0, 2, 1), p)[:, :, piv].transpose(0, 2, 1)
    aw = linalg.matmul_mod(U, M.action_w.T, p)[:, piv].T
    S = FiniteModule(M.ring, acts, aw)
    incl = ModuleMap(S, M, U.T)
    return S, incl


def quotient(M: FiniteModule, U: np.ndarray, pivots) -> tuple[FiniteModule, ModuleMap]:
    """The quotient of M by the action-stable rowspace U, with projection."""
    p = M.ring.p
    piv = list(pivots)
    nonpiv = [c for c in range(M.dim) if c not in set(piv)]
    q = len(nonpiv)
    P = np.zeros((q, M.dim), dtype=np.int64)
    P[np.arange(q), nonpiv] = 1
    if piv:
        P[:, piv] = (-U[:len(piv), nonpiv].T) % p
    acts = linalg.matmul_mod(P, M.actions[:, :, nonpiv], p)
    aw = linalg.matmul_mod(P, M.action_w[:, nonpiv], p)
    Q = FiniteModule(M.ring, acts, aw)
    proj = ModuleMap(M, Q, P)
    return Q, proj


def span_closure(M: FiniteModule, V: np.ndarray):
    """rref basis of the R-submodule generated by the rows of V.

    One pass suffices: span{v, x_i v, w v} is already action-stable because
    x_i x_j v = B[i][j] w v and m annihilates w v.
    """
    p = M.ring.p
    V = np.asarray(V, dtype=np.int64).reshape(-1, M.dim) % p
    imgs = linalg.matmul_mod(V, M.actions.transpose(0, 2, 1), p).reshape(-1, M.dim)
    imw = linalg.matmul_mod(V, M.action_w.T, p)
    return _rref_span(M, np.concatenate([V, imgs, imw], axis=0))


def radical_rows(M: FiniteModule):
    """rref basis of mM."""
    stacked = np.concatenate([A.T for A in M.actions] + [M.action_w.T], axis=0)
    return _rref_span(M, stacked)


def radical_submodule(M: FiniteModule) -> tuple[FiniteModule, ModuleMap]:
    U, piv = radical_rows(M)
    return submodule(M, U, piv)


def radical_square_rows(M: FiniteModule):
    """rref basis of m^2 M = wM."""
    return _rref_span(M, M.action_w.T.copy())


def nu(M: FiniteModule) -> int:
    U, _ = radical_rows(M)
    return M.dim - U.shape[0]


def socle(M: FiniteModule) -> tuple[FiniteModule, ModuleMap]:
    """soc(M) = {z : m z = 0} as a submodule with inclusion."""
    return submodule(M, *socle_rows(M))


def socle_rows(M: FiniteModule):
    """rref basis of soc(M), the common kernel of x_1..x_e and w: (rows,
    pivots)."""
    stacked = np.concatenate(list(M.actions) + [M.action_w], axis=0)
    ri, ci = np.nonzero(stacked)
    kr, kc, kv, pivots = linalg.kernel_rref(ri, ci, stacked[ri, ci], stacked.shape, M.ring.p)
    return linalg.dense(kr, kc, kv, (len(pivots), M.dim)), pivots


def matlis_dual(M: FiniteModule) -> FiniteModule:
    """k-linear dual with transposed actions; M** is identically M."""
    return FiniteModule(M.ring, M.actions.transpose(0, 2, 1),
                        M.action_w.T, validate=False)


def hom_space(M: FiniteModule, N: FiniteModule) -> list[ModuleMap]:
    """k-basis of Hom_R(M, N), via the linear system F A_i^M = A_i^N F."""
    if M.ring != N.ring:
        raise RingMismatch("modules over different rings")
    p = M.ring.p
    n, m = N.dim, M.dim
    if n == 0 or m == 0:
        return []
    rows = []
    In, Im = np.eye(n, dtype=np.int64), np.eye(m, dtype=np.int64)
    for i in range(M.ring.e):
        rows.append((np.kron(In, M.actions[i].T) - np.kron(N.actions[i], Im)) % p)
    K = linalg.kernel_array(np.concatenate(rows, axis=0), p)
    return [ModuleMap(M, N, K[i].reshape(n, m)) for i in range(K.shape[0])]


@dataclass(frozen=True)
class Presentation:
    """g generators, r relations; entries[i][j] is the coefficient of
    generator i in relation j, as a ring element."""

    ring: ShortGorensteinRing
    entries: np.ndarray  # (g, r, e+2)

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=np.int64) % self.ring.p
        if a.ndim != 3 or a.shape[2] != self.ring.dim:
            raise ValueError("presentation entries must be (g, r, e+2)")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def generators(self) -> int:
        return self.entries.shape[0]

    @property
    def relations(self) -> int:
        return self.entries.shape[1]


def from_presentation(P: Presentation) -> tuple[FiniteModule, ModuleMap]:
    """Cokernel of the presentation, with the free cover F -> M."""
    ring = P.ring
    g, r = P.generators, P.relations
    F = FiniteModule.free(ring, g)
    rel = P.entries.transpose(1, 0, 2).reshape(r, g * ring.dim)
    U, piv = span_closure(F, rel)
    M, proj = quotient(F, U, piv)
    return M, proj


def cyclic_module(ring: ShortGorensteinRing, gens) -> tuple[FiniteModule, ModuleMap]:
    """R/I for the ideal generated by the given elements, with cover R -> R/I."""
    for a in gens:
        if a.ring != ring:
            raise RingMismatch("ideal generator over a different ring")
        if a.is_unit():
            raise UnitIdeal("ideal contains a unit; quotient is zero")
    entries = np.array([[a.coeffs for a in gens]], dtype=np.int64)
    if not gens:
        entries = np.zeros((1, 0, ring.dim), dtype=np.int64)
    return from_presentation(Presentation(ring, entries))


@dataclass(frozen=True)
class SplitExtensionData:
    A: FiniteModule
    B: FiniteModule
    phi: ModuleMap          # A -> M
    psi: ModuleMap          # M -> B
    annihilator: np.ndarray  # rows = ring-element coefficient vectors


def split_extension(M: FiniteModule, x: np.ndarray) -> SplitExtensionData:
    """Short exact sequence 0 -> Rx -> M -> M/Rx -> 0 for x outside mM."""
    p = M.ring.p
    x = np.asarray(x, dtype=np.int64).reshape(M.dim) % p
    U, piv = radical_rows(M)
    if not linalg.reduce_mod_rowspace(U, piv, x.reshape(1, -1), p).any():
        raise GeneratorInRadical("x lies in mM")
    S, spiv = span_closure(M, x.reshape(1, -1))
    A, phi = submodule(M, S, spiv)
    B, psi = quotient(M, S, spiv)
    # ann(x) = kernel of r |-> r x, columns indexed by the ring basis
    T = np.stack([M.all_ops[b] @ x % p for b in range(M.ring.dim)], axis=1)
    ann = linalg.kernel_array(T, p)
    return SplitExtensionData(A, B, phi, psi, ann)


def direct_sum(M: FiniteModule, N: FiniteModule) -> tuple[FiniteModule, ModuleMap, ModuleMap]:
    """(M + N, inclusion of M, inclusion of N)."""
    if M.ring != N.ring:
        raise RingMismatch("modules over different rings")
    e, dm, dn = M.ring.e, M.dim, N.dim
    acts = np.zeros((e, dm + dn, dm + dn), dtype=np.int64)
    acts[:, :dm, :dm] = M.actions
    acts[:, dm:, dm:] = N.actions
    aw = np.zeros((dm + dn, dm + dn), dtype=np.int64)
    aw[:dm, :dm] = M.action_w
    aw[dm:, dm:] = N.action_w
    S = FiniteModule(M.ring, acts, aw, validate=False)
    im = np.zeros((dm + dn, dm), dtype=np.int64)
    im[:dm] = np.eye(dm, dtype=np.int64)
    inn = np.zeros((dm + dn, dn), dtype=np.int64)
    inn[dm:] = np.eye(dn, dtype=np.int64)
    return S, ModuleMap(M, S, im), ModuleMap(N, S, inn)


def random_module(ring: ShortGorensteinRing, g: int, r: int, seed: int) -> FiniteModule:
    """Cokernel of a random g x r matrix with entries uniform in m, for
    g >= 1, r >= 0 and seed >= 0."""
    if g < 1 or r < 0:
        raise ConfigError(f"need g >= 1 generators and r >= 0 relations: {g}, {r}")
    if seed < 0:
        raise ConfigError(f"seed {seed} < 0")
    rng = np.random.default_rng(seed)
    entries = np.zeros((g, r, ring.dim), dtype=np.int64)
    entries[:, :, 1:] = rng.integers(0, ring.p, size=(g, r, ring.dim - 1))
    M, _ = from_presentation(Presentation(ring, entries))
    return M


def hilbert_function(M: FiniteModule) -> list[int]:
    """dims of m^i M / m^{i+1} M for i = 0, 1, 2 (trailing zeros trimmed)."""
    d0 = M.dim
    d1 = radical_rows(M)[0].shape[0]
    d2 = radical_square_rows(M)[0].shape[0]
    h = [d0 - d1, d1 - d2, d2]
    while h and h[-1] == 0:
        h.pop()
    return h
