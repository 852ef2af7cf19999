"""Minimal free resolutions, syzygies and chain-map lifting.

Resolutions have two regimes.  A materialized head is computed honestly, one
k-linear kernel per homological degree.  Matrix sizes grow like e^i, so
`extend` reads what the process can still allocate (`available_bytes`: the
least of physical RAM, RLIMIT_AS and the memory cgroup's limit, each less
what is already in use, and the kernel's MemAvailable) once, before its
first step, and each step's eliminations check what they hold against it
(`linalg.kernel_rref`): a step that does not fit is refused with
NotMaterialized before its elimination allocates more.  Whether a step is
refused thus depends on the machine and on what the process holds, never on
a tunable.  The head holds only the degrees that the tail certificate, the
homology windows and the syzygy and lifting calls ask for.  `extend` takes
one width rule for every head: it stops silently before a kernel problem
wider than its column budget, DEFAULT_BUDGET for the CLI `resolve` verb and
none for the other callers.  Tail certification materializes a head that
depends only on the Betti numbers: J + TAIL_OVERLAP degrees, and up to
HEAD_SLACK more while their kernel problems stay within CHAIN_BUDGET
columns, the dimension of the chain module F_i (x) R = F_i.  Homology reads
the same bound for the chain modules F_j (x) N of a window it takes whole.
Beyond the head, Betti numbers are exact values of the certified tail: once
the syzygy M_J is past the junction index J (no later syzygy can split off a
copy of k, by the dimension bound dim k_{-j} = dim k_j), M_J is Koszul and
the Lescot formulas force beta_{i+1} = e*beta_i - beta_{i-1}.  The
certificate is cross-checked against every materialized degree past the
junction before any tail value is served; a mismatch raises CertificateError.

Every honest step after the first is a linear-part problem.  The rings have
m^3 = 0 and m^2 = (w) one-dimensional, and a minimal differential del_i has
its entries in m, so del_i kills wF_i and sends x_g gen_a to a vector whose
only nonzero coordinates are w-slots: x_g * x_h = form[g, h] w.  F_i is a
minimal cover of M_i, so ker del_i lies in m F_i, and therefore

    ker del_i = ker(L) + w F_i,   L[j, a*e + g] = sum_h form[g, h] G[a, j, 1+h]

where G is the entry array of del_i and L is the beta_{i-1} x e*beta_i matrix
of w-coefficients of del_i on the x-slots.  The step eliminates L, built from
the nonzeros of del_i, instead of the (e+2)-fold k-matrix of del_i, and takes
rref(ker L) as its nonzeros from one sparse elimination
(`linalg.kernel_rref`).  The rows of rref(ker L), placed in the
x-slots, together with one unit row per w-slot, numbered by pivot, are a
reduced echelon basis: no row has a nonzero entry in another row's pivot
column, because the two kinds of rows live on disjoint slots.  The rref of a
subspace is unique, so this is the basis a generic elimination of the
k-matrix would give.  Only the first step, the kernel of the cover
F_0 -> M, eliminates a generic k-matrix: that kernel need not contain w F_0,
and it is the only one that can be zero, so only a free module's resolution
ends.  Either kernel then goes through one assembly, which writes only the
rows the step keeps, once, into del_{i+1}: after the cover every row of
del_{i+1} is x-only or a single w-unit 1.

The step also reads nu(m M_i) = dim m K, for its kernel K, and leaves out of
the differential the rows of K's rref basis that m K covers.  K lies in m F,
so m K is spanned by the images x_g * z of its rows z, and block j of
x_g * z is form[g] . z[j, x-slots] w.  The form is nondegenerate, so these
images span the same subspace S as the x-slot slices z[:, 1 + h], h < e, and
the two have one rref, rank and pivot set (`_slice_pivots`).  In coordinates
w.r.t. K's basis S lies on the rows with a w-pivot, so every step reads S on
their blocks and drops the w-pivot rows of the blocks at S's pivots (after
the cover these are the w-unit rows, one per block).  Every nonzero vector
of S has its leading entry at a pivot of rref(S), so when the leading
entries of the slices already cover every column, S is everything and
nothing is eliminated; only otherwise, in a few percent of the steps, does
the step eliminate the slices.

A resolution stores each differential as its nonzeros (`Nonzeros`: the
generator, target, slot and value of every nonzero entry), the cover matrix,
the Betti numbers and nu(m M_i) of each syzygy, the one syzygy number the
tail certificate reads; nothing else of a syzygy is kept.  A minimal
differential has its entries in m, about 1.4 nonzeros per row, so the README
module's del_1..del_8 hold 2876 nonzeros in 90 KiB, against 25.4 MiB as
dense arrays.  Steps and homology read the nonzeros; `diff(i)` builds the
dense entry array on demand for the readers that want one (syzygies,
chain-map lifts, the presentation and the `resolve` output).  By exactness
M_i is the image of del_i, the R-span of its rows, so `syzygy` rebuilds
M_i's rref basis on demand with `span_closure`: the rref of a subspace is
unique, so it is the basis of the kernel the step found.  Exactness also
gives dim M_i from the Betti numbers alone,
dim M_i = beta_{i-1} (e+2) - dim M_{i-1} (`syzygy_dims`), and a span of
another dimension, a step that dropped a generator, raises CertificateError.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import CertificateError, GorlabError, NotMaterialized
from .modules import (
    FiniteModule,
    ModuleMap,
    radical_rows,
    span_closure,
    submodule,
)
from .ring import ShortGorensteinRing

DEFAULT_BUDGET = 6000     # kernel columns at which the CLI `resolve` stops
TAIL_OVERLAP = 2          # honest degrees past the junction required for a tail
HEAD_SLACK = 3            # extra head degrees materialized past the junction
CHAIN_BUDGET = 1500       # max dimension of a chain module F_j (x) N taken
                          # whole: a slack degree (N = R) or a homology window


# (limit, usage, stat) files of a memory cgroup, v2 then v1, and the stat
# key of the page cache the kernel reclaims before it kills a process
_CGROUP_FILES = (
    ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory.current",
     "/sys/fs/cgroup/memory.stat", "inactive_file"),
    ("/sys/fs/cgroup/memory/memory.limit_in_bytes",
     "/sys/fs/cgroup/memory/memory.usage_in_bytes",
     "/sys/fs/cgroup/memory/memory.stat", "total_inactive_file"),
)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _cgroup_room(ram: float) -> float:
    """The memory cgroup's limit less its usage, with the page cache the
    kernel reclaims first counted as room; infinity when no limit below
    `ram` can be read (only then are usage and stat read)."""
    for limit, usage, stat, key in _CGROUP_FILES:
        try:
            text = _read(limit).strip()
            if text == "max" or int(text) >= ram:
                return float("inf")
            cache = dict(line.split() for line in _read(stat).splitlines())
            return int(text) - int(_read(usage)) + int(cache.get(key, 0))
        except (OSError, ValueError):
            continue
    return float("inf")


def _mem_available() -> float:
    """MemAvailable of /proc/meminfo in bytes: what the kernel can still
    hand out with every other process on the machine counted; infinity
    where the file or the field is missing."""
    try:
        for line in _read("/proc/meminfo").splitlines():
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return float("inf")


def available_bytes() -> float:
    """Bytes the process can still allocate, read now: the least of physical
    RAM less its resident set, the kernel's MemAvailable, RLIMIT_AS less
    its address space, and the room left in its memory cgroup.  RAM less
    the resident set ignores every other process, so MemAvailable bounds
    it where the kernel reports one.  A reading the platform does not offer
    (resource and sysconf are Unix-only) counts as unlimited."""
    try:
        import resource
        page = os.sysconf("SC_PAGE_SIZE")
        phys = os.sysconf("SC_PHYS_PAGES") * page
        limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    except (ImportError, AttributeError, ValueError, OSError):
        return min(_mem_available(), _cgroup_room(float("inf")))
    try:
        size, resident = (int(v) * page for v in _read("/proc/self/statm").split()[:2])
    except (OSError, ValueError):
        size = resident = 0
    avail = min(phys - resident, _mem_available(), _cgroup_room(phys))
    if limit != resource.RLIM_INFINITY:
        avail = min(avail, limit - size)
    return avail


class Nonzeros(NamedTuple):
    """The nonzero entries of the ring-entry array G of a map R^a -> R^j
    (shape (a, j, e+2): row a is del(gen a)): G[gen[k], target[k], slot[k]]
    = val[k], in row-major order, and the shape of G."""

    gen: np.ndarray
    target: np.ndarray
    slot: np.ndarray
    val: np.ndarray
    shape: tuple

    def dense(self) -> np.ndarray:
        G = np.zeros(self.shape, dtype=np.int64)
        G[self.gen, self.target, self.slot] = self.val
        return G

    def transpose(self) -> "Nonzeros":
        """The nonzeros of G.transpose(1, 0, 2), the map with the roles of
        source and target swapped."""
        a, j, C = self.shape
        order = np.lexsort((self.slot, self.gen, self.target))
        return Nonzeros(self.target[order], self.gen[order], self.slot[order],
                        self.val[order], (j, a, C))


def join_sum(akey, apos, aval, bkey, bpos, bval, p: int,
             room: float = float("inf")):
    """Sparse product: (positions, values) of the sums mod p of aval[i]
    bval[j] over the pairs with akey[i] = bkey[j], for bkey in increasing
    order, at apos[i] + bpos[j], positions increasing, zero sums dropped,
    exact in int64.  One join, no loop over the keys: each entry of a is
    repeated once per entry of b with its key, found by `np.searchsorted`.
    Every input entry and pair counts `linalg.ENTRY_BYTES` against `room`,
    the inputs before the pairs are counted and the pairs before any is
    formed: a join that does not fit raises NotMaterialized."""
    def check(pairs, what=""):
        if linalg.ENTRY_BYTES * (len(aval) + len(bval) + pairs) > room:
            raise NotMaterialized(
                f"a join of {len(aval)} by {len(bval)} entries{what} outgrows "
                f"the {max(room, 0) / 2**10:.1f} KiB the process can get")

    check(0)
    lo = np.searchsorted(bkey, akey)      # the first partner of each a entry
    reps = np.searchsorted(bkey, akey, "right") - lo
    ends = np.cumsum(reps)
    pairs = int(ends[-1]) if len(ends) else 0
    check(pairs, f" into {pairs} pairs")
    ai = np.repeat(np.arange(len(aval)), reps)
    # the pair's b entry: its key's first plus its place in the run
    bi = np.arange(pairs) + np.repeat(lo - ends + reps, reps)
    del lo, reps, ends
    pos = apos[ai]
    pos += bpos[bi]
    vals = aval[ai]
    vals *= bval[bi]
    del ai, bi   # freed before the sort
    order = np.argsort(pos, kind="stable")
    pos, vals = pos[order], vals[order]
    first = np.flatnonzero(_run_starts(pos))
    pos, vals = pos[first], np.add.reduceat(vals, first) % p
    nz = vals != 0
    return pos[nz], vals[nz]


def kmat_triplets(G: Nonzeros, ops: np.ndarray, p: int,
                  room: float = float("inf")):
    """Triplets (rows, cols, vals, shape) of the (j t) x (a s) matrix whose
    tile at target copy y and source copy x is sum_c G[x, y, c] ops[c], for
    the nonzeros G of an (a, j, C) entry array and ops of shape (C, t, s):
    each nonzero places its multiple of a t x s matrix, duplicate positions
    are summed mod p and zeros dropped.  Every entry is a sum of C products
    below p^2, exact in int64.  With ops = N.all_ops this is the k-matrix
    of del tensor N: N^a -> N^j, and with ring.basis_reg that of del.

    The products are one `join_sum` on the slot, with no loop over the C
    slots, and `room` bounds it."""
    a, j, _ = G.shape
    _, t, s = ops.shape
    n = a * s
    oz, ot, oc = np.nonzero(ops)   # slot by slot, as join_sum needs
    # row y t + ot, column x s + oc, as the index row n + column
    lin, vals = join_sum(G.slot, G.target * (t * n) + G.gen * s, G.val,
                         oz, ot * n + oc, ops[oz, ot, oc], p, room)
    return (*np.divmod(lin, max(n, 1)), vals, (j * t, n))


def _run_starts(keys):
    """Mask of the places where a run of equal values starts in the sorted
    int array `keys`."""
    start = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=start[1:])
    return start


def _linear_part(ring: ShortGorensteinRing, G: Nonzeros):
    """Triplets of the matrix L with ker del = ker(L) + wF for a minimal
    differential with nonzeros G (shape (a, j, e+2)): entry [j, a*e + g] is
    the w-coefficient in block j of del(x_g * gen a), sum_h form[g, h]
    G[a, j, 1+h], so L is the k-matrix whose op of slot 1+h is the row
    form[:, h]."""
    e = ring.e
    ops = np.zeros((ring.dim, 1, e), dtype=np.int64)
    ops[1:e + 1, 0] = ring.form.T
    return kmat_triplets(G, ops, ring.p)


def _slice_pivots(rows, cols, vals, blocks: int, p: int) -> list[int]:
    """Pivots of rref(S), for the span S of the x-slot slices of kernel rows
    given by their nonzeros: vals[k] at slice rows[k] (one slice per kernel
    row and x-slot) and column cols[k] < blocks.  These are the blocks whose
    w-pivot row m K covers.  Every nonzero vector of S leads at a pivot of
    rref(S); when the leading entries of the slices already cover every
    block, S is everything, and only otherwise are the nonzero slices
    eliminated."""
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    start = _run_starts(rows)
    lead = cols[start]
    covered = np.zeros(blocks, dtype=bool)
    covered[lead] = True
    if len(rows) and covered.all():
        return list(range(blocks))
    at = np.cumsum(start) - 1   # the slice of each entry
    S = np.zeros((len(lead), blocks), dtype=np.int64)
    S[at, cols] = vals
    return linalg.rref_array(S, p)[1]


@dataclass
class TailCertificate:
    """Witness that the Betti sequence obeys the two-term recurrence from
    the junction J on, checked on every materialized degree past J."""

    junction: int
    head: int    # the head certification materializes on a fresh resolution


class MinimalFreeResolution:
    """Growable minimal free resolution of a finite module."""

    def __init__(self, module: FiniteModule):
        ring = module.ring
        self.module = module
        self.ring = ring
        pivset = set(radical_rows(module)[1])
        gens = [c for c in range(module.dim) if c not in pivset]
        b0 = len(gens)
        D = ring.dim
        C = module.all_ops[:, :, gens].transpose(1, 2, 0).reshape(module.dim, b0 * D)
        self.cover_matrix = C % ring.p
        self.betti_head = [b0]
        self.nonzeros: list[Nonzeros] = []   # nonzeros[i-1]: del_i, shape (b_i, b_{i-1}, D)
        self.nu_m: list[int] = []            # nu_m[i-1] = nu(m M_i) = dim m M_i
        self.finite = b0 == 0
        self._tail: TailCertificate | None = None

    # -- materialization ----------------------------------------------------

    @property
    def head(self) -> int:
        """Number of materialized differentials."""
        return len(self.nonzeros)

    def syzygy(self, i: int) -> tuple[FiniteModule, ModuleMap]:
        """M_i inside F_{i-1} and its inclusion, for 1 <= i <= head: the
        R-span of the rows of del_i, on its rref basis."""
        F = FiniteModule.free(self.ring, self.betti_head[i - 1])
        rows, pivots = span_closure(F, self.diff(i))
        # exactness gives dim M_i from the Betti numbers alone, so a step
        # that dropped a generator of M_i is caught here
        dim = self.syzygy_dims()[i]
        if len(pivots) != dim:
            raise CertificateError(
                f"del_{i} spans {len(pivots)} dimensions, not dim M_{i} = {dim}")
        return submodule(F, rows, pivots)

    def syzygy_dims(self) -> list[int]:
        """dim M_0, ..., dim M_{head+1}, by exactness of
        0 -> M_{i+1} -> F_i -> M_i -> 0: dim M_{i+1} = beta_i (e+2) - dim M_i."""
        dims = [self.module.dim]
        for b in self.betti_head:
            dims.append(b * self.ring.dim - dims[-1])
        return dims

    def _step(self, room: float):
        ring = self.ring
        p, e, D = ring.p, ring.e, ring.dim
        b = self.betti_head[-1]
        if self.head == 0:
            C = self.cover_matrix
            ri, ci = np.nonzero(C)
            kr, kc, kv, kpiv = linalg.kernel_rref(ri, ci, C[ri, ci], C.shape, p, room)
            if (kc % D == 0).any():
                raise CertificateError(
                    "kernel escapes the radical; cover not minimal")
            # only this kernel can be zero: every later one holds w F_i != 0
            # (module docstring), so only a free module's resolution ends.  A
            # nonzero one keeps a row: S's pivots drop at most the nw <= nk
            # w-pivot rows, and all nk only if every row has a w-pivot, when
            # S's column for the earliest w-pivot block is zero
            self.finite = not kpiv
            kpiv = np.asarray(kpiv, dtype=np.int64)
        else:
            # ker del = ker(L) + wF: the rows of rref(ker L) on their x-slots
            # (column a*e + g of L is slot a*D + 1 + g of F) and one w-unit
            # row per block, numbered by pivot, are the rref of ker del
            kr, kc, kv, lpiv = linalg.kernel_rref(
                *_linear_part(ring, self.nonzeros[-1]), p, room)
            lp = np.asarray(lpiv, dtype=np.int64)
            xpiv, wpiv = lp // e * D + 1 + lp % e, np.arange(b) * D + D - 1
            kpiv = np.sort(np.concatenate([xpiv, wpiv]))
            kr = np.concatenate([np.searchsorted(kpiv, xpiv)[kr],
                                 np.searchsorted(kpiv, wpiv)])
            order = np.argsort(kr, kind="stable")
            kr = kr[order]
            kc = np.concatenate([kc // e * D + 1 + kc % e, wpiv])[order]
            kv = np.concatenate([kv, np.ones(b, dtype=np.int64)])[order]
        # m*K lies on the w-slots; in coordinates w.r.t. K's rows (their
        # pivot-column entries) it is S, read on the blocks of the rows with
        # a w-pivot (K is nonzero inside mF, so it meets the socle wF);
        # generators = the rows of K that S's pivots leave
        blk, slot = np.divmod(kc, D)
        wrows = np.flatnonzero(kpiv % D == D - 1)
        col = np.full(b, -1)
        col[kpiv[wrows] // D] = np.arange(len(wrows))
        x = (col[blk] >= 0) & (slot <= e)
        drop = _slice_pivots(kr[x] * e + slot[x] - 1, col[blk[x]], kv[x],
                             len(wrows), p)
        kept = np.ones(len(kpiv), dtype=bool)
        kept[wrows[drop]] = False
        gen = np.cumsum(kept) - 1
        x = kept[kr]
        G = Nonzeros(gen[kr[x]], blk[x], slot[x], kv[x], (int(kept.sum()), b, D))
        self.nu_m.append(len(drop))
        self.nonzeros.append(G)
        self.betti_head.append(G.shape[0])

    def extend(self, steps: int, budget: float = float("inf")):
        """Materialize differentials up to index `steps`, stopping without
        an error before a kernel problem wider than `budget` columns
        (beta_i (e+2) for step i + 1).  The room the process can get
        (`available_bytes`) is read once, before the first step, and a step
        whose eliminations do not fit in it raises NotMaterialized."""
        room = None
        while (self.head < steps and not self.finite
               and self.betti_head[-1] * self.ring.dim <= budget):
            if room is None:
                room = available_bytes()
            try:
                self._step(room)
            except NotMaterialized as exc:
                raise NotMaterialized(f"resolution step {self.head + 1}: {exc}") from None

    # -- tail certification --------------------------------------------------

    def junction(self) -> int:
        """J = i_max + 1, where no syzygy M_j with j > i_max can split off
        k, so M_J is Koszul.  A split at index j needs a summand
        k_{-j'} of M (or of M_1 when m^2 M != 0) with dim k_{j'} below the
        module's dimension."""
        M = self.module
        if not M.action_w.any():
            bound = M.dim
            shift = 0
        else:
            # splits at index j >= 1 come from summands k_{-(j-1)} of M_1
            bound = self.betti_head[0] * self.ring.dim - M.dim
            shift = 1
        dims = k_syzygy_dims(self.ring, bound)
        i_max = shift + max([j for j in range(1, len(dims)) if dims[j] <= bound],
                            default=0)
        return i_max + 1

    def _ensure_tail(self):
        # a finite resolution is certified too (no slack or Lescot degree
        # past J), so the certificate is the same whether or not the head
        # ended before the first call
        if self._tail is not None:
            return
        J = self.junction()
        # the head through J + TAIL_OVERLAP, then up to HEAD_SLACK degrees
        # more while their kernel problems fit CHAIN_BUDGET columns.  The
        # certificate's head is read off the Betti numbers by that rule: past
        # J they increase, so a head deepened earlier does not move it
        top = J + TAIL_OVERLAP + HEAD_SLACK
        self.extend(J + TAIL_OVERLAP)
        self.extend(top, CHAIN_BUDGET)
        head = J + TAIL_OVERLAP
        while (head < min(self.head, top)
               and self.betti_head[head] * self.ring.dim <= CHAIN_BUDGET):
            head += 1
        e = self.ring.e
        b = self.betti_head
        # the recurrence and the Lescot formulas must hold on every honest
        # degree past the junction; any mismatch falsifies the certificate
        for j in range(J, self.head):
            if b[j + 1] != e * b[j] - self.nu_m[j - 1]:
                raise CertificateError(
                    f"Lescot formula fails past the junction J={J} "
                    f"at degree {j + 1}")
            if self.nu_m[j] != b[j]:
                raise CertificateError(
                    f"nu(m M_{j + 1}) != nu(M_{j}) past the junction J={J}")
        self._tail = TailCertificate(J, min(head, self.head))

    def tail_certificate(self) -> TailCertificate:
        self._ensure_tail()
        return self._tail

    # -- accessors -----------------------------------------------------------

    def betti(self, n: int) -> list[int]:
        """Exact Betti numbers beta_0..beta_n (tail degrees certified)."""
        if n < 0:
            raise GorlabError(f"negative degree {n}")
        if n < len(self.betti_head):
            return self.betti_head[: n + 1]
        if self.finite:
            return self.betti_head + [0] * (n - self.head)
        self._ensure_tail()
        if n < len(self.betti_head):
            return self.betti_head[: n + 1]
        out = list(self.betti_head)
        e = self.ring.e
        while len(out) <= n:
            out.append(e * out[-1] - out[-2])
        return out[: n + 1]

    def diff(self, i: int) -> np.ndarray:
        """Ring-entry array of del_i, for 1 <= i <= head, built dense from
        its nonzeros."""
        if not 1 <= i <= self.head:
            raise NotMaterialized(f"differential {i} not materialized (head={self.head})")
        return self.nonzeros[i - 1].dense()


def resolve(M: FiniteModule, n: int,
            min_head: int | None = None) -> MinimalFreeResolution:
    """Resolution of M with exact Betti numbers through degree n.

    Cached on the module; the head is materialized through min(min_head, n)
    and at least through the junction overlap so the tail is certified.
    """
    res = M._cache.get("resolution")
    if res is None:
        res = MinimalFreeResolution(M)
        M._cache["resolution"] = res
    if min_head is not None:
        res.extend(min(min_head, n))
    res.betti(n)  # materializes the head and certifies the tail as needed
    return res


def syzygy(M: FiniteModule, i: int) -> FiniteModule:
    """The i-th syzygy module M_i, realized inside F_{i-1}."""
    if i == 0:
        return M
    res = resolve(M, i, min_head=i)
    if res.finite and i > res.head:
        return FiniteModule.zero(M.ring)
    return res.syzygy(i)[0]


def lift_chain_map(phi: ModuleMap, n: int) -> list[Nonzeros]:
    """Lifts f_i: F_i^A -> F_i^B of phi: A -> B to the minimal resolutions,
    as the nonzeros of their entry arrays (beta_i(A), beta_i(B), e+2), for
    degrees 0..n (capped at the materialized heads).  The cover is del_0 and
    phi is f_{-1}: f_i solves del_i^B f_i = f_{i-1} del_i^A, for i = 0 too,
    on the generators of F_i^A.  The image of generator a is column a*D of
    the cover, or row a of del_i^A's entry array (basis_reg[c][:, 0] is the
    c-th unit vector), so only del_i^B's and f_{i-1}'s k-matrices are built."""
    A, B = phi.source, phi.target
    ring = A.ring
    p, D = ring.p, ring.dim
    ra = resolve(A, n, min_head=n)
    rb = resolve(B, n, min_head=n)
    lifts: list[Nonzeros] = []
    for i in range(min(n, ra.head, rb.head) + 1):
        if i == 0:
            prev, gens, KB = phi.matrix, ra.cover_matrix[:, ::D], rb.cover_matrix
        else:
            G = ra.diff(i)
            prev, KB = (linalg.dense(*kmat_triplets(X, ring.basis_reg, p))
                        for X in (lifts[-1], rb.nonzeros[i - 1]))
            gens = G.reshape(G.shape[0], G.shape[1] * D).T
        f = np.zeros((ra.betti_head[i], rb.betti_head[i], D), dtype=np.int64)
        for a, x in enumerate(linalg.solve_many(KB, linalg.matmul_mod(prev, gens, p), p)):
            if x is None:
                raise CertificateError(
                    f"resolution is exact, yet no lift in degree {i}")
            f[a] = x.reshape(rb.betti_head[i], D)
        gen, target, slot = np.nonzero(f)
        lifts.append(Nonzeros(gen, target, slot, f[gen, target, slot], f.shape))
    return lifts


# ---------------------------------------------------------------------------
# per-ring residue-field data


def residue_field_module(ring: ShortGorensteinRing) -> FiniteModule:
    k = ring._cache.get("residue_field")
    if k is None:
        k = FiniteModule.residue_field(ring)
        ring._cache["residue_field"] = k
    return k


def k_syzygy_dims(ring: ShortGorensteinRing, bound: int) -> list[int]:
    """dims[j] = dim_k of the j-th syzygy of k, listed while dims[j] is at
    most `bound` (plus one terminating larger value).  Uses only honestly
    materialized Betti numbers of k: resolve(k, 0) certifies no tail, as
    the junction of every other module reads it."""
    res = resolve(residue_field_module(ring), 0)
    dims = [1]
    while dims[-1] <= bound:
        res.extend(len(dims) - 1)
        dims = res.syzygy_dims()[:len(dims) + 1]
    return dims
