"""Minimal free resolutions, syzygies and chain-map lifting.

Resolutions have two regimes.  A materialized head is computed honestly, one
k-linear kernel per homological degree.  Matrix sizes grow like e^i, so every
step first estimates the bytes it will hold (`_step_bytes`) and
`guard_memory` refuses it with NotMaterialized when they exceed what the
process can still allocate: the least of physical RAM, RLIMIT_AS and the
memory cgroup's limit, each less what is already in use, and the kernel's
MemAvailable, read when the step is asked for.  Whether a step is refused
thus depends on the machine and on what the process holds, never on a
tunable.  The head holds only the degrees that the tail certificate, the
homology windows and the syzygy and lifting calls ask for; the column
budget DEFAULT_BUDGET applies only to the CLI `resolve` verb, which stops
silently before the first kernel problem past it.  Tail certification
materializes a head that depends only on the Betti numbers: J + TAIL_OVERLAP
degrees, and up to HEAD_SLACK more while their kernel problems stay within
CHAIN_BUDGET columns, the dimension of the chain module F_i (x) R = F_i.
Homology reads the same bound for the chain modules F_j (x) N of a window
it takes whole.
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
of w-coefficients of del_i on the x-slots.  The step eliminates L instead of
the (e+2)-fold k-matrix of del_i.  The rows of rref(ker L), placed in the
x-slots, together with one unit row per w-slot, sorted by pivot, are a
reduced echelon basis: no row has a nonzero entry in another row's pivot
column, because the two kinds of rows live on disjoint slots.  The rref of a
subspace is unique, so this is the matrix a generic elimination of the
k-matrix would give, and every differential, presentation and serialized
byte is the same.  Only the first step, the kernel of the cover F_0 -> M,
eliminates a generic k-matrix: it need not contain w F_0.

The step also reads nu(m M_i) = dim m K, for the kernel K it found, and
leaves out of the differential the rows of K's rref basis that m K covers.
K lies in m F, so m K is spanned by the images x_g * z of its rows z, and
block j of x_g * z is form[g] . z[j, x-slots] w.  The form is nondegenerate,
so these images span the same subspace S as the x-slot slices z[:, 1 + h],
h < e, and the two have one rref, rank and pivot set.  Every nonzero vector
of S has its leading entry at a pivot of rref(S), so when the leading
entries of the slices already cover every column, S is everything and
nothing is eliminated; only otherwise, in a few percent of the steps, does
the step eliminate the slices.

A resolution stores its differentials, the cover matrix, the Betti numbers
and nu(m M_i) of each syzygy, the one syzygy number the tail certificate
reads; nothing else of a syzygy is kept.  M_i is the kernel of del_{i-1}
(of the cover for i = 1), so `syzygy` rebuilds its rref basis on demand by
running the step's own kernel routine again (`_kernel`): the same input
gives the same rows and pivots, and dim M_i follows from exactness,
dim M_i = beta_{i-1} (e+2) - dim M_{i-1} (`syzygy_dims`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CertificateError, GorlabError, NotMaterialized
from .modules import (
    FiniteModule,
    ModuleMap,
    radical_rows,
    radical_square_rows,
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


def _available_bytes() -> float:
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


def guard_memory(nbytes: int, what: str) -> None:
    """Raise NotMaterialized, before anything is allocated, when `what`
    would hold more bytes than the process can still get."""
    avail = _available_bytes()
    if nbytes > avail:
        raise NotMaterialized(
            f"{what} needs about {nbytes / 2**20:.0f} MiB, "
            f"the process can get {max(avail, 0) / 2**20:.0f} MiB")


def free_kmat(G: np.ndarray, ops: np.ndarray, p: int) -> np.ndarray:
    """k-matrix of del tensor N: N^a -> N^j for the ring-entry array G
    (shape (a, j, e+2): row a is del(gen a)) of a map del: R^a -> R^j and
    the action matrices ops = N.all_ops of N; ops = ring.basis_reg, the
    action matrices of R itself, gives the k-matrix of del."""
    a, j, _ = G.shape
    d = ops.shape[1]
    out = np.einsum("ajc,cxy->jxay", G, ops) % p
    return out.reshape(j * d, a * d)


def _linear_part(ring: ShortGorensteinRing, G: np.ndarray) -> np.ndarray:
    """The matrix L with ker del = ker(L) + wF for a minimal differential
    with entry array G (shape (a, j, e+2)): entry [j, a*e + g] is the
    w-coefficient in block j of del(x_g * gen a)."""
    a, j, _ = G.shape
    e = ring.e
    L = np.einsum("ajh,gh->jag", G[:, :, 1:e + 1], ring.form) % ring.p
    return L.reshape(j, a * e)


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
        self.diffs: list[np.ndarray] = []    # diffs[i-1] = del_i, shape (b_i, b_{i-1}, D)
        self.nu_m: list[int] = []            # nu_m[i-1] = nu(m M_i) = dim m M_i
        self.finite = b0 == 0
        self._tail: TailCertificate | None = None

    # -- materialization ----------------------------------------------------

    @property
    def head(self) -> int:
        """Number of materialized differentials."""
        return len(self.diffs)

    def _kernel(self, i: int):
        """rref basis of M_i, the kernel of del_{i-1}: F_{i-1} -> F_{i-2}
        (del_0 the cover), for 1 <= i <= head + 1: (rows, pivots)."""
        if i == 1:
            return self._cover_kernel()
        return self._graded_kernel(self.diffs[i - 2])

    def syzygy(self, i: int) -> tuple[FiniteModule, ModuleMap]:
        """M_i inside F_{i-1} and its inclusion, for 1 <= i <= head + 1,
        on the rref basis `_kernel` rebuilds: the one the step that made
        del_i eliminated."""
        rows, pivots = self._kernel(i)
        return submodule(FiniteModule.free(self.ring, self.betti_head[i - 1]),
                         rows, pivots)

    def syzygy_dims(self) -> list[int]:
        """dim M_0, ..., dim M_{head+1}, by exactness of
        0 -> M_{i+1} -> F_i -> M_i -> 0: dim M_{i+1} = beta_i (e+2) - dim M_i."""
        dims = [self.module.dim]
        for b in self.betti_head:
            dims.append(b * self.ring.dim - dims[-1])
        return dims

    def _cover_kernel(self):
        """rref basis of the kernel of the cover F_0 -> M, by generic
        elimination: (rows, pivots)."""
        p = self.ring.p
        D = self.ring.dim
        Kr, kpiv = linalg.kernel_rref(self.cover_matrix, p)
        if Kr[:, ::D].any():
            raise CertificateError(
                "kernel escapes the radical; cover not minimal")
        return Kr, kpiv

    def _graded_kernel(self, G: np.ndarray):
        """rref basis of ker del = ker(L) + wF for the minimal differential
        with entry array G: (rows, pivots)."""
        ring = self.ring
        e, D = ring.e, ring.dim
        b = G.shape[0]
        KL, lpiv = linalg.kernel_rref(_linear_part(ring, G), ring.p)
        # column a*e + g of L is the x_{g+1}-slot a*D + 1 + g of F; both
        # kinds of rows keep their pivots, so sorting by pivot merges them
        # into the rref of the direct sum
        xpiv = [c // e * D + 1 + c % e for c in lpiv]
        wpiv = [a * D + D - 1 for a in range(b)]
        kpiv = sorted(xpiv + wpiv)
        at = {c: t for t, c in enumerate(kpiv)}
        Kr = np.zeros((len(kpiv), b, D), dtype=np.int64)
        Kr[[at[c] for c in xpiv], :, 1:e + 1] = KL.reshape(len(xpiv), b, e)
        Kr[[at[c] for c in wpiv], np.arange(b), D - 1] = 1
        return Kr.reshape(len(kpiv), b * D), kpiv

    def _step(self):
        ring = self.ring
        p, e, D = ring.p, ring.e, ring.dim
        bprev = self.betti_head[-1]
        Kr, kpiv = self._kernel(self.head + 1)
        nk = len(kpiv)
        if nk == 0:
            self.nu_m.append(0)
            self.diffs.append(np.zeros((0, bprev, D), dtype=np.int64))
            self.betti_head.append(0)
            self.finite = True
            return
        # m*K lies inside the row space of Kr, so its rank and a complement
        # are visible in coordinates w.r.t. Kr (the pivot-column entries);
        # generators = rows of Kr complementary to the row space of m*K.
        # m*K lies on the w-slots; in those coordinates it is the span S of
        # the x-slot slices of the rows of Kr (module docstring), read on the
        # blocks of the nw >= 1 rows with a w-pivot (K is nonzero inside mF,
        # so it meets the socle wF)
        wcols = [t for t in range(nk) if kpiv[t] % D == D - 1]
        nw = len(wcols)
        S = Kr.reshape(nk, bprev, D)[:, [kpiv[t] // D for t in wcols], 1:e + 1]
        S = S.transpose(0, 2, 1).reshape(nk * e, nw)
        # every nonzero vector of S leads at a pivot of rref(S); when the
        # leading entries of the slices already cover all nw columns, S is
        # everything, and only otherwise is it eliminated (a w-unit row's
        # slices are zero and drop out)
        S = S[S.any(axis=1)]
        if np.unique(np.argmax(S != 0, axis=1)).size == nw:
            wpiv, wrank = range(nw), nw
        else:
            _, wpiv, wrank = linalg.rref_array(S, p)
        # the wrank distinct pivots drop wrank rows and leave at least one:
        # wrank <= nw < nk unless every row has a w-pivot, and then the
        # column of S for the earliest w-pivot block is zero, so only an
        # empty kernel (nk == 0, above) ends the resolution
        drop = {wcols[t] for t in wpiv}
        sel = [t for t in range(nk) if t not in drop]
        self.nu_m.append(wrank)
        self.diffs.append(Kr[sel].reshape(len(sel), bprev, D))
        self.betti_head.append(len(sel))

    def extend(self, steps: int, budget_stop: bool = False):
        """Materialize differentials up to index `steps`.  A step that would
        hold more bytes than the process can get raises NotMaterialized
        (`guard_memory`).  With budget_stop, passed only by the CLI `resolve`
        verb, the head also stops, without an error, before a kernel problem
        past DEFAULT_BUDGET columns."""
        while self.head < steps and not self.finite:
            cols = self.betti_head[-1] * self.ring.dim
            if budget_stop and cols > DEFAULT_BUDGET:
                break
            guard_memory(self._step_bytes(), f"resolution step {self.head + 1}")
            self._step()

    def _step_bytes(self) -> int:
        """Bytes the next `_step` holds at its peak.  The kernel it
        eliminates is M_{head+1}, of nk = cols - dim M_head rows of
        cols = b D entries; the cover step's kernel comes from a generic
        elimination of the dim M x cols cover matrix, held twice while it
        is eliminated.  The step holds the kernel rows and the new
        differential (at most nk rows), and the e nk b x-slot slices of the
        kernel rows a few times over: most steps only read their leading
        entries, but a step whose leading entries fall short eliminates
        them.  The measured (tracemalloc) peak is 0.37 to 0.39 of this on
        the benchmark's steps of more than 1 MiB, and 0.38 to 0.46 on steps
        4-9 of the README's module; steps of a few KiB peak above it, on
        fixed per-step overhead."""
        b, e = self.betti_head[-1], self.ring.e
        cols = b * self.ring.dim
        nk = self.syzygy_dims()[-1]
        cover = 2 * self.module.dim * cols if self.head == 0 else 0
        return 8 * (cover + 2 * cols * nk + 5 * e * nk * b)

    # -- tail certification --------------------------------------------------

    def junction(self) -> int:
        """J = i_max + 1, where no syzygy M_j with j > i_max can split off
        k, so M_J is Koszul.  A split at index j needs a summand
        k_{-j'} of M (or of M_1 when m^2 M != 0) with dim k_{j'} below the
        module's dimension."""
        M = self.module
        if radical_square_rows(M)[0].shape[0] == 0:
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
        # the head through J + TAIL_OVERLAP, then optional slack degrees
        # while their kernel problems stay desk-scale: a function of the
        # Betti numbers alone, however deep the head already is
        head = J + TAIL_OVERLAP
        self.extend(head)
        while (head < J + TAIL_OVERLAP + HEAD_SLACK and not self.finite
               and self.betti_head[head] * self.ring.dim <= CHAIN_BUDGET):
            head += 1
            self.extend(head)
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
        """Ring-entry array of del_i, for 1 <= i <= head."""
        if not 1 <= i <= self.head:
            raise NotMaterialized(f"differential {i} not materialized (head={self.head})")
        return self.diffs[i - 1]


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


def lift_chain_map(phi: ModuleMap, n: int) -> list[np.ndarray]:
    """Lifts f_i: F_i^A -> F_i^B of phi: A -> B to the minimal resolutions,
    as ring-entry arrays (beta_i(A), beta_i(B), e+2), for degrees 0..n
    (capped at the materialized heads).  The cover is del_0 and phi is
    f_{-1}: f_i solves del_i^B f_i = f_{i-1} del_i^A, for i = 0 too, on the
    generators of F_i^A.  The image of generator a is column a*D of the
    cover, or row a of del_i^A's entry array (basis_reg[c][:, 0] is the
    c-th unit vector), so only del_i^B's k-matrix is built."""
    A, B = phi.source, phi.target
    ring = A.ring
    p, D = ring.p, ring.dim
    ra = resolve(A, n, min_head=n)
    rb = resolve(B, n, min_head=n)
    lifts: list[np.ndarray] = []
    for i in range(min(n, ra.head, rb.head) + 1):
        if i == 0:
            prev, gens, KB = phi.matrix, ra.cover_matrix[:, ::D], rb.cover_matrix
        else:
            G = ra.diff(i)
            prev = free_kmat(lifts[-1], ring.basis_reg, p)
            gens = G.reshape(G.shape[0], G.shape[1] * D).T
            KB = free_kmat(rb.diff(i), ring.basis_reg, p)
        f = np.zeros((ra.betti_head[i], rb.betti_head[i], D), dtype=np.int64)
        for a, x in enumerate(linalg.solve_many(KB, prev @ gens % p, p)):
            if x is None:
                raise CertificateError(
                    f"resolution is exact, yet no lift in degree {i}")
            f[a] = x.reshape(rb.betti_head[i], D)
        lifts.append(f)
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
