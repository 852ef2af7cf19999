"""Minimal free resolutions, syzygies and chain-map lifting.

Resolutions have two regimes.  A materialized head is computed honestly, one
k-linear kernel per homological degree.  Matrix sizes grow like e^i, so
`extend` reads what the process can still allocate (`available_bytes`: the
least of physical RAM, RLIMIT_AS and the limits of the process's own memory
cgroup and its ancestors, each less what is already in use, and the
kernel's MemAvailable) once, before its first step, and each step's
products and eliminations check what they hold against it by the one
memory rule of `linalg`: a step that does not fit is refused with
NotMaterialized before it allocates more.  Whether a step is refused thus
depends on the machine and on what the process holds, never on a tunable.
Every reading is taken afresh, from files the process keeps open (`_read`)
and opens again after a fork, so a read costs microseconds, not the opening
of four files.  The head holds only the degrees that the tail certificate,
the homology windows and the syzygy and lifting calls ask for.  `extend` takes
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

Every step runs one body (`_step`) on Python ints: the kernel's rows,
which `linalg.kernel_rref` returns as int64 arrays and the step turns into
lists once, merged by pivot, the leads of S tested with a set, and one
Nonzeros built at the end.  Most steps are small (a median of about a
dozen nonzeros in a perfbench batch), where numpy's fixed cost per call
would be most of the time, and on the large ones the lists cost no more
than arrays did.  One size choice is left, by `linalg.plain_route` on the
nonzeros of del_i: L is built as a dict through the nonzero entries of the
form (`_small_linear_part`) for a small del_i and by one numpy join
(`_linear_part`) for a larger one.  Both builders give the same triplets,
so the same kernel_rref call, room check, refusal and differential.

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
the step eliminate the slices, by `linalg.kernel_rref` with S's columns
reversed: its right-to-left pass then takes them left to right, and the
columns it does not leave free are the pivots of rref(S).

A resolution stores each differential as its nonzeros (`Nonzeros`: the
generator, target, slot and value of every nonzero entry), the cover matrix,
the Betti numbers and nu(m M_i) of each syzygy, the one syzygy number the
tail certificate reads; nothing else of a syzygy is kept.  A minimal
differential has its entries in m, about 1.4 nonzeros per row, so the README
module's del_1..del_8 hold 2876 nonzeros in 90 KiB, against 25.4 MiB as
dense arrays.  Steps, chain-map lifts and homology read the nonzeros;
`diff(i)` builds the dense entry array on demand for the readers that want
one (syzygies, the presentation and the `resolve` output).  A lift solves
each degree as one `linalg.kernel_rref` on triplets, against the room its
caller passes (`lift_chain_map`).  By exactness M_i is the image of del_i,
the R-span of its rows, so `syzygy` rebuilds M_i's rref basis on demand
with `span_closure`: the rref of a subspace is unique, so it is the basis
of the kernel the step found.  Exactness also
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


# (limit, usage, stat) files of a memory cgroup at the root of its mount,
# v2 then v1, and the stat key of the page cache the kernel reclaims before
# it kills a process
_CGROUP_FILES = (
    ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory.current",
     "/sys/fs/cgroup/memory.stat", "inactive_file"),
    ("/sys/fs/cgroup/memory/memory.limit_in_bytes",
     "/sys/fs/cgroup/memory/memory.usage_in_bytes",
     "/sys/fs/cgroup/memory/memory.stat", "total_inactive_file"),
)


class _Kept:
    """What room reads keep for the process `pid`: the files `_read` holds
    open, by path (None for one that could not be opened), the page size,
    physical RAM and `resource` module (None where the platform lacks
    them), and the files of its memory cgroups (`_cgroup_levels`)."""

    def __init__(self):
        self.pid = os.getpid()
        self.fds: dict = {}
        self.levels: list | None = None
        try:
            import resource
            page = os.sysconf("SC_PAGE_SIZE")
            self.machine = resource, page, os.sysconf("SC_PHYS_PAGES") * page
        except (ImportError, AttributeError, ValueError, OSError):
            self.machine = None


_kept: _Kept | None = None


def _process() -> _Kept:
    """This process's `_Kept`, made afresh when os.getpid() changes: a
    forked child inherits its parent's descriptors, whose /proc/self is the
    parent's, so it closes them and opens its own."""
    global _kept
    if _kept is None or _kept.pid != os.getpid():
        for fd in (_kept.fds.values() if _kept is not None else ()):
            if fd is not None:
                os.close(fd)
        _kept = _Kept()
    return _kept


def _read(path: str) -> str:
    """The text of a file, read now from offset 0 (`os.pread`) through a
    descriptor the process keeps open; a file that cannot be opened is
    remembered as missing and raises OSError at every read."""
    fds = _process().fds
    if path not in fds:
        try:
            fds[path] = os.open(path, os.O_RDONLY)
        except OSError:
            fds[path] = None
    fd = fds[path]
    if fd is None:
        raise FileNotFoundError(path)
    # a read shorter than asked ends the file
    chunks = [os.pread(fd, 8192, 0)]
    while len(chunks[-1]) == 8192:
        chunks.append(os.pread(fd, 8192, 8192 * len(chunks)))
    return b"".join(chunks).decode()


def _cgroup_levels() -> list:
    """(limit, usage, stat, key) of the process's own memory cgroup and of
    each ancestor up to the root of the mount, for each entry of
    `_CGROUP_FILES`: the v2 entry takes the path of the "0::" line of
    /proc/self/cgroup, the v1 entry that of the memory controller, and the
    root alone where the line is missing.  Worked out once per process."""
    kept = _process()
    if kept.levels is not None:
        return kept.levels
    own = {}   # controller -> path, "" for v2
    try:
        for line in _read("/proc/self/cgroup").splitlines():
            _, controllers, path = line.split(":", 2)
            own.update(dict.fromkeys(controllers.split(","), path))
    except (OSError, ValueError):
        pass
    kept.levels = []
    for files, controller in zip(_CGROUP_FILES, ("", "memory")):
        parts = [x for x in own.get(controller, "/").split("/") if x]
        for depth in range(len(parts), -1, -1):
            where = "/".join(parts[:depth])
            kept.levels.append(tuple(os.path.join(os.path.dirname(f), where,
                                                  os.path.basename(f))
                                     for f in files[:3]) + (files[3],))
    return kept.levels


def _cgroup_room(ram: float) -> float:
    """The least room over the memory cgroups that bind the process (its
    own and each ancestor, v2 and v1, `_cgroup_levels`): a cgroup's limit
    less its usage, with the page cache the kernel reclaims first counted as
    room.  A cgroup without a limit below `ram` that can be read adds
    nothing (only a limit below it has its usage and stat read), and
    infinity is left when none has one."""
    room = float("inf")
    for limit, usage, stat, key in _cgroup_levels():
        try:
            text = _read(limit).strip()
            if text == "max" or int(text) >= ram:
                continue
            cache = dict(line.split() for line in _read(stat).splitlines())
            room = min(room, int(text) - int(_read(usage)) + int(cache.get(key, 0)))
        except (OSError, ValueError):
            continue
    return room


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
    its address space, and the room left in its memory cgroups.  RAM less
    the resident set ignores every other process, so MemAvailable bounds
    it where the kernel reports one.  A reading the platform does not offer
    (resource and sysconf are Unix-only) counts as unlimited.

    Every reading is fresh; what cannot change within a process is looked
    up once: the page size, physical RAM, `resource` and the cgroup paths.
    The files are kept open and read with `os.pread`, a few microseconds a
    read where opening them took about a hundred (`_read`), and are opened
    afresh in a forked child."""
    machine = _process().machine
    if machine is None:
        return min(_mem_available(), _cgroup_room(float("inf")))
    resource, page, phys = machine
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
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
    Every input entry and pair is an entry to `linalg.check_room`, the
    inputs before the pairs are counted and the pairs before any is formed:
    a join that does not fit raises NotMaterialized."""
    what = f"a join of {len(aval)} by {len(bval)} entries"
    linalg.check_room(what, room, len(aval) + len(bval))
    lo = np.searchsorted(bkey, akey)      # the first partner of each a entry
    reps = np.searchsorted(bkey, akey, "right") - lo
    ends = np.cumsum(reps)
    pairs = int(ends[-1]) if len(ends) else 0
    linalg.check_room(f"{what} into {pairs} pairs", room, len(aval) + len(bval) + pairs)
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


def _linear_part(ring: ShortGorensteinRing, G: Nonzeros, room: float = float("inf")):
    """Triplets of the matrix L with ker del = ker(L) + wF for a minimal
    differential with nonzeros G (shape (a, j, e+2)): entry [j, a*e + g] is
    the w-coefficient in block j of del(x_g * gen a), sum_h form[g, h]
    G[a, j, 1+h], so L is the k-matrix whose op of slot 1+h is the row
    form[:, h]; its join checks against `room`."""
    e = ring.e
    ops = np.zeros((ring.dim, 1, e), dtype=np.int64)
    ops[1:e + 1, 0] = ring.form.T
    return kmat_triplets(G, ops, ring.p, room)


def _small_linear_part(ring: ShortGorensteinRing, G: Nonzeros):
    """`_linear_part` on Python ints, for a differential with few nonzeros:
    L's triplets as lists in row-major order and its shape.  Each nonzero
    of G on slot 1+h adds form[g, h] times its value to column a*e + g, for
    the g where that entry of the form is nonzero (listed once per ring)."""
    e, p = ring.e, ring.p
    by_slot = ring._cache.get("form_columns")
    if by_slot is None:
        form = ring.form.tolist()
        by_slot = ring._cache["form_columns"] = (
            [[]] + [[(g, row[h]) for g, row in enumerate(form) if row[h]]
                    for h in range(e)] + [[]])
    L: dict = {}
    for a, j, slot, v in zip(G.gen.tolist(), G.target.tolist(),
                             G.slot.tolist(), G.val.tolist()):
        for g, f in by_slot[slot]:
            key = (j, a * e + g)
            L[key] = L.get(key, 0) + v * f
    keys = sorted(key for key, v in L.items() if v % p)
    return ([j for j, _ in keys], [c for _, c in keys],
            [L[key] % p for key in keys], (G.shape[1], G.shape[0] * e))


def _slice_pivots(rows, cols, vals, blocks: int, p: int, room: float) -> list[int]:
    """Pivots of rref(S), for the span S of the x-slot slices of kernel rows
    given by their nonzeros: vals[k] at slice rows[k] (one slice per kernel
    row and x-slot) and column cols[k] < blocks.  These are the blocks whose
    w-pivot row m K covers.  They are the columns that `linalg.kernel_rref`
    does not leave free on S with its columns reversed (c -> blocks-1-c), so
    that its right-to-left pass takes S's columns left to right, as rref
    does; the elimination checks against `room`."""
    free = set(linalg.kernel_rref(rows, [blocks - 1 - c for c in cols], vals,
                                  (max(rows, default=-1) + 1, blocks), p, room)[3])
    return [c for c in range(blocks) if blocks - 1 - c not in free]


@dataclass
class TailCertificate:
    """Witness that the Betti sequence obeys the two-term recurrence from
    the junction J on, checked on every materialized degree past J."""

    junction: int
    head: int    # the head certification materializes on a fresh resolution


class MinimalFreeResolution:
    """Growable minimal free resolution of a finite module.  It keeps of
    the module only its dimension and whether m^2 acts nonzero on it, the
    two facts `syzygy_dims` and `junction` read, so a module and the
    resolution cached on it form no reference cycle."""

    def __init__(self, module: FiniteModule):
        ring = module.ring
        self.module_dim = module.dim
        self.w_acts = bool(module.action_w.any())
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
        dims = [self.module_dim]
        for b in self.betti_head:
            dims.append(b * self.ring.dim - dims[-1])
        return dims

    def _step(self, room: float):
        """Append del_{i+1} and nu(m M_{i+1}), from the kernel of the cover
        matrix (i = 0) or of L (module docstring), on Python ints: the
        kernel's rows merged by pivot, S read off them and del_{i+1} written
        once.  The one size choice is L's builder, `_small_linear_part` for
        a del_i of at most `linalg.plain_route` nonzeros and `_linear_part`
        above.  kernel_rref hands back int64 arrays either way, which the
        all-pivots case stores as they come and every other step turns into
        lists once."""
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
            rows = [(c, []) for c in kpiv]
        else:
            G = self.nonzeros[-1]
            L = (_small_linear_part(ring, G) if linalg.plain_route(len(G.val))
                 else _linear_part(ring, G, room))
            kr, kc, kv, lpiv = linalg.kernel_rref(*L, p, room)
            if len({c // e for c in lpiv}) == b:
                # every block holds the pivot of a row of ker L, and that
                # row's slice at the pivot's slot leads there: S is
                # everything, every w-unit row drops, and the rows of ker L
                # on their x-slots are del_{i+1}
                blk, slot = np.divmod(kc, e)
                slot += 1
                return self._append(Nonzeros(kr, blk, slot, kv, (len(lpiv), b, D)), b)
            # ker del = ker(L) + wF: the rows of rref(ker L) on their x-slots
            # (column a*e + g of L is slot a*D + 1 + g of F) and one w-unit
            # row per block, merged by pivot, are the rref of ker del
            kc = kc // e * D + 1 + kc % e
            rows = sorted([(c // e * D + 1 + c % e, []) for c in lpiv]
                          + [(a * D + D - 1, [(a * D + D - 1, 1)]) for a in range(b)])
            kr = kr + np.array(lpiv, dtype=np.int64)[kr] // e   # each x-row's place
        for r, c, v in zip(kr.tolist(), kc.tolist(), kv.tolist()):
            rows[r][1].append((c, v))
        # m*K lies on the w-slots; in coordinates w.r.t. K's rows (their
        # pivot-column entries) it is S, read on the blocks of the rows with
        # a w-pivot (K is nonzero inside mF, so it meets the socle wF).  S's
        # nonzeros, as `_slice_pivots` takes them: slice r e + slot - 1 of
        # row r on those blocks, numbered by pivot.  A row's entries go by
        # column, so each slice's first entry is its lead
        wblocks = [c // D for c, _ in rows if c % D == D - 1]
        col = {blk: k for k, blk in enumerate(wblocks)}
        sr: list[int] = []
        sc: list[int] = []
        sv: list[int] = []
        seen, leads = set(), set()
        for r, (_, ents) in enumerate(rows):
            for c, v in ents:
                blk, slot = divmod(c, D)
                if blk in col and slot <= e:
                    s = r * e + slot - 1
                    if s not in seen:
                        seen.add(s)
                        leads.add(col[blk])
                    sr.append(s)
                    sc.append(col[blk])
                    sv.append(v)
        # every nonzero vector of S leads at a pivot of rref(S): when the
        # leads cover every block, S is everything, and only otherwise are
        # the slices eliminated.  Generators = the rows S's pivots leave
        if sv and len(leads) == len(wblocks):
            drop = wblocks
        else:
            drop = [wblocks[k] for k in _slice_pivots(sr, sc, sv, len(wblocks), p, room)]
        dropped = {blk * D + D - 1 for blk in drop}
        gen: list[int] = []
        cols: list[int] = []
        vals: list[int] = []
        k = 0   # the generator of the next row kept
        for piv, ents in rows:
            if piv in dropped:
                continue
            for c, v in ents:
                gen.append(k)
                cols.append(c)
                vals.append(v)
            k += 1
        blk, slot = np.divmod(np.array(cols, dtype=np.int64), D)
        self._append(Nonzeros(np.array(gen, dtype=np.int64), blk, slot,
                              np.array(vals, dtype=np.int64), (k, b, D)), len(drop))

    def _append(self, G: Nonzeros, nu: int):
        """Record del_{i+1} with nonzeros G and nu(m M_{i+1}) = nu."""
        self.nu_m.append(nu)
        self.nonzeros.append(G)
        self.betti_head.append(G.shape[0])

    def extend(self, steps: int, budget: float = float("inf")):
        """Materialize differentials up to index `steps`, stopping without
        an error before a kernel problem wider than `budget` columns
        (beta_i (e+2) for step i + 1).  The room (`available_bytes`) is
        read once, before the first step, and a step whose products or
        eliminations do not fit in it raises NotMaterialized."""
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
        if not self.w_acts:
            bound = self.module_dim
            shift = 0
        else:
            # splits at index j >= 1 come from summands k_{-(j-1)} of M_1
            bound = self.betti_head[0] * self.ring.dim - self.module_dim
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


def lift_chain_map(phi: ModuleMap, n: int, room: float = float("inf")) -> list[Nonzeros]:
    """Lifts f_i: F_i^A -> F_i^B of phi: A -> B to the minimal resolutions,
    as the nonzeros of their entry arrays (beta_i(A), beta_i(B), e+2), for
    degrees 0..n (capped at the materialized heads).  The cover is del_0 and
    phi is f_{-1}: f_i solves del_i^B f_i = f_{i-1} del_i^A, for i = 0 too,
    on the q generators of F_i^A.  The image of generator a is column a*D of
    the cover, or row a of del_i^A's entry array (basis_reg[c][:, 0] is the
    c-th unit vector), so Y = f_{i-1} del_i^A on them is one join of del_i^A's
    nonzeros with f_{i-1}'s k-matrix, and only del_i^B's k-matrix KB is
    built besides, all as triplets.

    Each degree is one `linalg.kernel_rref` of [-Y | KB], whose right-to-left
    pass takes KB's columns first: every generator has a lift exactly when
    the first q columns are all free, and then kernel row a, past column q,
    lifts generator a (KB's free columns 0).  Homotopic lifts induce the
    same maps on Tor.  The joins and the elimination check against `room`,
    and a degree that does not fit raises NotMaterialized naming it."""
    A, B = phi.source, phi.target
    ring = A.ring
    p, D = ring.p, ring.dim
    ra = resolve(A, n, min_head=n)
    rb = resolve(B, n, min_head=n)
    lifts: list[Nonzeros] = []
    for i in range(min(n, ra.head, rb.head) + 1):
        q, b = ra.betti_head[i], rb.betti_head[i]
        try:
            # Y's nonzeros yv at the indices pos = row q + generator
            if i == 0:
                Y = linalg.matmul_mod(phi.matrix, ra.cover_matrix[:, ::D], p).ravel()
                pos = np.flatnonzero(Y)
                yv, C = Y[pos], rb.cover_matrix
                KB = (*np.nonzero(C), C[C != 0], C.shape)
            else:
                # f_{i-1}'s k-matrix transposed, its entries by column
                G = ra.nonzeros[i - 1]
                fc, fr, fv, _ = kmat_triplets(lifts[-1].transpose(),
                                              ring.basis_reg.transpose(0, 2, 1), p, room)
                pos, yv = join_sum(G.target * D + G.slot, G.gen, G.val, fc, fr * q, fv, p, room)
                KB = kmat_triplets(rb.nonzeros[i - 1], ring.basis_reg, p, room)
            yr, yc = np.divmod(pos, max(q, 1))
            kr, kc, kv, free = linalg.kernel_rref(
                np.concatenate([yr, KB[0]]), np.concatenate([yc, KB[1] + q]),
                np.concatenate([p - yv, KB[2]]), (KB[3][0], q + b * D), p, room)
        except NotMaterialized as exc:
            raise NotMaterialized(f"lift degree {i}: {exc}") from None
        if free[:q] != list(range(q)):
            raise CertificateError(f"resolution is exact, yet no lift in degree {i}")
        lift = (kr < q) & (kc >= q)
        lifts.append(Nonzeros(kr[lift], *np.divmod(kc[lift] - q, D), kv[lift], (q, b, D)))
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
