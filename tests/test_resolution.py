import gc
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from gorlab import (
    FiniteModule,
    cyclic_module,
    expand_rational,
    hyperbolic_form,
    identity_form,
    io,
    is_koszul,
    make_ring,
    random_module,
    random_nondegenerate_form,
    resolve,
)
import gorlab.resolution as rs
from gorlab import linalg
from gorlab.errors import CertificateError, NotMaterialized, RadicalSquareNonzero
from gorlab.koszul import split_off_k_witness
from gorlab.linalg import kernel_array, kernel_rref, rank_array, row_space, rref_array
from gorlab.resolution import (
    DEFAULT_BUDGET,
    TAIL_OVERLAP,
    MinimalFreeResolution,
    Nonzeros,
    k_syzygy_dims,
    lift_chain_map,
    residue_field_module,
    syzygy,
)
from gorlab.modules import (
    ModuleMap,
    direct_sum,
    matlis_dual,
    quotient,
    radical_rows,
    radical_square_rows,
    socle_rows,
    span_closure,
    submodule,
)
from conftest import _kmat

# Betti numbers of k over the e = 3 ring: expansion of 1/(1 - 3t + t^2)
K3_BETTI = [1, 3, 8, 21, 55, 144, 377, 987, 2584, 6765, 17711]


def test_residue_field_betti_e3(k3):
    assert resolve(k3, 10).betti(10) == K3_BETTI


def test_residue_field_betti_e2(R2):
    # 1/(1 - 2t + t^2) = 1/(1-t)^2: beta_i = i + 1
    res = resolve(residue_field_module(R2), 12)
    assert res.betti(12) == list(range(1, 14))


def test_free_module_resolves_in_zero_steps(R3):
    res = resolve(FiniteModule.free(R3, 2), 8)
    assert res.finite and res.betti(8) == [2] + [0] * 8


def test_cyclic_rx_betti(Rx3):
    # R/(x_1): b_{i+1} = 3 b_i - b_{i-1} starting 1, 1
    assert resolve(Rx3, 8).betti(8) == [1, 1, 2, 5, 13, 34, 89, 233, 610]


def test_differentials_compose_to_zero(R3):
    M = random_module(R3, 2, 2, seed=21)
    res = resolve(M, 5)
    res.extend(5)
    for i in range(1, min(5, res.head)):
        prod = _kmat(res.diff(i), R3.basis_reg, 101) @ \
            _kmat(res.diff(i + 1), R3.basis_reg, 101) % 101
        assert not prod.any()
    # minimality: no differential entry has a unit (degree-0) component
    for i in range(1, min(5, res.head) + 1):
        assert not res.diff(i)[:, :, 0].any()


def test_certified_tail_matches_recurrence(R3):
    M = random_module(R3, 2, 2, seed=33)
    b = resolve(M, 40).betti(40)
    e = R3.e
    J = resolve(M, 40).junction()
    for i in range(J + 1, 40):
        assert b[i + 1] == e * b[i] - b[i - 1]


def test_certified_betti_agree_with_honest_extension(R3):
    # dual-route check: the certified tail of a cached resolution against an
    # honest materialization of a fresh one
    M = random_module(R3, 2, 1, seed=5)
    certified = resolve(M, 10)
    assert certified.head == 7
    honest = MinimalFreeResolution(M)
    honest.extend(10)
    assert honest.head > 7
    # betti_head holds only the honestly computed degrees, here 0..10
    assert honest.betti_head == certified.betti(10)


def test_budget_stop_ends_the_head_silently(R3):
    # the CLI `resolve m1.json --steps 10` writes 8 differentials: the
    # kernel problem of the ninth would exceed DEFAULT_BUDGET columns
    res = MinimalFreeResolution(random_module(R3, 2, 2, seed=5))
    res.extend(10, DEFAULT_BUDGET)
    assert res.head == 8
    assert res.betti_head[-1] * R3.dim > DEFAULT_BUDGET


def _cyclic_x1(e):
    R = make_ring(101, e, identity_form(e))
    return cyclic_module(R, [R.x(1)])[0]


@pytest.mark.parametrize("build, want", [
    (lambda: _cyclic_x1(3), (1, 6)),
    (lambda: random_module(make_ring(101, 3, identity_form(3)), 2, 2, seed=5), (2, 7)),
    (lambda: _cyclic_x1(4), (1, 6)),
], ids=["R3/(x1)", "readme", "R4/(x1)"])
def test_fresh_certification_reads_the_room_twice(build, want, monkeypatch):
    # one extension through J + TAIL_OVERLAP and one for the slack degrees,
    # each reading the room once; the certificate's head is read off the
    # Betti numbers, not taken one extension at a time
    res = MinimalFreeResolution(build())
    res.junction()   # resolves k as far as the junction reads it
    reads, real = [], rs.available_bytes
    monkeypatch.setattr(rs, "available_bytes", lambda: reads.append(1) or real())
    cert = res.tail_certificate()
    assert (cert.junction, cert.head) == want
    assert len(reads) <= 2


def test_step_refused_before_allocation(R3, monkeypatch):
    # extend reads the room once, and the step's elimination stores no more
    # entries than fit in it: with room for exactly the rows, columns and
    # entries of step 5's linear part, the forward pass stores no more than
    # the input, the back-substitution's fill crosses the room, and the step
    # is refused there
    res = MinimalFreeResolution(random_module(R3, 2, 2, seed=5))
    res.extend(4)
    _, _, vals, (m, n) = rs._linear_part(R3, res.nonzeros[-1])
    room = linalg.ENTRY_BYTES * len(vals) + linalg.LINE_BYTES * (m + n)
    monkeypatch.setattr(rs, "available_bytes", lambda: room)
    crossed, real = [], (linalg._eliminate, linalg._back_substitute)

    def eliminate(*args):
        out = real[0](*args)
        crossed.append(out is None)
        return out

    def back_substitute(*args):
        out = real[1](*args)
        crossed.append(not out)
        return out

    monkeypatch.setattr(linalg, "_eliminate", eliminate)
    monkeypatch.setattr(linalg, "_back_substitute", back_substitute)
    with pytest.raises(NotMaterialized, match=f"resolution step 5: a {m} x {n} elimination") as exc:
        res.extend(6)
    # the refusal shows the sizes: the room stores exactly the input's entries
    assert len(vals) and (f"of {len(vals)} entries outgrows the {room / 2**10:.1f} KiB "
                          f"the process can get, room for {len(vals)} stored entries"
                          ) in str(exc.value)
    assert crossed == [False, True] and res.head == 4


def test_available_bytes_reads_the_memory_cgroup(tmp_path, monkeypatch, fresh_process):
    limit, usage, stat = (tmp_path / f for f in ("limit", "usage", "stat"))
    usage.write_text("600000\n")
    stat.write_text("cache 300000\ninactive_file 100000\n")
    v2 = (str(limit), str(usage), str(stat), "inactive_file")
    monkeypatch.setattr(rs, "_CGROUP_FILES", ((str(tmp_path / "none"),) * 4, v2))
    limit.write_text("max\n")
    assert rs._cgroup_room(2**60) == float("inf")
    # the page cache the kernel can reclaim counts as room
    limit.write_text("1000000\n")
    assert rs._cgroup_room(2**60) == 500000
    assert rs.available_bytes() <= 500000
    # a limit at or above the RAM binds nothing the RAM does not
    assert rs._cgroup_room(1000000) == float("inf")
    # where sysconf and resource are missing, only the cgroup is read (in a
    # process that looks them up afresh: each process does so once)
    _forget_process()
    monkeypatch.delattr(os, "sysconf")
    assert rs.available_bytes() == 500000
    assert rs._kept.machine is None


def test_available_bytes_is_bounded_by_mem_available(monkeypatch):
    # RAM less the resident set ignores every other process; where the
    # kernel reports MemAvailable, the guard admits no more than that
    files = {"/proc/meminfo": "MemTotal:  8000000 kB\nMemAvailable:  1000 kB\n"}

    def read(path):
        if path not in files:
            raise OSError(path)
        return files[path]

    monkeypatch.setattr(rs, "_read", read)
    assert rs._mem_available() == 1000 * 1024
    assert rs.available_bytes() == 1000 * 1024
    # a kernel without the field, or without the file, bounds nothing
    files["/proc/meminfo"] = "MemTotal:  8000000 kB\nMemFree:  7000000 kB\n"
    assert rs._mem_available() == float("inf")
    assert rs.available_bytes() > 1000 * 1024
    del files["/proc/meminfo"]
    assert rs._mem_available() == float("inf")


def _forget_process():
    """Close the files room reads keep, so that the next read starts the way
    a new process does."""
    if rs._kept is not None:
        for fd in rs._kept.fds.values():
            if fd is not None:
                os.close(fd)
    rs._kept = None


@pytest.fixture
def fresh_process(monkeypatch):
    """Room reads from a state of their own (kept files, machine readings,
    cgroup paths), closed at the end; the state before is put back."""
    monkeypatch.setattr(rs, "_kept", None)
    yield
    _forget_process()


def _opens(monkeypatch):
    """The paths os.open is asked for, in order."""
    opened, real = [], os.open
    monkeypatch.setattr(os, "open", lambda path, *args, **kw: (
        opened.append(path) or real(path, *args, **kw)))
    return opened


def _until_equal(path):
    # a /proc file can change between two reads, so a few tries
    return any(rs._read(path) == Path(path).read_text() for _ in range(20))


def test_kept_reads_are_fresh(tmp_path, fresh_process):
    for path in ("/proc/self/statm", "/proc/meminfo"):
        assert _until_equal(path)
    # a file rewritten between reads, longer than one pread and shorter again
    f = tmp_path / "f"
    for text in ("1000\n", "x" * 20000 + "\n", "max\n", ""):
        f.write_text(text)
        assert rs._read(str(f)) == f.read_text() == text
    # the resident set the kept statm reads follows memory the process touches
    page = os.sysconf("SC_PAGE_SIZE")
    before = int(rs._read("/proc/self/statm").split()[1])
    block = bytearray(64 * 2**20)
    block[::page] = b"\x01" * len(block[::page])
    after = int(rs._read("/proc/self/statm").split()[1])
    assert after - before >= 0.9 * len(block) / page
    del block


def test_kept_files_open_once_per_process(fresh_process, monkeypatch):
    opened = _opens(monkeypatch)
    for _ in range(200):
        rs.available_bytes()
    assert opened and max(opened.count(p) for p in opened) == 1, opened
    assert {"/proc/self/statm", "/proc/meminfo", "/proc/self/cgroup"} <= set(opened)
    # a forked child has a pid of its own: every file is opened again, and a
    # missing one is tried again too
    first = list(opened)
    pid = os.getpid()
    monkeypatch.setattr(os, "getpid", lambda: pid + 1)
    rs.available_bytes()
    assert opened[len(first):] == first
    monkeypatch.setattr(os, "getpid", lambda: pid)
    rs.available_bytes()
    assert opened[2 * len(first):] == first


def test_a_missing_file_is_remembered(tmp_path, fresh_process, monkeypatch):
    opened = _opens(monkeypatch)
    path = str(tmp_path / "missing")
    for _ in range(3):
        with pytest.raises(OSError):
            rs._read(path)
    assert opened == [path]


# per cgroup version: the limit, usage and stat files, the stat key of the
# page cache the kernel reclaims, what a cgroup without a limit reads, and
# the /proc/self/cgroup text that puts the process in a given cgroup
FAKE_CGROUPS = {
    2: (("memory.max", "memory.current", "memory.stat"), "inactive_file", "max",
        "0::{}\n"),
    1: (("memory.limit_in_bytes", "memory.usage_in_bytes", "memory.stat"),
        "total_inactive_file", "9223372036854771712",
        "12:pids:/\n4:memory:{}\n1:name=systemd:/\n"),
}


def _fake_cgroups(tmp_path, monkeypatch, version, own, tree):
    """A v2 or v1 memory mount under tmp_path whose cgroups `tree` maps
    (path below the mount -> (limit or None, usage, reclaimable page cache),
    or None for a cgroup without its files), and a /proc/self/cgroup that
    puts the process in `own`."""
    names, key, unlimited, text = FAKE_CGROUPS[version]
    mount = tmp_path / "mount"
    for where, reading in tree.items():
        d = mount / where
        d.mkdir(parents=True, exist_ok=True)
        if reading is not None:
            limit, usage, cache = reading
            (d / names[0]).write_text(f"{unlimited if limit is None else limit}\n")
            (d / names[1]).write_text(f"{usage}\n")
            (d / names[2]).write_text(f"cache {cache + 7}\n{key} {cache}\n")
    files = tuple(str(mount / n) for n in names) + (key,)
    none = (str(tmp_path / "none"),) * 3 + (key,)
    monkeypatch.setattr(rs, "_CGROUP_FILES", (files, none) if version == 2 else (none, files))
    real = rs._read
    monkeypatch.setattr(rs, "_read", lambda path: (
        text.format(own) if path == "/proc/self/cgroup" else real(path)))


FREE = (None, 5, 0)   # a cgroup without a limit
CGROUP_CASES = {
    # the limit on the process's own cgroup binds
    "own": ({"": FREE, "a": FREE, "a/b": (10**6, 600000, 100000)}, 500000),
    # the limit on an ancestor binds, the own cgroup has none
    "ancestor": ({"": FREE, "a": (2 * 10**6, 1800000, 50000), "a/b": FREE}, 250000),
    # the least of the two
    "both": ({"": FREE, "a": (2 * 10**6, 1800000, 50000),
              "a/b": (10**6, 600000, 100000)}, 250000),
    # the root's limit counts too
    "root": ({"": (10**6, 900000, 0), "a": FREE, "a/b": FREE}, 100000),
    "no limit": ({"": FREE, "a": FREE, "a/b": FREE}, float("inf")),
    # no files in the own cgroup or its parent: the root is read
    "missing file": ({"": (10**6, 700000, 0), "a/b": None}, 300000),
    # the own cgroup is not under the mount at all, as in a v1 container
    # without a cgroup namespace, whose mount is its own cgroup
    "not mounted": ({"": (10**6, 700000, 0)}, 300000),
}


@pytest.mark.parametrize("version", [2, 1])
@pytest.mark.parametrize("case", sorted(CGROUP_CASES))
def test_the_room_is_the_least_over_the_own_cgroup_and_its_ancestors(
        case, version, tmp_path, fresh_process, monkeypatch):
    tree, room = CGROUP_CASES[case]
    _fake_cgroups(tmp_path, monkeypatch, version, "/a/b", tree)
    assert rs._cgroup_room(2**60) == room
    if room == float("inf"):
        return
    assert rs.available_bytes() == room
    # a resolution reads that room, and the first step whose elimination
    # outgrows it is refused before it allocates more
    R3 = make_ring(101, 3, identity_form(3))
    res = MinimalFreeResolution(random_module(R3, 2, 2, seed=5))
    with pytest.raises(NotMaterialized, match=(
            r"resolution step \d+: a \d+ x \d+ elimination .* outgrows the "
            rf"{room / 2**10:.1f} KiB the process can get")):
        res.extend(20)
    assert 0 < res.head < 20


def test_cgroup_usage_is_read_only_under_a_limit(tmp_path, fresh_process, monkeypatch):
    # a limit at or above the RAM binds nothing, so its usage is not read
    _fake_cgroups(tmp_path, monkeypatch, 2, "/a/b", CGROUP_CASES["own"][0])
    opened = _opens(monkeypatch)
    assert rs._cgroup_room(10**6) == float("inf")
    assert opened and not [p for p in opened if os.path.basename(p) in (
        "memory.current", "memory.stat")]


def test_betti_match_geometric_expansion(k3, R3):
    assert resolve(k3, 20).betti(20) == expand_rational([1], R3.e, 20)


def test_syzygy_module_dims(k3, R3):
    dims = k_syzygy_dims(R3, 100)[:4]
    for i in (1, 2, 3):
        assert syzygy(k3, i).dim == dims[i]


def negative_syzygy(M, i):
    """M_{-i} = (the i-th syzygy of M*)*, for m^2 M = 0: the oracle of the
    negative syzygies pinned below."""
    if radical_square_rows(M)[0].shape[0]:
        raise RadicalSquareNonzero("negative syzygies need m^2 M = 0")
    return matlis_dual(syzygy(matlis_dual(M), i))


def test_negative_syzygy_inverts_syzygy(k3, R3):
    N = negative_syzygy(k3, 1)
    back = syzygy(N, 1)
    assert back.dim == k3.dim
    # and its minimal number of generators matches k
    from gorlab import nu
    assert nu(back) == 1


def test_lift_chain_map_identity(R3):
    M = random_module(R3, 2, 2, seed=8)
    ident = ModuleMap(M, M, np.eye(M.dim, dtype=np.int64))
    lift = lift_chain_map(ident, 4)
    res = resolve(M, 4)
    for i in range(5):
        F = _kmat(lift[i].dense(), R3.basis_reg, 101)
        b = res.betti(4)[i]
        assert F.shape == (b * R3.dim, b * R3.dim)
        # lifting the identity gives an isomorphism in every degree
        assert rank_array(F, 101) == b * R3.dim


def test_lifts_commute_with_the_differentials(R3):
    # the lifts are solved on the generators alone, read off the entry
    # arrays; on the full k-matrices del^B f_i = f_{i-1} del^A must hold
    p, D = R3.p, R3.dim
    for seed in range(3):
        M = random_module(R3, 2, 1 + seed, seed=40 + seed)
        phi = submodule(M, *radical_rows(M))[1]
        lift = lift_chain_map(phi, 4)
        ra, rb = resolve(phi.source, 4), resolve(M, 4)
        kmat = [_kmat(f.dense(), R3.basis_reg, p) for f in lift]
        assert np.array_equal(rb.cover_matrix @ kmat[0] % p,
                              phi.matrix @ ra.cover_matrix % p)
        for i in range(1, len(lift)):
            dA = _kmat(ra.diff(i), R3.basis_reg, p)
            dB = _kmat(rb.diff(i), R3.basis_reg, p)
            assert np.array_equal(dB @ kmat[i] % p, kmat[i - 1] @ dA % p)
        assert len(lift) == 5 and lift[0].shape[2] == D


def test_a_resolution_extends_after_its_module_is_gone():
    # a resolution keeps only its module's dimension and whether m^2 acts
    # on it, so it extends and certifies its tail with the module freed
    R = make_ring(101, 3, identity_form(3))
    twin = resolve(random_module(R, 2, 2, seed=8), 12)
    res = resolve(random_module(R, 2, 2, seed=8), 1)
    gc.collect()
    assert res.betti(12) == twin.betti(12) and res.junction() == twin.junction()
    assert res.syzygy_dims() == twin.syzygy_dims()


@st.composite
def module_maps(draw):
    """A random map of small modules at p in {2, 3, 101}: the identity of
    M, or the inclusion of, or the projection by, the submodule spanned by
    random vectors of M."""
    p = draw(st.sampled_from((2, 3, 101)))
    e = draw(st.sampled_from((2, 3)))
    seed = draw(st.integers(0, 10**6))
    ring = make_ring(p, e, identity_form(e))
    M = random_module(ring, draw(st.integers(1, 3)), draw(st.integers(0, 3)), seed)
    kind = draw(st.sampled_from(("identity", "inclusion", "projection")))
    if kind == "identity":
        return ModuleMap(M, M, np.eye(M.dim, dtype=np.int64))
    V = np.random.default_rng(seed).integers(0, p, size=(draw(st.integers(1, 2)), M.dim))
    U, piv = span_closure(M, V)
    return (submodule if kind == "inclusion" else quotient)(M, U, piv)[1]


@settings(max_examples=25, deadline=None)
@given(module_maps())
def test_lifts_commute_on_random_maps(phi):
    # each degree's lift is the kernel of [-Y | KB] on triplets; on the full
    # k-matrices del^B f_i = f_{i-1} del^A, with the cover as del_0 and phi
    # as f_{-1}, and the identity lifts to isomorphisms
    ring = phi.source.ring
    p = ring.p
    lift = lift_chain_map(phi, 3)
    ra, rb = resolve(phi.source, 3, min_head=3), resolve(phi.target, 3, min_head=3)
    assert len(lift) == min(3, ra.head, rb.head) + 1
    kmat = [_kmat(f.dense(), ring.basis_reg, p) for f in lift]
    assert np.array_equal(rb.cover_matrix @ kmat[0] % p,
                          phi.matrix @ ra.cover_matrix % p)
    for i in range(1, len(lift)):
        dA = _kmat(ra.diff(i), ring.basis_reg, p)
        dB = _kmat(rb.diff(i), ring.basis_reg, p)
        assert np.array_equal(dB @ kmat[i] % p, kmat[i - 1] @ dA % p)
    for i, (f, F) in enumerate(zip(lift, kmat)):
        assert f.shape == (ra.betti_head[i], rb.betti_head[i], ring.dim)
        assert np.all((f.val > 0) & (f.val < p))
        if phi.source is phi.target:
            assert rank_array(F, p) == F.shape[0] == F.shape[1]


def test_lift_refused_by_a_tiny_room_before_its_elimination(monkeypatch):
    # the lift's joins and elimination check against the room its caller
    # passes: a room too small for degree 0's elimination refuses it,
    # naming the degree, before any elimination runs, and a room that fits
    # gives the lifts an unlimited room gives
    R = make_ring(101, 3, identity_form(3))
    M = random_module(R, 2, 2, seed=8)
    phi = submodule(M, *radical_rows(M))[1]
    want = lift_chain_map(phi, 3)
    eliminations = []
    real = linalg._eliminate

    def spy(*args):
        eliminations.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    with pytest.raises(NotMaterialized, match=(
            r"^lift degree 0: a \d+ x \d+ elimination of \d+ entries outgrows "
            r"the 0.1 KiB the process can get")):
        lift_chain_map(phi, 3, 100)
    assert eliminations == []
    got = lift_chain_map(phi, 3, 2**30)
    assert len(got) == len(want) and all(
        g.shape == w.shape and all(np.array_equal(x, y) for x, y in zip(g[:4], w[:4]))
        for g, w in zip(got, want))


def test_kmat_triplets_is_block_regular_representation(R3):
    G = np.zeros((1, 1, 5), dtype=np.int64)
    G[0, 0, 1] = 1  # multiplication by x_1 on R
    K = linalg.dense(*rs.kmat_triplets(_stored(G), R3.basis_reg, R3.p))
    v = np.zeros(5, dtype=np.int64)
    v[0] = 1
    assert np.array_equal(K @ v % 101, R3.x(1).coeffs % 101)


def _stored(G):
    """The nonzeros of the entry array G in row-major order, as a
    resolution stores them."""
    gen, target, slot = np.nonzero(G)
    return Nonzeros(gen, target, slot, G[gen, target, slot], G.shape)


@st.composite
def kmat_inputs(draw):
    """(G, ops, p) for `kmat_triplets`: a random sparse entry array and
    random ops, or an edge case: an empty G, op slots that are all zero,
    s = 0 or t = 0, or two slots of one entry of G that cancel mod p on
    the whole tile."""
    p = draw(st.sampled_from((2, 3, 101, 65521)))
    kind = draw(st.sampled_from(("random", "random", "empty G", "zero slots",
                                 "s = 0", "t = 0", "cancel")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, j, C = (draw(st.integers(1, 4)) for _ in range(3))
    t, s = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    t, s = (0 if kind == "t = 0" else t), (0 if kind == "s = 0" else s)
    density = draw(st.sampled_from((0.1, 0.3, 0.7)))
    G = rng.integers(1, p, size=(a, j, C)) * (rng.random((a, j, C)) < density)
    ops = rng.integers(1, p, size=(C, t, s)) * (rng.random((C, t, s)) < density)
    if kind == "empty G":
        G[:] = 0
    elif kind == "zero slots":
        ops[rng.random(C) < 0.5] = 0
    elif kind == "cancel" and C >= 2:
        # slots 0 and 1 act alike, and entry (0, 0) of G takes v and -v on
        # them: the tile at target copy 0 and source copy 0 sums to zero
        ops[1] = ops[0]
        G[0, 0] = 0
        G[0, 0, :2] = (1, p - 1)
    return G.astype(np.int64), ops.astype(np.int64), p


@settings(max_examples=200, deadline=None)
@given(kmat_inputs())
def test_kmat_triplets_matches_the_dense_kmat(case):
    # against the dense reference, for ops of any shape (C, t, s)
    G, ops, p = case
    want = _kmat(G, ops, p)
    rows, cols, vals, shape = rs.kmat_triplets(_stored(G), ops, p)
    assert shape == want.shape
    for x in (rows, cols, vals):
        assert x.dtype == np.int64 and x.shape == vals.shape
    # row-major, distinct positions, no zeros: the cancelled tile is absent
    lin = rows * max(shape[1], 1) + cols
    assert np.all(np.diff(lin) > 0)
    assert vals.size == 0 or (vals.min() >= 1 and vals.max() < p)
    assert np.array_equal(linalg.dense(rows, cols, vals, shape), want)


@st.composite
def join_inputs(draw):
    """(A, B, p): two random sparse matrices whose product `join_sum` forms
    on their shared index, or an edge case: one side empty, no nonzero
    column of A meeting a nonzero row of B, or two terms of an entry of the
    product that cancel mod p."""
    p = draw(st.sampled_from((2, 101)))
    kind = draw(st.sampled_from(("random", "random", "empty A", "empty B",
                                 "no partner", "cancel")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, k, n = (draw(st.integers(1, 5)) for _ in range(3))
    density = draw(st.sampled_from((0.2, 0.5, 0.9)))
    A = rng.integers(1, p, size=(m, k)) * (rng.random((m, k)) < density)
    B = rng.integers(1, p, size=(k, n)) * (rng.random((k, n)) < density)
    if kind == "empty A":
        A[:] = 0
    elif kind == "empty B":
        B[:] = 0
    elif kind == "no partner":
        A[:, ::2] = 0
        B[1::2] = 0
    elif kind == "cancel" and k >= 2:
        # A[0, :2] = (1, 1) and B[:2, 0] = (v, -v): entry (0, 0) sums to zero
        A[0, :2] = 1
        B[:2, 0] = (1, p - 1)
    return A.astype(np.int64), B.astype(np.int64), p


@settings(max_examples=200, deadline=None)
@given(join_inputs(), st.integers(0, 2**32 - 1))
def test_join_sum_matches_the_dense_product(case, seed):
    # A's entries keyed by their column, in any order, B's by their row, in
    # increasing rows and any order within a row; each pair sits at row n +
    # column of the product
    A, B, p = case
    m, n = A.shape[0], B.shape[1]
    rng = np.random.default_rng(seed)
    ar, ac = np.nonzero(A)
    br, bc = np.nonzero(B)
    a, b = rng.permutation(len(ar)), rng.permutation(len(br))
    b = b[np.argsort(br[b], kind="stable")]
    ar, ac, br, bc = ar[a], ac[a], br[b], bc[b]
    args = (ac, ar * n, A[ar, ac], br, bc, B[br, bc], p)
    pos, vals = rs.join_sum(*args)
    assert pos.dtype == vals.dtype == np.int64
    assert np.all(np.diff(pos) > 0)
    assert vals.size == 0 or (vals.min() >= 1 and vals.max() < p)
    got = linalg.dense(pos // n, pos % n, vals, (m, n))
    assert np.array_equal(got, A @ B % p)
    # the room counts every input entry and every pair at ENTRY_BYTES: one
    # byte short of the inputs, the join is refused before it looks up a
    # key; one byte short of the inputs and pairs, before it repeats an entry
    # of A into its pairs
    entries = len(ar) + len(br)
    pairs = int(np.count_nonzero(A, axis=0) @ np.count_nonzero(B, axis=1))
    short = [(entries, "", ("searchsorted", "repeat"))] if entries else []
    short += [(entries + pairs, f" into {pairs} pairs", ("repeat",))] if pairs else []
    for units, what, unseen in short:
        room, calls = linalg.ENTRY_BYTES * units - 1, []
        with pytest.MonkeyPatch.context() as mp:
            for name in ("searchsorted", "repeat"):
                mp.setattr(rs.np, name, lambda *a, f=getattr(np, name), **k:
                           calls.append(f.__name__) or f(*a, **k))
            with pytest.raises(NotMaterialized, match=(
                    f"a join of {len(ar)} by {len(br)} entries{what} outgrows "
                    f"the {room / 2**10:.1f} KiB")):
                rs.join_sum(*args, room=room)
        assert not set(calls) & set(unseen)
    pos2, vals2 = rs.join_sum(*args, room=linalg.ENTRY_BYTES * (entries + pairs))
    assert np.array_equal(pos2, pos) and np.array_equal(vals2, vals)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 4)), st.sampled_from((3, 5, 101)),
       st.integers(0, 10**6))
def test_linear_part_under_a_random_form(e, p, seed):
    # L[j, a e + g] = sum_h form[g, h] G[a, j, 1 + h] mod p: a random form
    # sums several terms into one entry, which the identity and hyperbolic
    # forms never do; the entries of G off the x-slots are ignored
    rng = np.random.default_rng(seed)
    form = random_nondegenerate_form(e, p, rng)
    ring = make_ring(p, e, form)
    a, j = (int(x) for x in rng.integers(0, 5, size=2))
    G = rng.integers(0, p, size=(a, j, ring.dim)) * (rng.random((a, j, ring.dim)) < 0.4)
    want = np.einsum("gh,ajh->jag", form, G[:, :, 1:e + 1]) % p
    rows, cols, vals, shape = rs._linear_part(ring, _stored(G.astype(np.int64)))
    assert shape == (j, a * e)
    assert vals.size == 0 or vals.min() >= 1
    assert np.array_equal(linalg.dense(rows, cols, vals, shape),
                          want.reshape(j, a * e))


def _generic_step(ring, A):
    """Oracle for one resolution step: the kernel of the k-matrix A by
    generic elimination, its pivots, nu and nu_m.  nu_m = dim m*K is the rank
    of the images of K under x_1..x_e, w acting blockwise on the free
    module."""
    p, D = ring.p, ring.dim
    R, piv, nk = rref_array(kernel_array(A, p), p)
    K = R[:nk]
    blocks = np.eye(A.shape[1] // D, dtype=np.int64)
    mK = np.concatenate([K @ np.kron(blocks, ring.basis_reg[c]).T % p
                         for c in range(1, D)])
    nu_m = rank_array(mK, p)
    return K, list(piv), nk - nu_m, nu_m


def _form_weighted_w(ring, K, kpiv):
    """Oracle for nu(m M_i) and the kernel rows it drops: the rref of the
    w-coefficients of x_g * z = form[g] . z[x-slots] w, for the rows z of
    the kernel basis K (g-major), read in coordinates w.r.t. that basis,
    whose pivots are kpiv, on its w-pivot rows.  The form weights every
    image, unlike the step's slices."""
    e, D, p = ring.e, ring.dim, ring.p
    n = K.shape[0]
    K3 = K.reshape(n, K.shape[1] // D, D)
    img = np.einsum("njc,gc->gnj", K3[:, :, 1:e + 1], ring.form) % p
    wcols = [t for t, c in enumerate(kpiv) if c % D == D - 1]
    W = img.reshape(e * n, K3.shape[1])[:, [kpiv[t] // D for t in wcols]]
    _, wpiv, rank = rref_array(W, p)
    return rank, {wcols[t] for t in wpiv}


def _step_drop(res, s, kpiv):
    """(nu(m M_{s+1}), the rows of M_{s+1}'s rref basis, whose pivots are
    kpiv, that step s + 1 left out of del_{s+1}), read off the resolution."""
    G = res.diff(s + 1)
    # the last differential of a finite resolution has no rows, so the
    # width of the reshape is given, not inferred
    width = G.shape[1] * G.shape[2]
    kept = {int(c) for c in np.argmax(G.reshape(len(G), width) != 0, axis=1)}
    return res.nu_m[s], {t for t, c in enumerate(kpiv) if c not in kept}


@st.composite
def small_modules(draw):
    e = draw(st.sampled_from((2, 3, 4)))
    p = draw(st.sampled_from((3, 101)))
    seed = draw(st.integers(0, 10**6))
    form = draw(st.sampled_from((
        identity_form(e), hyperbolic_form(e),
        random_nondegenerate_form(e, p, np.random.default_rng(seed)))))
    ring = make_ring(p, e, form)
    return random_module(ring, draw(st.integers(1, 3)),
                         draw(st.integers(1, 3)), seed)


def _cover_or_kmat(res, s):
    """k-matrix of del_s (s >= 1) or the cover matrix (s = 0)."""
    if s == 0:
        return res.cover_matrix
    return _kmat(res.diff(s), res.ring.basis_reg, res.ring.p)


@settings(max_examples=30, deadline=None)
@given(small_modules())
@example(FiniteModule.free(make_ring(101, 3, identity_form(3)), 2))
def test_graded_step_matches_generic_kernel(M):
    # every step past the cover works on ker(L) + wF alone; the syzygy basis
    # read off the span of the differential it wrote is the rref of the
    # generic k-matrix kernel.  Every step, the cover's included, reads
    # nu(m M_i) off x-slot slices, mostly off their leading entries alone;
    # eliminating the form-weighted w-images of the generic kernel drops
    # the same kernel rows
    res = MinimalFreeResolution(M)
    res.extend(4)
    for s in range(res.head):
        K, piv, nu, nu_m = _generic_step(M.ring, _cover_or_kmat(res, s))
        assert np.array_equal(res.syzygy(s + 1)[1].matrix.T, K)
        assert (res.betti_head[s + 1], res.nu_m[s]) == (nu, nu_m)
        assert res.syzygy_dims()[s + 1] == len(piv)
        assert _step_drop(res, s, piv) == _form_weighted_w(M.ring, K, piv)


def _w_unit_rows(G):
    """Mask of the rows of an entry array G whose one nonzero entry is a 1
    on a w-slot."""
    return (np.count_nonzero(G, axis=(1, 2)) == 1) & (G[:, :, -1] == 1).any(axis=1)


@settings(max_examples=30, deadline=None)
@given(small_modules())
def test_graded_rows_are_x_only_or_w_units(M):
    # a graded step writes the rows of rref(ker L) into the x-slots and the
    # w-unit rows it keeps as they are, and nothing else
    res = MinimalFreeResolution(M)
    res.extend(4)
    for i in range(2, res.head + 1):
        G = res.diff(i)
        x_only = G.any(axis=(1, 2)) & ~G[:, :, [0, -1]].any(axis=(1, 2))
        assert (x_only | _w_unit_rows(G)).all()


@settings(max_examples=30, deadline=None)
@given(small_modules())
def test_w_unit_rows_are_the_split_copies_of_k(M):
    # for i >= 2, M_i contains wF_{i-1}, its socle: k splits off M_i exactly
    # when m M_i misses a w-unit, which the step then keeps as a generator.
    # is_koszul keeps its own route, so this is a cross-check only
    res = MinimalFreeResolution(M)
    res.extend(4)
    for i in range(2, res.head + 1):
        assert _w_unit_rows(res.diff(i)).any() == (
            split_off_k_witness(res.syzygy(i)[0]) is not None)


# steps whose slices lead at fewer columns than they span, so the step
# eliminates them, and only them: the cover step of draw r2 of the
# benchmark's betti_verdicts batch (the leading entries miss a column the
# span has), and of R/m^2, whose kernel wR has no x-slot entries at all
FALLBACK_STEPS = [("bv_r2", 1, 2), ("rm2", 1, 0)]


# `linalg._SMALL_ENTRIES` values under which every step builds L with numpy
# (`_linear_part`) and kernel_rref converts every input with numpy, or both
# work on Python ints (`_small_linear_part`, the plain route), and the
# threshold itself, under which the L of a small del_i can still hand
# kernel_rref more entries than the threshold (L has up to e entries per
# nonzero of G).  Every setting runs the one step body
ARRAY_ROUTE, PLAIN_ROUTE, BY_SIZE = -1, 10**6, linalg._SMALL_ENTRIES


def _resolved_on_route(M, route, steps):
    real = linalg._SMALL_ENTRIES
    linalg._SMALL_ENTRIES = route
    try:
        res = MinimalFreeResolution(M)
        res.extend(steps)
    finally:
        linalg._SMALL_ENTRIES = real
    return res


@st.composite
def route_modules(draw):
    """Random modules over p in {2, 3, 101} and e in {2, 3, 4}, with the
    identity form or a random nondegenerate symmetric one.  The form is
    drawn a bounded number of times, its diagonal too: over GF(2) a
    symmetric form with a zero diagonal is alternating, hence degenerate in
    odd e."""
    p = draw(st.sampled_from((2, 3, 101)))
    e = draw(st.sampled_from((2, 3, 4)))
    seed = draw(st.integers(0, 2**31 - 1))
    form = identity_form(e)
    if draw(st.booleans()):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            form = np.triu(rng.integers(0, p, size=(e, e)))
            form = form + np.triu(form, 1).T
            if rank_array(form, p) == e:
                break
        else:
            reject()
    ring = make_ring(p, e, form)
    return random_module(ring, draw(st.integers(1, 2)), draw(st.integers(0, 3)), seed)


def _routes_agree(M):
    """Each step, the cover step's included, writes the same differential,
    Betti number and nu(m M_i) whichever builder made its L and whichever
    route kernel_rref converted on, and every array it stores is int64."""
    arrays = _resolved_on_route(M, ARRAY_ROUTE, 4)
    for route in (PLAIN_ROUTE, BY_SIZE):
        res = _resolved_on_route(M, route, 4)
        assert (res.betti_head, res.nu_m, res.finite) == (
            arrays.betti_head, arrays.nu_m, arrays.finite)
        assert len(res.nonzeros) == len(arrays.nonzeros)
        for x, y in zip(res.nonzeros, arrays.nonzeros):
            assert x.shape == y.shape
            for u, v in zip(x[:4], y[:4]):
                assert u.dtype == v.dtype == np.int64 and np.array_equal(u, v)


@settings(max_examples=100, deadline=None)
@given(route_modules())
def test_step_routes_agree(M):
    _routes_agree(M)


# steps that eliminate their slices (FALLBACK_STEPS), a free module, and
# the residue field over GF(3)
@pytest.mark.parametrize("name", ["bv_r2", "rm2", "free", "k2"])
def test_step_routes_agree_on_pinned_modules(name):
    _routes_agree(_pinned_module(name) if name != "free" else
                  FiniteModule.free(make_ring(101, 3, identity_form(3)), 2))


def test_large_merge_step_agrees_on_every_route(R3):
    # step 2 of this sum merges the rows of ker L with the w-unit rows (it
    # keeps a w-unit row, which the early return never does) on a del_1 of
    # 87 nonzeros, above the threshold, so its L comes from `_linear_part`
    # and its kernel as arrays; the routes agree, and the step matches the
    # generic kernel and the form-weighted w-images
    M = direct_sum(random_module(R3, 6, 6, seed=5), random_module(R3, 3, 1, seed=0))[0]
    _routes_agree(M)
    res = _resolved_on_route(M, BY_SIZE, 2)
    assert len(res.nonzeros[0].val) == 87 > linalg._SMALL_ENTRIES
    assert res.nu_m[1] < res.betti_head[1]
    K, piv, nu, nu_m = _generic_step(R3, _cover_or_kmat(res, 1))
    assert np.array_equal(res.syzygy(2)[1].matrix.T, K)
    assert (res.betti_head[2], res.nu_m[1]) == (nu, nu_m)
    assert _step_drop(res, 1, piv) == _form_weighted_w(R3, K, piv)


@pytest.mark.parametrize("name, step, nu_m", FALLBACK_STEPS)
def test_step_eliminates_when_leading_entries_fall_short(
        name, step, nu_m, monkeypatch):
    M = _pinned_module(name)
    res = MinimalFreeResolution(M)
    calls = []
    real = rs.linalg.kernel_rref

    def spy(*args):
        if sys._getframe(1).f_code.co_name == "_slice_pivots":
            calls.append(res.head + 1)
        return real(*args)

    monkeypatch.setattr(rs.linalg, "kernel_rref", spy)
    # the two steps after it read their ranks off the leading entries
    res.extend(step + 2)
    assert res.head == step + 2 and calls == [step]
    assert res.nu_m[step - 1] == nu_m
    K, piv = _generic_step(M.ring, _cover_or_kmat(res, step - 1))[:2]
    assert _step_drop(res, step - 1, piv) == _form_weighted_w(M.ring, K, piv)


@settings(max_examples=30, deadline=None)
@given(small_modules(), st.integers(0, 2))
def test_canonical_kernels_match_two_eliminations(M, i):
    # the cover kernel and the socle come from one elimination each; the
    # oracle eliminates twice: a kernel basis, then the rref of its span
    N = syzygy(M, i)
    if N.dim == 0:
        return
    p = N.ring.p
    res = MinimalFreeResolution(N)
    C = res.cover_matrix
    ri, ci = np.nonzero(C)
    kr, kc, kv, pivots = kernel_rref(ri, ci, C[ri, ci], C.shape, p)
    rows = np.zeros((len(pivots), C.shape[1]), dtype=np.int64)
    rows[kr, kc] = kv
    K, kpiv = row_space(kernel_array(C, p), p)
    assert np.array_equal(rows, K) and list(pivots) == list(kpiv)
    stacked = np.concatenate(list(N.actions) + [N.action_w], axis=0)
    S, spiv = socle_rows(N)
    K, kpiv = row_space(kernel_array(stacked, p), p)
    assert np.array_equal(S, K) and list(spiv) == list(kpiv)


def test_resolution_holds_only_its_differentials(R3):
    # the syzygy bases are rebuilt on demand, never kept: the only arrays a
    # resolution holds are its differentials' nonzeros and the cover matrix
    M = random_module(R3, 2, 2, seed=5)
    res = resolve(M, 6)
    res.extend(6)
    syzygy(M, 3)

    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (list, tuple)):
            for x in obj:
                yield from arrays(x)
        # the module it resolves is its input, not its state
        elif hasattr(obj, "__dict__") and not isinstance(obj, FiniteModule):
            yield from arrays(list(vars(obj).values()))

    held = list(arrays(list(vars(res).values())))
    assert res.head >= 6
    stored = [res.cover_matrix] + [x for G in res.nonzeros for x in G[:4]]
    assert sorted(map(id, held)) == sorted(map(id, stored))


# sha256 of the README module's del_1..del_8, each its shape's repr and its
# int64 bytes: the dense arrays the resolution stored before it held their
# nonzeros (25.4 MiB for 2876 nonzeros)
README_DIFFS_SHA = "0804ae1acdadb8eb64aa44096daa4824006d06653ae3b4fc90296ba20bb6171d"


def test_readme_differentials_are_held_as_their_nonzeros(R3):
    res = resolve(random_module(R3, 2, 2, seed=5), 8, min_head=8)
    assert res.betti_head == [2, 2, 4, 10, 26, 68, 178, 466, 1220]
    assert sum(x.nbytes for G in res.nonzeros for x in G[:4]) < 2**20
    h = hashlib.sha256()
    for i in range(1, 9):
        G = res.diff(i)
        assert G.dtype == np.int64 and G.shape == res.nonzeros[i - 1].shape
        h.update(repr(G.shape).encode())
        h.update(G.tobytes())
    assert h.hexdigest() == README_DIFFS_SHA


def _certify_corrupted_tail():
    """Certify a fresh resolution whose nu(m M_{J+1}) past the junction J
    has been corrupted."""
    R = make_ring(101, 3, identity_form(3))
    res = MinimalFreeResolution(random_module(R, 2, 2, seed=33))
    J = res.junction()
    res.extend(J + TAIL_OVERLAP)
    res.nu_m[J] += 1
    res.tail_certificate()


def test_corrupted_tail_raises_certificate_error():
    with pytest.raises(CertificateError):
        _certify_corrupted_tail()


def _run_under_python_O(code):
    """Run `code` in `python -O` beside this file; assert it exits 0."""
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], cwd=here, capture_output=True,
        text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))))
    assert proc.returncode == 0, proc.stderr


def test_corrupted_tail_raises_under_python_O():
    # the certificate checks must not be asserts that -O strips
    _run_under_python_O("import test_resolution as t\n"
                        "try:\n"
                        "    t._certify_corrupted_tail()\n"
                        "except t.CertificateError:\n"
                        "    raise SystemExit(0)\n"
                        "raise SystemExit('no CertificateError')\n")


# corruption -> the CertificateError message it must raise
CORRUPTIONS = {
    "cover": "cover not minimal",
    "lescot": "Lescot formula fails past the junction",
    "lift": "no lift in degree 1",
    "syzygy": "del_2 spans .* not dim M_2",
}


def _corrupt(kind):
    """Resolve from deliberately corrupted data.  The cover gets a second
    copy of its first generator, so its kernel leaves the radical; the
    Betti number after the junction J grows by one before the tail is
    certified; the lift's target, a twin of its source, loses its first
    differential; and a stored del_2 loses a row, a minimal generator of
    M_2."""
    R = make_ring(101, 3, identity_form(3))
    M = random_module(R, 2, 2, seed=33)
    res = MinimalFreeResolution(M)
    if kind == "cover":
        res.cover_matrix = np.concatenate(
            [res.cover_matrix, res.cover_matrix[:, :R.dim]], axis=1)
        res.betti_head[0] += 1
        res.extend(1)
    elif kind == "lescot":
        J = res.junction()
        res.extend(J + TAIL_OVERLAP)
        res.betti_head[J + 1] += 1
        res.tail_certificate()
    elif kind == "lift":
        twin = random_module(R, 2, 2, seed=33)
        resolve(twin, 2, min_head=2).nonzeros[0].val[:] = 0
        lift_chain_map(ModuleMap(M, twin, np.eye(M.dim, dtype=np.int64)), 2)
    else:
        res.extend(2)
        G = res.nonzeros[1]
        rest = G.gen > 0
        res.nonzeros[1] = Nonzeros(G.gen[rest] - 1, G.target[rest], G.slot[rest],
                                   G.val[rest], (G.shape[0] - 1, *G.shape[1:]))
        res.syzygy(2)


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_corrupted_resolution_raises_certificate_error(kind):
    with pytest.raises(CertificateError, match=CORRUPTIONS[kind]):
        _corrupt(kind)


def test_corrupted_resolution_raises_under_python_O():
    _run_under_python_O("import test_resolution as t\n"
                        "for kind in t.CORRUPTIONS:\n"
                        "    try:\n"
                        "        t._corrupt(kind)\n"
                        "    except t.CertificateError:\n"
                        "        continue\n"
                        "    raise SystemExit('no CertificateError: ' + kind)\n")


def test_diff_outside_the_head_is_not_materialized(R3):
    res = resolve(random_module(R3, 2, 2, seed=5), 3, min_head=3)
    assert res.head == 3
    for i in (0, res.head + 1, -1):
        with pytest.raises(NotMaterialized, match=f"differential {i} "):
            res.diff(i)


def _module_sha(modules) -> str:
    """sha256 of the action matrices of each module, shapes included."""
    h = hashlib.sha256()
    for S in modules:
        h.update(repr(S.all_ops.shape).encode())
        h.update(np.ascontiguousarray(S.all_ops).tobytes())
    return h.hexdigest()


def _pinned_module(name):
    R3 = make_ring(101, 3, identity_form(3))
    R2 = make_ring(3, 2, hyperbolic_form(2))
    R4 = make_ring(101, 4, hyperbolic_form(4))
    return {
        "m1": lambda: random_module(R3, 2, 2, seed=5),
        "rx": lambda: cyclic_module(R3, [R3.x(1)])[0],
        "rm2": lambda: cyclic_module(R3, [R3.w()])[0],
        "r3": lambda: random_module(R3, 3, 1, seed=0),
        "bv_r2": lambda: random_module(R3, 2, 1, seed=1647245074468445676),
        "k2": lambda: FiniteModule.residue_field(R2),
        "r2": lambda: random_module(R2, 3, 2, seed=1),
        "r2b": lambda: random_module(R2, 2, 1, seed=1),
        "r4": lambda: random_module(R4, 2, 2, seed=7),
        "free": lambda: FiniteModule.free(R3, 1),
    }[name]()


# sha256 of the syzygies M_1..M_4 and of the negative syzygies M_{-1}..M_{-3}
# (m^2 M = 0 only), recorded while every syzygy basis was cached
PINNED_SYZYGIES = [
    ("m1",
     "b7d4708eb6ca265eba2d336ef99fa488a79ee7e5d58d5dd62d4183710c1641ec",
     "fa5d6037c5db08bb855dff16666025814c0ac0b7bf470cb2f489af555e0a0098"),
    ("rx",
     "0bed61fdfdba9d6cb194e7e1b70792020a20cad59d1eeec42966f0cad57a138d",
     "a8cb02ed8254ba2ddca7bd01da37474b5d5101296278d2833425c8f1817ca219"),
    ("k2",
     "13eecfbf53fdce1256af309d2d16e16c7a3a6d93882d2fc2ffd72ff257c38ba4",
     "7a63df1253e8babef4c6a3c610a543a08a679f5086a1d756325ffccde6dd4915"),
    ("r2",
     "f15966bd582f405bbde893363271b551aa79e2de0a76684cae2f57c5ca6f5422",
     "0006ce0b24cd9e20899729ba4e1662f0e2cb0ee12e296e7bd377f901a8efdb17"),
    ("r4",
     "3ab551373ac5c65adf7045469ac25b33520f71c20fd2df2774235e68a34ed179",
     "c398af9f27db7ba0bbbacfc4925725fce65352ffb33fd59e98502c44d73b8568"),
    ("free",
     "4f392f47b47b0119e310265a5cf3eeb7367b19f0cb858d32f72f1defb4edd025",
     None),
]


@pytest.mark.parametrize("name, syz_sha, neg_sha", PINNED_SYZYGIES)
def test_syzygy_bytes_are_pinned(name, syz_sha, neg_sha):
    M = _pinned_module(name)
    assert _module_sha(syzygy(M, i) for i in range(1, 5)) == syz_sha
    if neg_sha is not None:
        assert _module_sha(negative_syzygy(M, i) for i in (1, 2, 3)) == neg_sha


# sha256 of the canonical JSON of the Koszul verdict, witness included
PINNED_VERDICTS = [
    ("rm2", 1,
     "8dee41b24c18c91969dd087851ec5e402a8457e5ae0d5f067789363b78d03153"),
    ("r3", 2,
     "4396643ac3fc7971d68e41c46fc6c2ecfb5b01482c674768dc984722197bab85"),
    ("r2", 3,
     "d91df18a21fd51ddc0a99682f37766f4ef44d62d5ac7574c5a8b0abd5f372403"),
    ("r2b", 2,
     "e5013ca86bf3f04a387e2cd69f9611354dd56fc2e52e7f157fec078061a676aa"),
    ("m1", None,
     "2937eb468dca99f1f1d1f996f4b8c3c398202c8182783e7ee0d491ac749f422d"),
]


@pytest.mark.parametrize("name, j, sha", PINNED_VERDICTS)
def test_koszul_witness_bytes_are_pinned(name, j, sha):
    v = is_koszul(_pinned_module(name))
    assert (v.witness[0] if v.witness else None) == j
    text = io.canonical_json(io.verdict_to_dict(v))
    assert hashlib.sha256(text.encode()).hexdigest() == sha
