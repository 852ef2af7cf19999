import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gorlab import FiniteModule, direct_sum, io, random_module, resolve, tor
from gorlab.cli import main
from gorlab.errors import SchemaError
from gorlab.resolution import Nonzeros


def _oracle(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _tolisted(obj):
    if isinstance(obj, Nonzeros):
        return obj.dense().tolist()
    if isinstance(obj, dict):
        return {k: _tolisted(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_tolisted(v) for v in obj]
    return obj


def test_canonical_json_is_sorted_and_terminated():
    text = io.canonical_json({"b": 1, "a": [2, 3]})
    assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'


_ints = st.integers(min_value=-2**70, max_value=2**70)
_int_rows = st.lists(st.lists(_ints | st.booleans(), max_size=4), max_size=4)
_json_values = st.recursive(
    st.none() | st.booleans() | _ints | st.floats() | st.text()
    | st.lists(_ints | st.booleans(), max_size=6) | _int_rows
    | _int_rows.map(lambda rows: tuple(tuple(r) for r in rows)),
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(st.text(), kids, max_size=4)),
    max_leaves=25)


@settings(max_examples=400, deadline=None)
@given(_json_values)
def test_canonical_json_matches_json_dumps(obj):
    assert io.canonical_json(obj) == _oracle(obj)


def _nz(G) -> Nonzeros:
    """The nonzeros of the entry array G, as a resolution stores them."""
    gen, target, slot = np.nonzero(G)
    return Nonzeros(gen, target, slot, G[gen, target, slot], G.shape)


_big = np.array([[[np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0]] * 3] * 2)
_one = np.zeros((3, 4, 5), np.int64)
_one[2, 3, 4] = 7


@pytest.mark.parametrize("obj", [
    [], {}, [[]], [[], [1]], [[1], []], [[1, 2], [3]], [[1], 2, [[3]]],
    [1, [2]], [True, 1, False], [[True], [0]], ((1, 2), (3,)),
    ["a, b", "], ["], [["x"]], [{}, 1], [1, {}], [[1], [{}]],
    {"é\"q": [[2**65, -1]], "a": None}, {10: [2], 9: "t"}, {True: 1},
    {None: [0]}, {1.5: 2, -0.5: 3},
    # differentials' nonzeros, written as their entry arrays' tolist()
    _nz(np.zeros((0, 3, 5), np.int64)), _nz(np.zeros((2, 0, 5), np.int64)),
    _nz(np.zeros((2, 3, 0), np.int64)), _nz(np.zeros((2, 3, 5), np.int64)),
    _nz(_big), _nz(_big).transpose(), _nz(_big[:, ::2, ::-1]), _nz(_one),
    {"a": [_nz(np.arange(6).reshape(1, 2, 3)), [[1, 2]]], "b": [1, _nz(_one)]},
    [[1], _nz(np.arange(4).reshape(2, 1, 2))], [[_nz(_one)], [3]],
])
def test_canonical_json_edge_cases(obj):
    assert io.canonical_json(obj) == _oracle(_tolisted(obj))


def test_canonical_json_rejects_what_json_dumps_rejects():
    for bad in ({(1, 2): 3}, [object()], {"a": {1j}},
                # no ndarray is written, an integer one neither
                np.arange(3), np.zeros((2, 3), np.int64), np.zeros((2, 3)),
                np.zeros((2, 2), bool), np.array([1, "a"], object),
                np.array(7), [_nz(_one), np.arange(2)],
                {"d": [np.ones((1, 2, 2))]}):
        with pytest.raises(TypeError):
            _oracle(bad)
        with pytest.raises(TypeError):
            io.canonical_json(bad)


@st.composite
def _mostly_zero_nonzeros(draw):
    """The nonzeros of an (a, j, C) int64 entry array that is zero but for a
    few vectors, drawn from a small palette so that they repeat, with
    entries at the int64 extremes; a = 0, j = 0 and C = 0 included.  The
    widths j = 16, 17 and 33 give zero runs across several block sizes,
    one of them exactly a power of two, and a vector is placed first or
    last in its list as often as anywhere else."""
    info = np.iinfo(np.int64)
    a = draw(st.integers(0, 3))
    j = draw(st.sampled_from([0, 1, 1, 2, 5, 9, 16, 17, 33]))
    C = draw(st.integers(0, 5))
    G = np.zeros((a, j, C), np.int64)
    if G.size:
        entry = (st.sampled_from([0, 1, int(info.max), int(info.min)])
                 | st.integers(int(info.min), int(info.max)))
        palette = draw(st.lists(st.lists(entry, min_size=C, max_size=C),
                                min_size=1, max_size=3))
        col = st.sampled_from([0, j - 1]) | st.integers(0, j - 1)
        for _ in range(draw(st.integers(0, 2 * a))):
            G[draw(st.integers(0, a - 1)), draw(col)] = \
                draw(st.sampled_from(palette))
    return _nz(G)


@settings(max_examples=300, deadline=None)
@given(_mostly_zero_nonzeros())
def test_mostly_zero_arrays_encode_as_their_lists(G):
    # a differential handed over as its nonzeros is written as its entry
    # array's list: the zero vector's text fills every list around the
    # nonzero vectors
    assert io.canonical_json(G) == \
        json.dumps(G.dense().tolist(), indent=2) + "\n"


_with_nonzeros = st.recursive(
    _mostly_zero_nonzeros() | _ints | st.lists(_ints, max_size=4) | _int_rows,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.text(max_size=3), kids, max_size=3)),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(_with_nonzeros)
def test_integer_arrays_encode_as_their_lists(obj):
    # nonzeros nested in lists and dicts are written as their entry arrays'
    # lists at any indent, and write_json streams the same text
    want = _oracle(_tolisted(obj))
    assert io.canonical_json(obj) == want
    writes = []
    io.write_json(obj, SimpleNamespace(write=writes.append))
    assert "".join(writes) == want


def _resolution_dict_by_entry(res, steps):
    """resolution_to_dict as it was built before tolist(): one int() per
    entry."""
    head = min(steps, res.head)
    mats = []
    for i in range(1, head + 1):
        G = res.diff(i)
        mats.append([[[int(c) for c in G[a, j]] for j in range(G.shape[1])]
                     for a in range(G.shape[0])])
    return {"betti": [int(b) for b in res.betti(steps)],
            "materialized_through": head, "differentials": mats}


def test_resolution_bytes_match_per_entry_conversion(tmp_path, capsys, R3):
    M = random_module(R3, 2, 2, seed=5)
    res = resolve(M, 7)
    want = _oracle(_resolution_dict_by_entry(res, 7))
    assert io.canonical_json(io.resolution_to_dict(res, 7)) == want
    P = io.canonical_presentation(M)
    assert io.module_to_dict(M)["presentation"] == \
        [[[int(c) for c in P.entries[i, j]] for j in range(P.relations)]
         for i in range(P.generators)]
    # the CLI writes the same bytes for a fresh copy of the module
    path = str(tmp_path / "m.json")
    io.store_module(M, path)
    assert main(["resolve", path, "--steps", "7"]) == 0
    assert capsys.readouterr().out == want


def test_writing_a_module_resolves_one_step(R3):
    # a presentation reads del_1 alone, so writing the README's module
    # certifies no tail and leaves the head at 1
    M = random_module(R3, 2, 2, seed=5)
    io.module_to_dict(M)
    assert M._cache["resolution"].head == 1


def test_the_zero_module_is_not_written(R3):
    # no generator array, which the reader requires, so nothing to write
    with pytest.raises(SchemaError, match="zero module"):
        io.module_to_dict(FiniteModule.zero(R3))


def test_write_json_streams_the_canonical_bytes(R3):
    obj = io.resolution_to_dict(resolve(random_module(R3, 2, 2, seed=5), 5), 5)
    writes = []
    io.write_json(obj, SimpleNamespace(write=writes.append))
    text = io.canonical_json(obj)
    assert "".join(writes) == text
    # the document reaches the stream in pieces, never as one string
    assert max(map(len, writes)) < len(text) // 2


def test_a_resolution_reaches_the_stream_in_shared_pieces(R3):
    # the zero vectors that fill a differential's lists are written as
    # blocks of 2^b copies made once per differential, so the distinct
    # strings written are a small part of the document, and no write is
    # longer than the largest block plus one vector's text
    obj = io.resolution_to_dict(resolve(random_module(R3, 2, 2, seed=5), 7), 7)
    writes = []
    io.write_json(obj, SimpleNamespace(write=writes.append))
    text = "".join(writes)
    assert text == io.canonical_json(obj)
    distinct = {id(w): len(w) for w in writes}   # the list keeps each alive
    assert sum(distinct.values()) <= len(text) / 8

    def vector(v):
        # a vector's text at the indent of a differential's vectors
        return json.dumps(v, indent=2).replace("\n", "\n" + " " * 8)

    bound = 0
    for G in json.loads(text)["differentials"]:
        j = len(G[0])
        zero_sep = len(vector([0] * len(G[0][0])) + ",\n" + " " * 8)
        block = zero_sep * 2 ** ((j - 1).bit_length() - 1) if j > 1 else 0
        longest = max(len(vector(v)) for row in G for v in row)
        bound = max(bound, block + longest)
    assert max(map(len, writes)) <= bound


def test_ring_round_trip(tmp_path, R3):
    path = str(tmp_path / "ring.json")
    io.store_json(io.ring_to_dict(R3), path)
    again = io.load_ring(path)
    assert again == R3
    io.store_json(io.ring_to_dict(again), str(tmp_path / "ring2.json"))
    assert (tmp_path / "ring.json").read_bytes() == \
        (tmp_path / "ring2.json").read_bytes()


def test_module_round_trip_bytes(tmp_path, R3):
    # a free module has no relations: R^2 and R + k keep their generators
    # with empty relation lists
    free = FiniteModule.free(R3, 2)
    for M in (random_module(R3, 2, 2, seed=61), free,
              direct_sum(FiniteModule.free(R3, 1), FiniteModule.residue_field(R3))[0]):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        io.store_module(M, a)
        io.store_module(io.load_module(a), b)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        # loading preserves the isomorphism invariants
        again = io.load_module(a)
        assert again.dim == M.dim and again.ring == R3
    assert io.module_to_dict(free)["presentation"] == [[], []]


def test_non_canonical_field_order_is_canonicalized(tmp_path, R3):
    M = random_module(R3, 1, 1, seed=62)
    path = str(tmp_path / "m.json")
    io.store_module(M, path)
    d = json.loads((tmp_path / "m.json").read_text())
    scrambled = {"presentation": d["presentation"], "ring": d["ring"]}
    (tmp_path / "scrambled.json").write_text(
        json.dumps(scrambled, sort_keys=False, indent=None))
    out = str(tmp_path / "out.json")
    io.store_module(io.load_module(str(tmp_path / "scrambled.json")), out)
    assert (tmp_path / "out.json").read_bytes() == (tmp_path / "m.json").read_bytes()


def test_ring_reference_by_relative_path(tmp_path, R3):
    sub = tmp_path / "nested"
    sub.mkdir()
    io.store_json(io.ring_to_dict(R3), str(sub / "ring.json"))
    M = random_module(R3, 1, 1, seed=63)
    io.store_module(M, str(sub / "m.json"), ring_ref="ring.json")
    again = io.load_module(str(sub / "m.json"))
    assert again.ring == R3


def test_schema_error_pointers(tmp_path, R3):
    M = random_module(R3, 1, 1, seed=64)
    path = str(tmp_path / "m.json")
    io.store_module(M, path)
    d = json.loads((tmp_path / "m.json").read_text())

    def reject(mutate, pointer):
        bad = json.loads(json.dumps(d))
        mutate(bad)
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        with pytest.raises(SchemaError) as exc:
            io.load_module(str(tmp_path / "bad.json"))
        assert exc.value.pointer == pointer

    reject(lambda b: b["presentation"][0].__setitem__(0, [1, 2, 3]),
           "/presentation/0/0")
    reject(lambda b: b["presentation"][0][0].__setitem__(1, "x"),
           "/presentation/0/0/1")
    reject(lambda b: b.pop("ring"), "")
    reject(lambda b: b["ring"].pop("form"), "/ring")
    reject(lambda b: b["ring"].__setitem__("form", [[1, 0], [0, "y"]]),
           "/ring/form/1/1")


def test_invalid_json_raises_schema_error(tmp_path):
    (tmp_path / "junk.json").write_text("{nope")
    with pytest.raises(SchemaError):
        io.load_json(str(tmp_path / "junk.json"))


def test_result_dicts_are_integer_only(R3):
    M = random_module(R3, 2, 1, seed=65)
    N = random_module(R3, 1, 1, seed=66)
    payloads = [
        io.module_info(M),
        io.resolution_to_dict(resolve(M, 4), 4),
        io.table_to_dict(tor(M, N, 6)),
    ]

    def walk(x):
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)
        elif isinstance(x, Nonzeros):
            # differentials stay their int64 nonzeros until they are written
            assert all(v.dtype == np.int64 for v in x[:4])
            assert all(isinstance(n, int) for n in x.shape)
        else:
            assert x is None or isinstance(x, (int, str, bool))

    for payload in payloads:
        walk(payload)
        json.loads(io.canonical_json(payload))  # serializable as-is
