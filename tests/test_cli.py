import hashlib
import json

import numpy as np
import pytest

from gorlab import io, make_ring, random_module, series, validate_general_algebra
from gorlab.cli import main
from gorlab.ring import identity_form


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def make_ring_file(tmp_path, capsys, e=3, name="r.json"):
    path = str(tmp_path / name)
    code, _, _ = run(capsys, "ring", "new", "--e", str(e), "--out", path)
    assert code == 0
    return path


def make_module_file(tmp_path, capsys, ring, name="m.json", seed="5"):
    path = str(tmp_path / name)
    code, _, _ = run(capsys, "module", "random", "--ring", ring,
                     "--gens", "2", "--rels", "2", "--seed", seed,
                     "--out", path)
    assert code == 0
    return path


def test_ring_new_and_check(tmp_path, capsys):
    ring = make_ring_file(tmp_path, capsys)
    code, out, _ = run(capsys, "ring", "check", ring)
    assert code == 0
    assert json.loads(out)["accepted"] is True


def test_ring_check_degenerate_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad_form.json"
    bad.write_text('{"p": 101, "e": 2, "form": [[1, 0], [0, 0]]}\n')
    code, _, err = run(capsys, "ring", "check", str(bad))
    assert code == 2
    assert "Degenerate" in err


def test_module_info(tmp_path, capsys):
    ring = make_ring_file(tmp_path, capsys)
    mod = make_module_file(tmp_path, capsys, ring)
    code, out, _ = run(capsys, "module", "info", mod)
    assert code == 0
    info = json.loads(out)
    assert info["dim"] == sum(info["hilbert"])


def test_module_new_from_presentation(tmp_path, capsys):
    ring = make_ring_file(tmp_path, capsys)
    mod = str(tmp_path / "rx.json")
    code, _, _ = run(capsys, "module", "new", "--ring", ring,
                     "--presentation", "[[[0, 1, 0, 0, 0]]]", "--out", mod)
    assert code == 0
    code, out, _ = run(capsys, "module", "info", mod)
    assert json.loads(out)["hilbert"] == [1, 2]


def test_resolve_betti(tmp_path, capsys):
    ring = make_ring_file(tmp_path, capsys)
    mod = make_module_file(tmp_path, capsys, ring)
    code, out, _ = run(capsys, "resolve", mod, "--steps", "6")
    assert code == 0
    d = json.loads(out)
    assert len(d["betti"]) == 7 and d["betti"][0] >= 1


def test_series_poincare_with_certificate(tmp_path, capsys):
    ring = make_ring_file(tmp_path, capsys)
    mod = str(tmp_path / "rx.json")
    run(capsys, "module", "new", "--ring", ring,
        "--presentation", "[[[0, 1, 0, 0, 0]]]", "--out", mod)
    code, out, _ = run(capsys, "series", "poincare", "--module", mod,
                       "--steps", "6", "--certify")
    assert code == 0
    d = json.loads(out)
    assert d["coefficients"] == [1, 1, 2, 5, 13, 34, 89]
    assert d["certificate"] == {"s": 1, "numerator": [1, -2], "e": 3}
    # at --steps 5 the tail leaves margin 4 < 5: certification must refuse
    code, _, err = run(capsys, "series", "poincare", "--module", mod,
                       "--steps", "5", "--certify")
    assert code == 2 and "InsufficientDegree" in err


def test_tor_table_with_induced(tmp_path, capsys):
    ring = make_ring_file(tmp_path, capsys)
    a = make_module_file(tmp_path, capsys, ring, "a.json", seed="1")
    b = make_module_file(tmp_path, capsys, ring, "b.json", seed="2")
    code, out, _ = run(capsys, "tor", "--m", a, "--n-mod", b,
                       "--range", "0..8", "--induced")
    assert code == 0
    d = json.loads(out)
    assert [r["i"] for r in d["entries"]] == list(range(9))
    assert all(r["length"] >= r["nu"] >= 0 for r in d["entries"])
    assert "induced_rank" in d["entries"][0]


def test_ext_range_slicing(tmp_path, capsys):
    ring = make_ring_file(tmp_path, capsys)
    a = make_module_file(tmp_path, capsys, ring, "a.json", seed="1")
    b = make_module_file(tmp_path, capsys, ring, "b.json", seed="2")
    code, out, _ = run(capsys, "ext", "--m", a, "--n-mod", b, "--range", "2..5")
    assert code == 0
    assert [r["i"] for r in json.loads(out)["entries"]] == [2, 3, 4, 5]


def test_koszul_verdict(tmp_path, capsys):
    ring = make_ring_file(tmp_path, capsys)
    mod = make_module_file(tmp_path, capsys, ring)
    code, out, _ = run(capsys, "koszul", mod)
    assert code == 0
    assert json.loads(out)["verdict"] in ("koszul", "not_koszul")


def test_verify_lofwall_exit_0(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "lofwall", "--e", "3",
                       "--cutoff", "20")
    assert code == 0
    d = json.loads(out)
    assert d["pass"] is True
    assert len(d["trials"][0]["betti"]) == 21


def test_verify_failure_exit_1(capsys):
    code, out, err = run(capsys, "verify", "main-theorem", "--trials", "1",
                         "--cutoff", "10", "--margin", "9")
    assert code == 1
    assert json.loads(out)["pass"] is False
    assert "FAIL" in err  # the reproducer line


def test_usage_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    ring = make_ring_file(tmp_path, capsys)
    a = make_module_file(tmp_path, capsys, ring, "a.json")
    for bad in ("9..2", "1..2..3"):
        code, _, err = run(capsys, "tor", "--m", a, "--n-mod", a, "--range", bad)
        assert code == 2 and "range" in err
    code, _, err = run(capsys, "module", "info", str(tmp_path / "absent.json"))
    assert code == 2
    for args in (("resolve", a, "--steps", "-1"),
                 ("series", "poincare", "--module", a, "--steps", "-3")):
        code, _, err = run(capsys, *args)
        assert code == 2 and "negative degree" in err
    # outside input that no file can hold: a GorlabError line, no file left
    cube = tmp_path / "cube.json"
    cube.write_text('{"p": 101, "table": [[1, 2], [3, 4]]}\n')
    word = tmp_path / "word.json"
    word.write_text('{"p": 101, "table": "x"}\n')
    out = tmp_path / "out.json"
    for args, error in (
            (("series", "poincare", "--module", a, "--steps", "1",
              "--certify", "--margin", "0"), "ConfigError"),
            (("series", "poincare", "--module", a, "--steps", "1",
              "--certify", "--margin", "-1"), "ConfigError"),
            (("module", "new", "--ring", ring,
              "--presentation", "[[[1,0,0,0,0]]]"), "SchemaError"),
            (("module", "random", "--ring", ring, "--gens", "0"), "ConfigError"),
            (("module", "random", "--ring", ring, "--gens", "-1"), "ConfigError"),
            (("module", "random", "--ring", ring, "--rels", "-1"), "ConfigError"),
            (("ring", "check", str(cube)), "ConfigError"),
            (("ring", "check", str(word)), "ConfigError")):
        code, _, err = run(capsys, *args, "--out", str(out))
        assert code == 2 and err.startswith(f"{error}: ") and not out.exists()


def test_out_matches_stdout(tmp_path, capsys):
    ring = make_ring_file(tmp_path, capsys)
    mod = make_module_file(tmp_path, capsys, ring)
    code, out, _ = run(capsys, "module", "info", mod)
    path = tmp_path / "info.json"
    run(capsys, "module", "info", mod, "--out", str(path))
    assert path.read_text() == out


def test_repeated_runs_byte_identical(tmp_path, capsys):
    for name in ("one.json", "two.json"):
        run(capsys, "verify", "counterexample-e2", "--cutoff", "12",
            "--out", str(tmp_path / name))
    assert (tmp_path / "one.json").read_bytes() == \
        (tmp_path / "two.json").read_bytes()


def test_pretty_output_runs(tmp_path, capsys):
    ring = make_ring_file(tmp_path, capsys)
    a = make_module_file(tmp_path, capsys, ring, "a.json", seed="1")
    code, out, _ = run(capsys, "tor", "--m", a, "--n-mod", a,
                       "--range", "0..4", "--pretty")
    assert code == 0
    assert "length" in out and "provenance" in out


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_resolve_pretty_bytes(tmp_path, capsys, R3):
    mod = str(tmp_path / "m.json")
    io.store_module(random_module(R3, 2, 2, seed=5), mod)
    code, out, _ = run(capsys, "resolve", mod, "--steps", "5", "--pretty")
    assert code == 0
    # differentials print as nested lists, one entry a line, never as arrays
    assert "array" not in out
    assert _sha256(out) == \
        "af75a45dd962502e0822c9a81a5c542d2f2e140de33421c9aca635bc8c9a4471"


def test_readme_resolve_bytes(tmp_path, capsys):
    ring = str(tmp_path / "r3.json")
    run(capsys, "ring", "new", "--e", "3", "--form", "identity", "--out", ring)
    mod = make_module_file(tmp_path, capsys, ring, "m1.json")
    code, out, _ = run(capsys, "resolve", mod, "--steps", "10")
    assert code == 0
    # hashes, not strings, are compared: a failing == would diff 56.6 MB
    want = "82c76cd07a9571a9d398dad465b0c4e0fa2b085905f3c1d3e737752155d0a0cb"
    assert len(out) == 56_613_502 and _sha256(out) == want
    # --out shares the encoder with stdout
    path = tmp_path / "res.json"
    code, _, _ = run(capsys, "resolve", mod, "--steps", "10", "--out", str(path))
    assert code == 0
    assert _sha256(path.read_text(encoding="utf-8")) == want


@pytest.mark.parametrize("kind", ["tor-nu", "tor-len", "ext-nu", "ext-len"])
def test_series_of_a_pair_matches_the_library(tmp_path, capsys, kind):
    # the README's modules: rx = R/(x_1) and m1, the random module of seed 5
    ring = make_ring_file(tmp_path, capsys)
    rx = str(tmp_path / "rx.json")
    run(capsys, "module", "new", "--ring", ring,
        "--presentation", "[[[0,1,0,0,0]]]", "--out", rx)
    m1 = make_module_file(tmp_path, capsys, ring, "m1.json")
    code, out, _ = run(capsys, "series", kind, "--m", rx, "--n-mod", m1,
                       "--steps", "8", "--certify")
    assert code == 0
    fam, mode = kind.split("-")
    fn = series.tor_series if fam == "tor" else series.ext_series
    S = fn(io.load_module(rx), io.load_module(m1), 8,
           {"nu": "nu", "len": "length"}[mode])
    cert = series.certify_rational(S, 3)
    assert out == io.canonical_json(io.series_to_dict(S, cert))


def test_ring_check_of_a_structure_constant_table(tmp_path, capsys):
    # R3's own table is accepted with its form; rebased so that basis
    # element 0 is 1 + x_1 it is the same algebra, but not in normal form
    R3 = make_ring(101, 3, identity_form(3))
    table = R3.basis_reg.transpose(0, 2, 1)
    T = np.eye(R3.dim, dtype=np.int64)
    T[0, 1] = 1
    Tinv = np.linalg.inv(T).astype(np.int64) % 101
    rebased = np.einsum("ia,jb,abc,ck->ijk", T, T, table, Tinv) % 101
    for c, accepted in ((table, True), (rebased, False)):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"p": 101, "table": c.tolist()}))
        code, out, _ = run(capsys, "ring", "check", str(path))
        report = validate_general_algebra(101, c.tolist())
        d = json.loads(out)
        assert code == 0 and d["accepted"] is report.accepted is accepted
        assert d["reason"] == report.reason
        assert d.get("form") == (None if report.form is None
                                 else report.form.tolist())
