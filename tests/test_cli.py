import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gorlab import cli, io, make_ring, random_module, series, validate_general_algebra
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


def test_verify_main_theorem_e4_under_an_address_space_limit(tmp_path):
    # the e = 4 flagship in a child whose address space is limited to 3 GB
    # (and its CPU time to 300 s, in place of a timeout): every trial is
    # served in a small resident set, with no MemoryError on the way, and
    # stdout is the pinned report, byte for byte
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH", "")])))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))
        resource.setrlimit(resource.RLIMIT_CPU, (300, 300))

    with open(tmp_path / "out", "w") as out, open(tmp_path / "err", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "gorlab.cli", "verify", "main-theorem",
             "--e", "4", "--trials", "25", "--cutoff", "25"],
            stdout=out, stderr=err, env=env, preexec_fn=limit)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = (tmp_path / "err").read_text()
    assert proc.returncode == 0, stderr
    assert "MemoryError" not in stderr
    out = (tmp_path / "out").read_text()
    assert json.loads(out)["pass"] is True
    assert _sha256(out) == \
        "b639c352a9a1b0a4d32193cc7f9a388b7b83b3a51094646226ded2c59291948c"
    assert usage.ru_maxrss < 256 * 1024   # KiB


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
            (("ring", "check", str(word)), "ConfigError"),
            *((("verify", check, "--trials", "2", "--cutoff", "12",
                "--margin", "0"), "ConfigError")
              for check in ("main-theorem", "vanishing", "lemma-suite",
                            "counterexample-e2"))):
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


def test_the_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    # every main call after the first reuses the parser: five commands
    # construct the ArgumentParser objects of one build, not five builds
    real, built = argparse.ArgumentParser.__init__, []

    def init(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", init)
    cli.build_parser.cache_clear()
    cli.build_parser()
    one_build = len(built)
    assert one_build > 1   # the root parser and its subparsers
    cli.build_parser.cache_clear()
    built.clear()
    ring = make_ring_file(tmp_path, capsys)
    mod = make_module_file(tmp_path, capsys, ring)
    for argv in (("ring", "check", ring), ("module", "info", mod), ("koszul", mod)):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out
    assert len(built) == one_build


def test_the_parser_is_not_built_at_import():
    # a library user pays for no parser: `import gorlab` leaves the CLI
    # unimported, and importing it builds nothing until main is called
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, gorlab\n"
            "assert 'gorlab.cli' not in sys.modules\n"
            "from gorlab import cli\n"
            "assert cli.build_parser.cache_info().currsize == 0\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH", "")])))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def _fresh(capsys, *argv):
    """stdout of main(argv) on a newly built parser."""
    cli.build_parser.cache_clear()
    return run(capsys, *argv)[1]


def test_a_reused_parser_leaks_no_state(tmp_path, capsys):
    # the second command of each pair prints, on the parser the first one
    # used, exactly what it prints on a parser of its own
    ring = make_ring_file(tmp_path, capsys)
    a = make_module_file(tmp_path, capsys, ring, "a.json", seed="1")
    tor = ("tor", "--m", a, "--n-mod", a, "--range", "0..4")
    info = ("module", "info", a)
    pairs = [(tor + ("--induced",), tor), (tor + ("--pretty",), tor),
             (info + ("--out", str(tmp_path / "info.json")), info),
             (("nonsense",), info)]
    for first, second in pairs:
        want = _fresh(capsys, *second)
        cli.build_parser.cache_clear()
        if first == ("nonsense",):
            with pytest.raises(SystemExit) as exc:
                main(list(first))
            assert exc.value.code == 2
        else:
            assert run(capsys, *first)[0] == 0
        capsys.readouterr()
        code, out, _ = run(capsys, *second)
        assert code == 0 and out == want
    assert "induced" not in json.loads(_fresh(capsys, *tor))


# `gorlab --help` and `gorlab tor --help` at 80 columns, as they printed
# when every command built a parser of its own
HELP = {
    (): """\
usage: gorlab [-h] {ring,module,resolve,tor,ext,series,koszul,verify} ...

Exact homological algebra over short Gorenstein rings

positional arguments:
  {ring,module,resolve,tor,ext,series,koszul,verify}
    ring                create or validate rings
    module              create or inspect modules
    resolve             minimal free resolution
    tor                 tor table for a pair of modules
    ext                 ext table for a pair of modules
    series              generating series, optionally certified
    koszul              Koszulness verdict with witness
    verify              seeded property suites

options:
  -h, --help            show this help message and exit
""",
    ("tor",): """\
usage: gorlab tor [-h] --m M --n-mod N_MOD [--range RANGE] [--induced]
                  [--out OUT] [--pretty]

options:
  -h, --help     show this help message and exit
  --m M
  --n-mod N_MOD
  --range RANGE
  --induced      include ranks of the maps induced by mM -> M
  --out OUT      write JSON to this path instead of stdout
  --pretty       human-readable view of the same data
""",
}


@pytest.mark.parametrize("verb", sorted(HELP), ids=["gorlab", "tor"])
def test_help_is_unchanged_on_a_reused_parser(tmp_path, capsys, monkeypatch, verb):
    # help is formatted when printed, at the terminal width of that moment,
    # so a parser built and used before prints the same help as a new one
    cli.build_parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "40")
    make_ring_file(tmp_path, capsys)
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*verb, "--help"])
    assert exc.value.code == 0 and capsys.readouterr().out == HELP[verb]


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
