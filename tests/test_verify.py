import hashlib

import pytest

import gorlab.resolution as rs
from gorlab import TrialConfig, io, run_check
from gorlab.errors import ConfigError
from gorlab.verify import CHECKS


def small(**kw):
    base = dict(trials=3, cutoff=12, max_dim=8)
    base.update(kw)
    return TrialConfig(**base)


def sha256(report) -> str:
    """Digest of the canonical report bytes; the values pinned below fix
    every output byte of these runs."""
    return hashlib.sha256(io.canonical_json(report.to_dict()).encode()).hexdigest()


def test_lofwall_passes():
    report = run_check("lofwall", small(e=4))
    assert report.passed and not report.failures
    assert sha256(report) == \
        "9f1631e3a1cdc8caf4c47651e08678a39b77d6b08ac574603e22c5e93e9e3b4f"


def test_lofwall_random_form_runs_one_ring_per_trial():
    # one random form per trial; sha256 recorded before the checks shared
    # one runner
    report = run_check("lofwall", small(form="random"))
    assert report.passed and len(report.trials) == 3
    assert sha256(report) == \
        "3cb3292c756c23611f575135fd3d260bc4a604eec71ae14df57358b89f7dcda8"


def test_main_theorem_passes():
    report = run_check("main-theorem", small(trials=2, cutoff=15))
    assert report.passed, report.failures
    assert sha256(report) == \
        "4b6aa01c964337a4a70bf68998c63a98d1f03239e5ce0be90176afe3e29a5803"


def test_vanishing_passes():
    report = run_check("vanishing", small(trials=4, cutoff=14))
    assert report.passed, report.failures
    assert sha256(report) == \
        "84eda75c65dd9e5fdd017d0311576c634fdd2285eb6c4525e38aa50cec9ae49a"


def test_counterexample_e2_passes():
    report = run_check("counterexample-e2", small())
    assert report.passed
    rec = report.trials[0]
    assert rec["lengths"][1:] == [2] * (len(rec["lengths"]) - 1)
    assert sha256(report) == \
        "338a980aabc81aedc68dc8015b427624516985a59b6583ceaadb466240c4d197"


def test_lemma_suite_passes():
    report = run_check("lemma-suite", small(trials=2, cutoff=10))
    assert report.passed, report.failures
    assert sha256(report) == \
        "786a4f5365fabb8c9e3571622d64111853a6354feff91fcc04aa25d442c5a615"


def test_main_theorem_at_e4_fits_in_a_gibibyte(monkeypatch):
    # memory is checked against what each elimination holds, so every e = 4
    # trial is served within 1 GiB
    monkeypatch.setattr(rs, "available_bytes", lambda: 2**30)
    report = run_check("main-theorem", TrialConfig(e=4, trials=5, cutoff=25))
    assert report.passed, report.failures


def test_unknown_check_raises():
    with pytest.raises(ConfigError):
        run_check("nonsense", small())


def test_config_validation():
    with pytest.raises(ConfigError):
        TrialConfig(cutoff=5)
    with pytest.raises(ConfigError):
        TrialConfig(trials=0)
    with pytest.raises(ConfigError):
        TrialConfig(form="diagonalish")


def test_e2_refusals():
    # the two statements that assume e > 2 refuse e = 2 with these texts
    for check, text in (
            ("main-theorem",
             "the theorem assumes e > 2; run the check counterexample-e2 instead"),
            ("vanishing", "the proposition assumes e > 2")):
        with pytest.raises(ConfigError) as ex:
            run_check(check, small(e=2))
        assert str(ex.value) == text


def test_reports_are_deterministic():
    a = run_check("vanishing", small(trials=2, cutoff=10)).to_dict()
    b = run_check("vanishing", small(trials=2, cutoff=10)).to_dict()
    assert a == b
    c = run_check("vanishing", small(trials=2, cutoff=10, seed=1)).to_dict()
    assert c != a


def test_timing_excluded_from_canonical_dict():
    report = run_check("lofwall", small())
    assert "elapsed_ms" not in report.to_dict()
    assert "elapsed_ms" in report.to_dict(include_timing=True)


def test_all_registered_checks_have_names():
    assert CHECKS.keys() == {"lofwall", "main-theorem", "vanishing",
                             "counterexample-e2", "lemma-suite"}
