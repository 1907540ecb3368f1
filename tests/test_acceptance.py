"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line with the measured numbers, and a check that criterion 5's
plan binds."""

from dataclasses import replace

import numpy as np

from martprop import acceptance, catalog, hilbert, jumpkit, mc
from martprop.mc import run_ensemble

_THREADS = 4


def _check(result):
    name, passed, details = result
    print(f"{'PASS' if passed else 'FAIL'}  {name}: {details}")
    assert passed, f"{name}: {details}"


def test_criterion_1_identity_exact():
    _check(acceptance.criterion_1(threads=_THREADS))


def test_criterion_2_linear_true_martingale():
    _check(acceptance.criterion_2(threads=_THREADS))


def test_criterion_3_novikov_failure():
    _check(acceptance.criterion_3(threads=_THREADS))


def test_criterion_4_cubic_strict_local():
    _check(acceptance.criterion_4(threads=_THREADS))


def test_criterion_5_stopped_means():
    _check(acceptance.criterion_5(threads=_THREADS))


def test_criterion_6_jump_kit():
    _check(acceptance.criterion_6(threads=_THREADS))


def test_criterion_7_hilbert_case_study():
    _check(acceptance.criterion_7(threads=_THREADS))


def test_criterion_8_thread_determinism():
    _check(acceptance.criterion_8(threads=_THREADS))


def test_criterion_9_feller_invariance():
    _check(acceptance.criterion_9(threads=_THREADS))


def test_criterion_5_levels_bind():
    # some paths pass the added level 1.0 before t = 0.25, so its stopped
    # mean differs from the unstopped one that the preset levels give
    p = catalog.get("brownian-linear")
    plan = acceptance._binding_plan(p.plan)
    assert plan.levels[1] == 1.0
    cfg = replace(p.mc, n_paths=2000, dt_max=0.002, horizon=0.25)
    res = run_ensemble(p.spec, cfg, levels=plan.levels)
    assert np.any(res.passage_times[:, 1] < 0.25)
    assert np.all(res.passage_times[:, 2:] == np.inf)


def test_criterion_8_fails_on_a_thread_dependent_report(monkeypatch):
    # a threaded run whose chunks number their paths from 0, so that a
    # later chunk repeats the first one's streams: every run spans two or
    # more chunks, so each report changes with --threads, and criterion 8
    # must see that in all four.  (A merge in reverse order would not
    # show: the reports reduce their paths to counts and sums that come
    # out bit for bit the same in either order.)
    real = mc.map_chunks

    def local_streams(work, n, chunk_size, threads=1):
        if threads == 1:
            return real(work, n, chunk_size)
        return real(lambda c: work(c - c[0]), n, chunk_size)

    for module in (mc, jumpkit, hilbert):
        monkeypatch.setattr(module, "map_chunks", local_streams)
    name, passed, details = acceptance.criterion_8()
    assert not passed, details
    for command in ("classify", "deficit", "jump", "hilbert"):
        assert f"{command}: DIFFER" in details, details
