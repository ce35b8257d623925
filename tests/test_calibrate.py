"""Calibration rules, frequency corrections, sweeps, and the pair study."""

import concurrent.futures
import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tweezergate import calibrate
from tweezergate import cli
from tweezergate import crystal
from tweezergate import drive
from tweezergate import hilbert
from tweezergate import metric

DELTA = -2.0 * math.pi * 1.0e3
W_TW_TABLE = 2.0 * math.pi * 257.0e3


def trap(n=2):
    return crystal.TrapSpec(n, calibrate.YB171_MASS_KG,
                            calibrate.DEFAULT_COM_FREQUENCY)


def config(**kw):
    base = dict(trap=trap(), pair=(0, 1),
                tweezer_frequency=0.25 * calibrate.DEFAULT_COM_FREQUENCY,
                field_amplitude=2.69e-4, detuning=DELTA)
    base.update(kw)
    return drive.GateConfig(**base)


FORK_ONLY = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                               reason="the patched point reaches forked "
                                      "workers only")


@pytest.fixture
def fresh_pool():
    """Drop the process's shared worker pool before and after a test that
    patches what the pool runs or builds: workers see a patch only when
    forked after it, and a pool built under a patch must not outlive it."""
    calibrate._drop_pool()
    yield
    calibrate._drop_pool()


def record_pools(monkeypatch, base=concurrent.futures.ThreadPoolExecutor):
    """Build pools from a subclass of base that records each pool's worker
    count; the returned list grows by one per pool built."""
    sizes = []

    class Recording(base):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return sizes


class TestFieldForGateCondition:
    def test_quarter_pi_rule_value_and_warning(self):
        with pytest.warns(UserWarning, match="inconsistent") as rec:
            e0 = calibrate.field_for_gate_condition(
                DELTA, trap(), "pi_over_4_coupling",
                tweezer_frequency=0.25 * trap().axial_frequency)
        gamma = drive.gamma_from_field(e0, trap())
        assert gamma == pytest.approx(abs(DELTA) * math.sqrt(math.pi) / 2.0,
                                      rel=1e-12)
        assert e0 == pytest.approx(1.3484e-3, rel=1e-3)
        # the warning quotes both calibration fields
        msg = str(rec[0].message)
        assert "1.3484e-03" in msg and "2.6889e-04" in msg

    def test_quarter_pi_rule_evaluates_the_phase_once(self, monkeypatch):
        # the phase is exactly proportional to E0^2, so the rule's own
        # phase fixes the pi/4 field
        calls = []
        raw = calibrate._raw_conditional_phase

        def counted(*args):
            calls.append(args)
            return raw(*args)

        monkeypatch.setattr(calibrate, "_raw_conditional_phase", counted)
        with pytest.warns(UserWarning, match="2.6889e-04"):
            calibrate.field_for_gate_condition(
                DELTA, trap(), "pi_over_4_coupling",
                tweezer_frequency=0.25 * trap().axial_frequency)
        assert len(calls) == 1

    def test_quarter_pi_rule_linear_in_delta(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            e1 = calibrate.field_for_gate_condition(DELTA, trap(),
                                                    "pi_over_4_coupling")
            e2 = calibrate.field_for_gate_condition(2 * DELTA, trap(),
                                                    "pi_over_4_coupling")
        assert e2 == pytest.approx(2.0 * e1, rel=1e-12)

    def test_target_phase_matches_operating_field(self):
        e0 = calibrate.field_for_gate_condition(
            DELTA, trap(), "target_conditional_phase", phi=-math.pi / 4.0,
            tweezer_frequency=0.25 * trap().axial_frequency)
        assert e0 == pytest.approx(2.6889e-4, rel=1e-4)
        assert e0 == pytest.approx(2.69e-4, rel=1e-2)

    def test_target_phase_roundtrip(self):
        tw = 0.25 * trap().axial_frequency
        phi = -0.6
        e0 = calibrate.field_for_gate_condition(
            DELTA, trap(), "target_conditional_phase", phi=phi,
            tweezer_frequency=tw)
        cfg = config(field_amplitude=e0, tweezer_frequency=tw)
        modes = crystal.normal_modes(trap()).restrict([0])
        gate = metric.ideal_gate(cfg, modes)
        ph = gate.phases
        raw = ph[0] + ph[3] - ph[1] - ph[2]
        assert raw == pytest.approx(phi, abs=1e-10)

    def test_field_scales_with_sqrt_phase(self):
        tw = 0.25 * trap().axial_frequency
        e_quarter = calibrate.field_for_gate_condition(
            DELTA, trap(), "target_conditional_phase", phi=-math.pi / 4.0,
            tweezer_frequency=tw)
        e_eighth = calibrate.field_for_gate_condition(
            DELTA, trap(), "target_conditional_phase", phi=-math.pi / 8.0,
            tweezer_frequency=tw)
        assert e_eighth == pytest.approx(e_quarter / math.sqrt(2.0),
                                         rel=1e-9)

    def test_zero_target_gives_zero_field(self):
        e0 = calibrate.field_for_gate_condition(
            DELTA, trap(), "target_conditional_phase", phi=0.0,
            tweezer_frequency=0.25 * trap().axial_frequency)
        assert e0 == 0.0

    def test_unbracketed_target_reports_bracket(self):
        with pytest.raises(ValueError, match="not bracketed"):
            calibrate.field_for_gate_condition(
                DELTA, trap(), "target_conditional_phase",
                phi=+math.pi / 4.0,
                tweezer_frequency=0.25 * trap().axial_frequency)
        # no tweezer, no conditional phase at any field
        with pytest.raises(ValueError, match="not bracketed"):
            calibrate.field_for_gate_condition(
                DELTA, trap(), "target_conditional_phase",
                phi=-math.pi / 4.0, tweezer_frequency=0.0)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 8), data=st.data(),
           tw_khz=st.floats(120.0, 300.0),
           delta_khz=st.sampled_from((-1.0, -2.0)),
           size=st.floats(0.05, 1.5))
    def test_closed_form_field_hits_target(self, n, data, tw_khz, delta_khz,
                                           size):
        # the conditional phase is exactly linear in E0^2, so the one
        # reference evaluation fixes the field of any reachable target
        t = trap(n)
        pair = tuple(data.draw(st.permutations(range(n)))[:2])
        n_modes = data.draw(st.integers(1, n))
        tw = 2.0 * math.pi * tw_khz * 1e3
        delta = 2.0 * math.pi * delta_khz * 1e3
        ref = calibrate._raw_conditional_phase(1e-3, delta, t, tw, pair,
                                               n_modes)
        assume(ref != 0.0)
        phi = math.copysign(size, ref)
        e0 = calibrate.field_for_gate_condition(
            delta, t, "target_conditional_phase", phi=phi,
            tweezer_frequency=tw, pair=pair, n_modes=n_modes)
        got = calibrate._raw_conditional_phase(e0, delta, t, tw, pair,
                                               n_modes)
        assert got == pytest.approx(phi, rel=1e-12, abs=0.0)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="nonzero"):
            calibrate.field_for_gate_condition(0.0, trap(),
                                               "pi_over_4_coupling")
        with pytest.raises(ValueError, match="rule"):
            calibrate.field_for_gate_condition(DELTA, trap(), "magic")
        with pytest.raises(ValueError, match="phi"):
            calibrate.field_for_gate_condition(DELTA, trap(),
                                               "target_conditional_phase")


class TestCorrectedDriveFrequency:
    def test_zero_tweezer_reduces_to_com_plus_delta(self):
        mu = calibrate.corrected_drive_frequency(trap(), (0, 1), 0.0, DELTA)
        assert mu == pytest.approx(trap().axial_frequency + DELTA,
                                   rel=1e-14)

    @pytest.mark.parametrize("pair", [(0, 1), (2, 0), (1, 3)])
    def test_one_rule_behind_every_entry_point(self, pair):
        # the report's resolved drive frequency, the pair study's and the
        # tabulated offset all come from crystal.resonant_drive_frequency
        t4 = trap(4)
        modes = crystal.normal_modes(t4)
        mu = crystal.resonant_drive_frequency(modes, W_TW_TABLE, pair, DELTA)
        cfg = drive.GateConfig(trap=t4, pair=pair,
                               tweezer_frequency=W_TW_TABLE,
                               field_amplitude=2.69e-4, detuning=DELTA)
        assert drive.resolve_drive_frequency(cfg, modes) == mu
        assert calibrate.corrected_drive_frequency(t4, pair, W_TW_TABLE,
                                                   DELTA) == mu
        off = crystal.drive_frequency_correction(
            t4, crystal.TweezerPerturbation(W_TW_TABLE, pair), DELTA)
        assert off == pytest.approx(t4.axial_frequency - mu, rel=1e-9)

    def test_offset_vanishes_quadratically(self):
        t4 = trap(4)
        w = t4.axial_frequency

        def curvature_part(wt):
            mu = calibrate.corrected_drive_frequency(t4, (0, 2), wt, DELTA)
            return w - mu + DELTA

        c1 = curvature_part(0.01 * w)
        c2 = curvature_part(0.02 * w)
        # mixed-configuration first-order shifts cancel, so the branch
        # offset is quartic in the tweezer frequency (quadratic or higher)
        assert c2 / c1 > 3.9
        assert c2 / c1 == pytest.approx(16.0, rel=0.05)

    def test_four_ion_offsets_match_published(self):
        t4 = trap(4)
        published_hz = {(0, 1): 1212.0, (0, 2): 1325.0,
                        (0, 3): 1488.0, (1, 2): 1162.0}
        for pair, want in published_hz.items():
            mu = calibrate.corrected_drive_frequency(t4, pair, W_TW_TABLE,
                                                     DELTA)
            off = (t4.axial_frequency - mu) / (2.0 * math.pi)
            assert off == pytest.approx(want, rel=0.1)

    def test_offsets_at_reduced_tweezer_match_tightly(self):
        # at 254 kHz the published offsets are reproduced within 10 Hz
        t4 = trap(4)
        w_tw = 2.0 * math.pi * 254.0e3
        published_hz = {(0, 1): 1212.0, (0, 2): 1325.0,
                        (0, 3): 1488.0, (1, 2): 1162.0}
        for pair, want in published_hz.items():
            mu = calibrate.corrected_drive_frequency(t4, pair, w_tw, DELTA)
            off = (t4.axial_frequency - mu) / (2.0 * math.pi)
            assert abs(off - want) < 10.0


class TestSweepSpec:
    def test_validation(self):
        cfg = config()
        with pytest.raises(ValueError, match="axis"):
            calibrate.SweepSpec(axis="ramp", grid=(1.0,), config=cfg,
                                cutoffs=(10,))
        with pytest.raises(ValueError, match="empty"):
            calibrate.SweepSpec(axis="nbar", grid=(), config=cfg,
                                cutoffs=(10,))
        with pytest.raises(ValueError, match="monotone"):
            calibrate.SweepSpec(axis="nbar", grid=(0.0, 1.0, 0.5),
                                config=cfg, cutoffs=(10,))
        with pytest.raises(ValueError, match="targets"):
            calibrate.SweepSpec(axis="nbar", grid=(0.0,), config=cfg,
                                cutoffs=(10,), targets=(1.5,))

    def test_descending_grid_allowed(self):
        spec = calibrate.SweepSpec(axis="detuning",
                                   grid=(-1000.0, -2000.0, -3000.0),
                                   config=config(), cutoffs=(10,))
        assert spec.grid == (-1000.0, -2000.0, -3000.0)


class TestRunSweep:
    def test_single_point_equals_direct_report(self):
        cfg = config()
        spec = calibrate.SweepSpec(axis="tweezer_frequency",
                                   grid=(cfg.tweezer_frequency,),
                                   config=cfg, cutoffs=(20,))
        pts = calibrate.run_sweep(spec)
        direct = metric.fidelity_report(
            cfg, hilbert.ThermalEnsemble((0.0,), (20,)),
            hilbert.SpaceSpec(2, (20,)), backend="gaussian")
        assert pts[0].ok
        assert pts[0].report.fidelity == direct.fidelity
        assert pts[0].report.as_dict() == direct.as_dict()

    def test_deterministic_json(self):
        spec = calibrate.SweepSpec(
            axis="tweezer_frequency",
            grid=(0.20 * calibrate.DEFAULT_COM_FREQUENCY,
                  0.25 * calibrate.DEFAULT_COM_FREQUENCY),
            config=config(), cutoffs=(16,))
        one = json.dumps([p.report.as_dict()
                          for p in calibrate.run_sweep(spec)],
                         sort_keys=True)
        two = json.dumps([p.report.as_dict()
                          for p in calibrate.run_sweep(spec)],
                         sort_keys=True)
        assert one == two

    @pytest.mark.parametrize("cached", [False, True],
                             ids=["no-cache", "cache-dir"])
    def test_errors_carried_per_point(self, tmp_path, cached):
        # the middle point's inputs raise; with a cache only the two
        # evaluated points are stored
        spec = calibrate.SweepSpec(axis="detuning",
                                   grid=(DELTA, 0.0, -DELTA),
                                   config=config(), cutoffs=(12,))
        cache = tmp_path / "cache"
        pts = calibrate.run_sweep(spec,
                                  cache_dir=str(cache) if cached else None)
        assert pts[0].ok and pts[2].ok
        assert not pts[1].ok
        assert "detuning" in pts[1].error
        assert pts[1].report is None
        if cached:
            assert len(list(cache.iterdir())) == 2
        else:
            assert not cache.exists()

    def test_nbar_axis_orders_fidelity(self):
        spec = calibrate.SweepSpec(axis="nbar", grid=(0.0, 0.6, 1.0),
                                   config=config(), cutoffs=(20,))
        pts = calibrate.run_sweep(spec)
        fids = [p.report.fidelity for p in pts]
        assert fids[0] >= fids[1] >= fids[2]
        assert all(f > 0.999 for f in fids)

    def test_nbar_axis_fills_higher_modes_at_equal_temperature(self):
        spec = calibrate.SweepSpec(axis="nbar", grid=(1.0,),
                                   config=config(), cutoffs=(16, 8))
        pts = calibrate.run_sweep(spec)
        nb = pts[0].report.parameters["nbar"]
        assert nb[0] == pytest.approx(1.0)
        # stretch mode at sqrt(3) the COM frequency, same temperature
        assert nb[1] == pytest.approx(0.43066, abs=2e-5)

    def test_cache_resumes(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        real = calibrate.metric.fidelity_report

        def counting(*a, **kw):
            calls["n"] += 1
            return real(*a, **kw)

        monkeypatch.setattr(calibrate.metric, "fidelity_report", counting)
        spec = calibrate.SweepSpec(
            axis="tweezer_frequency",
            grid=(0.20 * calibrate.DEFAULT_COM_FREQUENCY,
                  0.25 * calibrate.DEFAULT_COM_FREQUENCY),
            config=config(), cutoffs=(14,))
        cache = str(tmp_path / "cache")
        first = calibrate.run_sweep(spec, cache_dir=cache)
        assert calls["n"] == 2
        second = calibrate.run_sweep(spec, cache_dir=cache)
        assert calls["n"] == 2
        assert [p.report.as_dict() for p in first] == \
               [p.report.as_dict() for p in second]
        # drop one point; only that one is recomputed
        files = sorted((tmp_path / "cache").iterdir())
        assert len(files) == 2
        files[0].unlink()
        third = calibrate.run_sweep(spec, cache_dir=cache)
        assert calls["n"] == 3
        assert [p.report.as_dict() for p in third] == \
               [p.report.as_dict() for p in second]

    def test_interrupted_sweep_resumes(self, tmp_path, monkeypatch):
        spec = calibrate.SweepSpec(
            axis="tweezer_frequency",
            grid=tuple(r * calibrate.DEFAULT_COM_FREQUENCY
                       for r in (0.18, 0.20, 0.22, 0.24)),
            config=config(), cutoffs=(10,))
        cache = tmp_path / "cache"
        real = calibrate._evaluate_point
        calls = []

        def interrupt_third(config_, thermal, backend):
            calls.append(config_.tweezer_frequency)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return real(config_, thermal, backend)

        monkeypatch.setattr(calibrate, "_evaluate_point", interrupt_third)
        with pytest.raises(KeyboardInterrupt):
            calibrate.run_sweep(spec, cache_dir=str(cache))
        # the two finished points are stored, and nothing else
        assert len(list(cache.iterdir())) == 2

        def counting(config_, thermal, backend):
            calls.append(config_.tweezer_frequency)
            return real(config_, thermal, backend)

        calls.clear()
        monkeypatch.setattr(calibrate, "_evaluate_point", counting)
        resumed = calibrate.run_sweep(spec, cache_dir=str(cache))
        assert calls == list(spec.grid[2:])
        assert [p.report.as_dict() for p in resumed] == \
               [p.report.as_dict() for p in calibrate.run_sweep(spec)]

    def test_engine_version_change_is_a_miss(self, tmp_path, monkeypatch):
        spec = calibrate.SweepSpec(
            axis="tweezer_frequency",
            grid=(0.20 * calibrate.DEFAULT_COM_FREQUENCY,),
            config=config(), cutoffs=(10,))
        cache = tmp_path / "cache"
        calibrate.run_sweep(spec, cache_dir=str(cache))
        real = calibrate._evaluate_point
        calls = []

        def counting(config_, thermal, backend):
            calls.append(config_.tweezer_frequency)
            return real(config_, thermal, backend)

        monkeypatch.setattr(calibrate, "_evaluate_point", counting)
        calibrate.run_sweep(spec, cache_dir=str(cache))
        assert calls == []
        monkeypatch.setattr(calibrate, "ENGINE_VERSION",
                            calibrate.ENGINE_VERSION + 1)
        calibrate.run_sweep(spec, cache_dir=str(cache))
        assert calls == list(spec.grid)
        assert len(list(cache.iterdir())) == 2

    def test_truncated_cache_entry_is_a_miss(self, tmp_path):
        spec = calibrate.SweepSpec(
            axis="tweezer_frequency",
            grid=(0.20 * calibrate.DEFAULT_COM_FREQUENCY,
                  0.25 * calibrate.DEFAULT_COM_FREQUENCY),
            config=config(), cutoffs=(10,))
        cache = tmp_path / "cache"
        first = calibrate.run_sweep(spec, cache_dir=str(cache))
        entry = sorted(cache.iterdir())[0]
        whole = entry.read_text()
        entry.write_text(whole[:len(whole) // 2])
        second = calibrate.run_sweep(spec, cache_dir=str(cache))
        assert [p.report.as_dict() for p in second] == \
               [p.report.as_dict() for p in first]
        assert entry.read_text() == whole
        assert len(list(cache.iterdir())) == 2

    def test_parallel_matches_serial(self):
        spec = calibrate.SweepSpec(
            axis="tweezer_frequency",
            grid=(0.18 * calibrate.DEFAULT_COM_FREQUENCY,
                  0.22 * calibrate.DEFAULT_COM_FREQUENCY,
                  0.26 * calibrate.DEFAULT_COM_FREQUENCY),
            config=config(), cutoffs=(12,))
        serial = calibrate.run_sweep(spec, jobs=1)
        parallel = calibrate.run_sweep(spec, jobs=2)
        assert [p.report.as_dict() for p in serial] == \
               [p.report.as_dict() for p in parallel]

    @FORK_ONLY
    @pytest.mark.usefixtures("fresh_pool")
    def test_crashed_worker_gives_errors(self, tmp_path, monkeypatch):
        # a worker process that dies breaks the pool; the points without a
        # result get errors, the finished ones keep reports and cache
        # entries, and run_sweep returns normally
        spec = calibrate.SweepSpec(
            axis="tweezer_frequency",
            grid=tuple(r * calibrate.DEFAULT_COM_FREQUENCY
                       for r in (0.18, 0.20, 0.22, 0.24)),
            config=config(), cutoffs=(10,))
        real = calibrate._evaluate_point

        def crash_last(config_, thermal, backend):
            if config_.tweezer_frequency == spec.grid[-1]:
                time.sleep(1.0)  # let the other points finish first
                os._exit(1)
            return real(config_, thermal, backend)

        monkeypatch.setattr(calibrate, "_evaluate_point", crash_last)
        cache = tmp_path / "cache"
        pts = calibrate.run_sweep(spec, jobs=2, cache_dir=str(cache))
        assert [p.ok for p in pts] == [True, True, True, False]
        assert "BrokenProcessPool" in pts[-1].error
        assert pts[-1].report is None
        assert len(list(cache.iterdir())) == 3
        serial = calibrate.run_sweep(
            dataclasses.replace(spec, grid=spec.grid[:-1]))
        assert [p.report.as_dict() for p in pts[:-1]] == \
               [p.report.as_dict() for p in serial]

    def test_jobs_validation(self):
        spec = calibrate.SweepSpec(axis="nbar", grid=(0.0,),
                                   config=config(), cutoffs=(10,))
        with pytest.raises(ValueError, match="jobs"):
            calibrate.run_sweep(spec, jobs=0)
        # too many or no retained modes: the point's inputs raise, and the
        # point carries the error
        for cutoffs in ((10, 10, 10), ()):
            [pt] = calibrate.run_sweep(
                dataclasses.replace(spec, cutoffs=cutoffs))
            assert pt.error == (f"ValueError: mode_cutoffs lists "
                                f"{len(cutoffs)} modes, but the 2-ion "
                                f"crystal has 2")

    @pytest.mark.usefixtures("fresh_pool")
    def test_pool_no_larger_than_pending_points(self, tmp_path,
                                                monkeypatch):
        # under fork every worker starts at the first submit, so the pool
        # is sized by the points left to run, cached ones not counted
        sizes = record_pools(monkeypatch)
        spec = calibrate.SweepSpec(
            axis="tweezer_frequency",
            grid=tuple(r * calibrate.DEFAULT_COM_FREQUENCY
                       for r in (0.20, 0.22, 0.24)),
            config=config(), cutoffs=(10,))
        cache = str(tmp_path / "cache")
        calibrate.run_sweep(dataclasses.replace(spec, grid=spec.grid[:1]),
                            cache_dir=cache)
        pts = calibrate.run_sweep(spec, jobs=6, cache_dir=cache)
        assert sizes == [2]
        assert all(p.ok for p in pts)

    def test_threshold_crossings(self):
        spec = calibrate.SweepSpec(
            axis="tweezer_frequency",
            grid=tuple(r * calibrate.DEFAULT_COM_FREQUENCY
                       for r in (0.12, 0.20, 0.25)),
            config=config(), cutoffs=(16,))
        pts = calibrate.run_sweep(spec)
        cross = calibrate.threshold_crossings(pts, (0.99, 0.999, 0.99999))
        assert cross[0.99] == pytest.approx(
            0.12 * calibrate.DEFAULT_COM_FREQUENCY)
        assert cross[0.999] is not None
        assert cross[0.99999] is None

    def test_crossings_do_not_depend_on_grid_direction(self):
        # the smallest grid value reaching each target, also on a
        # descending grid
        up = calibrate.SweepSpec(
            axis="tweezer_frequency",
            grid=tuple(r * calibrate.DEFAULT_COM_FREQUENCY
                       for r in (0.12, 0.20, 0.25)),
            config=config(), cutoffs=(16,))
        down = dataclasses.replace(up, grid=up.grid[::-1])
        targets = (0.99, 0.999, 0.99999)
        cross = calibrate.threshold_crossings(calibrate.run_sweep(up),
                                              targets)
        assert calibrate.threshold_crossings(calibrate.run_sweep(down),
                                             targets) == cross
        assert cross[0.99] == up.grid[0]


class TestSharedPool:
    """Pooled calls in one process share one worker pool."""

    @staticmethod
    def spec(*ratios):
        return calibrate.SweepSpec(
            axis="tweezer_frequency",
            grid=tuple(r * calibrate.DEFAULT_COM_FREQUENCY for r in ratios),
            config=config(), cutoffs=(10,))

    @pytest.mark.usefixtures("fresh_pool")
    def test_calls_reuse_one_pool(self, monkeypatch):
        sizes = record_pools(monkeypatch)
        spec = self.spec(0.18, 0.20, 0.22)
        first = calibrate.run_sweep(spec, jobs=2)
        again = calibrate.run_sweep(spec, jobs=2)
        table = calibrate.four_ion_table(W_TW_TABLE, DELTA,
                                         backend="gaussian", jobs=2)
        assert sizes == [2]
        assert all(p.ok for p in first) and len(table) == 4
        assert [p.report.as_dict() for p in again] == \
               [p.report.as_dict() for p in first]

    @pytest.mark.usefixtures("fresh_pool")
    def test_other_worker_count_builds_a_new_pool(self, monkeypatch):
        sizes = record_pools(monkeypatch)
        spec = self.spec(0.18, 0.20, 0.22)
        for jobs in (2, 3, 3, 2):
            assert all(p.ok for p in calibrate.run_sweep(spec, jobs=jobs))
        assert sizes == [2, 3, 2]

    @FORK_ONLY
    @pytest.mark.usefixtures("fresh_pool")
    def test_new_pool_after_a_crashed_worker(self, monkeypatch):
        spec = self.spec(0.18, 0.20, 0.22, 0.24)
        real = calibrate._evaluate_point

        def crash_last(config_, thermal, backend):
            if config_.tweezer_frequency == spec.grid[-1]:
                os._exit(1)
            return real(config_, thermal, backend)

        monkeypatch.setattr(calibrate, "_evaluate_point", crash_last)
        sizes = record_pools(monkeypatch,
                             concurrent.futures.ProcessPoolExecutor)
        assert not calibrate.run_sweep(spec, jobs=2)[-1].ok
        monkeypatch.setattr(calibrate, "_evaluate_point", real)
        pts = calibrate.run_sweep(spec, jobs=2)
        assert sizes == [2, 2]
        assert [p.report.as_dict() for p in pts] == \
               [p.report.as_dict() for p in calibrate.run_sweep(spec)]

    @FORK_ONLY
    @pytest.mark.usefixtures("fresh_pool")
    def test_interrupted_call_leaves_no_point_to_the_next(self, tmp_path,
                                                          monkeypatch):
        # an interrupt in the parent (here from the cache write) ends the
        # call; none of its points may run during the next call
        log = tmp_path / "evaluated"
        real = calibrate._evaluate_point

        def logged(config_, thermal, backend):
            time.sleep(0.05)  # leave points queued when the interrupt comes
            with open(log, "a") as fh:
                fh.write(f"{config_.tweezer_frequency!r}\n")
            return real(config_, thermal, backend)

        def interrupt(path, payload):
            raise KeyboardInterrupt

        monkeypatch.setattr(calibrate, "_evaluate_point", logged)
        monkeypatch.setattr(calibrate, "_write_cached", interrupt)
        first = self.spec(*(0.10 + 0.01 * k for k in range(8)))
        with pytest.raises(KeyboardInterrupt):
            calibrate.run_sweep(first, jobs=2, cache_dir=str(tmp_path / "c"))
        done = len(log.read_text().split())
        spec = self.spec(0.21, 0.23, 0.25)
        pts = calibrate.run_sweep(spec, jobs=2)
        late = [float(v) for v in log.read_text().split()[done:]]
        assert sorted(late) == sorted(spec.grid)
        assert [p.report.as_dict() for p in pts] == \
               [p.report.as_dict() for p in calibrate.run_sweep(spec)]

    def test_pooled_session_exits_cleanly(self, tmp_path):
        # a test session that pools through the CLI, the shape in which an
        # executor left to interpreter teardown printed "Exception ignored
        # in ... weakref_cb": the pool is shut down at exit, quietly, and no
        # worker is left running
        test = tmp_path / "test_pooled.py"
        test.write_text(textwrap.dedent("""
            import multiprocessing
            from tweezergate import cli

            def test_sweep(tmp_path):
                assert cli.main(["sweep", "--config", "fig3_delta1kHz",
                                 "--out-dir", str(tmp_path),
                                 "--jobs", "2"]) == 0
                print("workers", *[p.pid for p in
                                   multiprocessing.active_children()])
            """))
        src = os.path.dirname(os.path.dirname(calibrate.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-s", "-p",
             "no:cacheprovider", str(test)], cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout
        assert proc.stderr == ""
        line = next(x for x in proc.stdout.splitlines()
                    if x.startswith("workers"))
        pids = [int(p) for p in line.split()[1:]]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestFourIonTable:
    def test_reproduces_published_study(self):
        table = calibrate.four_ion_table(W_TW_TABLE, DELTA,
                                         backend="gaussian")
        assert [st.pair for st in table] == [(1, 2), (1, 3), (1, 4), (2, 3)]
        want_off = (1220.8, 1338.6, 1507.6, 1168.9)
        want_inf = (1.575, 2.327, 1.344, 2.453)
        for st, off, inf in zip(table, want_off, want_inf):
            assert st.offset_hz == pytest.approx(off, abs=0.1)
            assert st.infidelity_x1e4 == pytest.approx(inf, abs=0.01)
            assert st.fidelity > 0.999
        published = (3.7, 4.7, 2.4, 1.1)
        for st, pub in zip(table, published):
            assert st.infidelity_x1e4 < 10.0
            ratio = st.infidelity_x1e4 / pub
            assert 1.0 / 3.0 < ratio < 3.0

    def test_column_backend_agrees(self):
        table = calibrate.four_ion_table(W_TW_TABLE, DELTA,
                                         backend="column", jobs=2)
        want_inf = (1.575, 2.327, 1.344, 2.453)
        for st, inf in zip(table, want_inf):
            assert st.infidelity_x1e4 == pytest.approx(inf, abs=2e-3)

    def test_thermal_column_table_matches_gaussian(self):
        # every Fock column of all four modes (3024 states) at nbar_com 0.3
        col = calibrate.four_ion_table(W_TW_TABLE, DELTA, nbar_com=0.3,
                                       backend="column")
        gau = calibrate.four_ion_table(W_TW_TABLE, DELTA, nbar_com=0.3,
                                       backend="gaussian")
        for st_c, st_g in zip(col, gau):
            assert st_c.pair == st_g.pair
            assert abs(st_c.fidelity - st_g.fidelity) < 1e-9

    def test_ordered_mirror_pairs_agree(self):
        # reflecting the chain maps (i, j) to (n-1-i, n-1-j): qubit 0 stays
        # on the reflected image of its ion, and the row is unchanged
        trap4 = trap(4)
        cutoffs = (14, 6, 6, 6)
        thermal = hilbert.equal_temperature_ensemble(
            0.3, crystal.normal_modes(trap4).frequencies, cutoffs)
        space = hilbert.SpaceSpec(2, cutoffs)

        def row(p):
            mu = calibrate.corrected_drive_frequency(trap4, p, W_TW_TABLE,
                                                     DELTA)
            cfg = drive.GateConfig(trap=trap4, pair=p,
                                   tweezer_frequency=W_TW_TABLE,
                                   field_amplitude=2.69e-4, detuning=DELTA,
                                   drive_frequency=mu)
            return mu, metric.fidelity_report(cfg, thermal, space,
                                               backend="gaussian").fidelity

        n = trap4.n_ions
        for i, j in calibrate.table_pairs(n):
            mu_a, f_a = row((i, j))
            mu_b, f_b = row((n - 1 - i, n - 1 - j))
            assert abs(mu_a - mu_b) <= 1e-12 * mu_a
            assert abs(f_a - f_b) < 1e-12

    @pytest.mark.xfail(strict=True, reason=(
        "not mirror symmetric: the corrected drive frequencies of chain "
        "pairs (1,2) and (3,4) differ by 29 rad/s, and with one drive "
        "frequency their fidelities still differ by 1.6e-5"))
    @pytest.mark.parametrize("pair", [(0, 1), (0, 2)])
    def test_mirror_pairs_agree(self, pair):
        # the table lists one pair of each mirror image (i, j) and
        # (n-1-j, n-1-i) of the symmetric chain
        trap4 = trap(4)
        cutoffs = (14, 6, 6, 6)
        thermal = hilbert.equal_temperature_ensemble(
            0.3, crystal.normal_modes(trap4).frequencies, cutoffs)
        space = hilbert.SpaceSpec(2, cutoffs)

        def report(p):
            mu = calibrate.corrected_drive_frequency(trap4, p, W_TW_TABLE,
                                                     DELTA)
            cfg = drive.GateConfig(trap=trap4, pair=p,
                                   tweezer_frequency=W_TW_TABLE,
                                   field_amplitude=2.69e-4, detuning=DELTA,
                                   drive_frequency=mu)
            return metric.fidelity_report(cfg, thermal, space,
                                          backend="gaussian")

        i, j = pair
        n = trap4.n_ions
        a = report((i, j))
        b = report((n - 1 - j, n - 1 - i))
        assert abs(a.fidelity - b.fidelity) < 1e-9

    @FORK_ONLY
    @pytest.mark.usefixtures("fresh_pool")
    def test_crashed_worker_names_the_pair(self, monkeypatch):
        real = calibrate._evaluate_point

        def crash_first_pair(config_, thermal, backend):
            if config_.pair == (0, 1):
                os._exit(1)
            return real(config_, thermal, backend)

        monkeypatch.setattr(calibrate, "_evaluate_point", crash_first_pair)
        with pytest.raises(RuntimeError,
                           match=r"pair \(1, 2\) failed: BrokenProcessPool"):
            calibrate.four_ion_table(W_TW_TABLE, DELTA, backend="gaussian",
                                     jobs=2)

    @pytest.mark.usefixtures("fresh_pool")
    def test_cached_pairs_start_no_pool(self, tmp_path, monkeypatch):
        sizes = record_pools(monkeypatch)
        cache = str(tmp_path / "cache")
        first = calibrate.four_ion_table(W_TW_TABLE, DELTA,
                                         backend="gaussian", jobs=3,
                                         cache_dir=cache)
        again = calibrate.four_ion_table(W_TW_TABLE, DELTA,
                                         backend="gaussian", jobs=3,
                                         cache_dir=cache)
        assert sizes == [3]
        assert len(os.listdir(cache)) == 4
        assert [st.report.as_dict() for st in again] == \
               [st.report.as_dict() for st in first]

    def test_validation(self):
        # the point runner's and GateConfig's checks; the crystal size and
        # the retained modes are the caller's choice
        with pytest.raises(ValueError, match="jobs"):
            calibrate.four_ion_table(W_TW_TABLE, DELTA, jobs=0)
        with pytest.raises(ValueError, match="detuning"):
            calibrate.four_ion_table(W_TW_TABLE, 0.0)
        # one ensemble for every row, checked before any pair runs
        for cutoffs in ((14,) * 5, ()):
            with pytest.raises(ValueError, match=(
                    f"mode_cutoffs lists {len(cutoffs)} modes, but the "
                    f"4-ion crystal has 4")):
                calibrate.four_ion_table(W_TW_TABLE, DELTA, cutoffs=cutoffs)
        assert len(calibrate.four_ion_table(W_TW_TABLE, DELTA, trap=trap(2),
                                            cutoffs=(14,))) == 1
        assert len(calibrate.four_ion_table(W_TW_TABLE, DELTA,
                                            cutoffs=(14, 6))) == 4

    def test_is_the_pair_table_of_its_config(self):
        cfg = drive.GateConfig(trap=trap(4), pair=(0, 1),
                               tweezer_frequency=W_TW_TABLE,
                               field_amplitude=2.69e-4, detuning=DELTA)
        got = calibrate.four_ion_table(W_TW_TABLE, DELTA, nbar_com=0.3,
                                       backend="gaussian")
        want = calibrate.pair_table(cfg, (14, 6, 6, 6), nbar_com=0.3)
        assert got == want


class TestPairTable:
    """Row p of the pair table is the gate report at pair p."""

    def test_pair_rule_at_four_ions(self):
        assert [(i + 1, j + 1) for i, j in calibrate.table_pairs(4)] == \
               [(1, 2), (1, 3), (1, 4), (2, 3)]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_one_pair_per_reflection_class(self, n):
        listed = calibrate.table_pairs(n)
        assert len(set(listed)) == len(listed)
        assert all(0 <= i < j < n for i, j in listed)
        for i in range(n):
            for j in range(i + 1, n):
                cls = {(i, j), (n - 1 - j, n - 1 - i)}
                assert len(cls & set(listed)) == 1

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 6), n_modes=st.integers(1, 6),
           ramp=st.floats(0.0, 0.25), swap=st.booleans(),
           mu_offset=st.none() | st.floats(-0.5, 0.5),
           nbar_com=st.sampled_from([0.0, 0.3]))
    def test_rows_are_fidelity_reports(self, n, n_modes, ramp, swap,
                                       mu_offset, nbar_com):
        # any crystal, retained modes, ramp, listing order of a boundary's
        # qubits and set or resolved drive frequency
        n_modes = min(n_modes, n)
        w = calibrate.DEFAULT_COM_FREQUENCY
        mu = None if mu_offset is None else w + DELTA * (1.0 + mu_offset)
        cfg = config(trap=trap(n), pair=(n - 1, 0), ramp_fraction=ramp,
                     tweezer_frequency=W_TW_TABLE, drive_frequency=mu,
                     echo_schedule=((1, 0) if swap else (0, 1), (0,), (1,)))
        cutoffs = (10,) * n_modes
        table = calibrate.pair_table(cfg, cutoffs, nbar_com=nbar_com)
        thermal = hilbert.equal_temperature_ensemble(
            nbar_com, crystal.normal_modes(cfg.trap).frequencies[:n_modes],
            cutoffs)
        space = hilbert.SpaceSpec(2, cutoffs)
        assert [st_.pair for st_ in table] == [
            (i + 1, j + 1) for i, j in calibrate.table_pairs(n)]
        for row in table:
            pair = (row.pair[0] - 1, row.pair[1] - 1)
            rep = metric.fidelity_report(
                dataclasses.replace(cfg, pair=pair), thermal, space,
                backend="gaussian")
            assert row.report.as_dict() == rep.as_dict()
            assert row.fidelity == rep.fidelity
            assert row.drive_frequency == rep.parameters[
                "drive_frequency_rad_s"]
            if mu is not None:
                assert row.drive_frequency == mu


    def test_row_and_sweep_point_share_a_cache_entry(self, tmp_path,
                                                     monkeypatch):
        # a cache entry is keyed by the gate point alone, whichever driver
        # built it
        cfg = config(trap=trap(3), tweezer_frequency=W_TW_TABLE)
        cache = str(tmp_path / "cache")
        table = calibrate.pair_table(cfg, (10, 6), nbar_com=0.3,
                                     cache_dir=cache)
        real = calibrate._evaluate_point
        calls = []

        def counting(config_, thermal, backend):
            calls.append(config_.pair)
            return real(config_, thermal, backend)

        monkeypatch.setattr(calibrate, "_evaluate_point", counting)
        for row in table:
            at_pair = dataclasses.replace(
                cfg, pair=(row.pair[0] - 1, row.pair[1] - 1))
            spec = calibrate.SweepSpec(
                axis="tweezer_frequency", grid=(W_TW_TABLE,),
                config=at_pair, cutoffs=(10, 6), nbar_com=0.3)
            [pt] = calibrate.run_sweep(spec, cache_dir=cache)
            assert pt.report.as_dict() == row.report.as_dict()
        assert calls == []
        assert len(os.listdir(cache)) == len(table) == 2


class TestParameterRecord:
    @pytest.mark.parametrize("preset,digest", [
        ("fig2", "4a22d985ac433c96ff3b7d859bbd87973ef2c43707dcaa59b608d77dc1e"
                 "41d36"),
        ("table1", "71e9f306060ae352aa809b3e6c98b16196e422c9530e48d4c7c31985"
                   "a9dcdab7"),
    ])
    def test_config_hash_digests_are_stable(self, preset, digest,
                                            monkeypatch):
        # the key's canonical form of a parameter set stays stable: the
        # digests were taken at engine version 5 and still read the same
        # there, while an entry written at 5 misses at today's version
        inputs = cli.build_inputs(cli.load_document(preset))

        def key():
            return calibrate.config_hash(
                inputs.gate_config(), inputs.thermal.nbar,
                inputs.space.mode_cutoffs, inputs.backend)

        assert key() != digest
        monkeypatch.setattr(calibrate, "ENGINE_VERSION", 5)
        assert key() == digest

    def test_every_config_field_reaches_key_and_snapshot(self):
        # a GateConfig field left out of the shared record would let two
        # different gates share a cache entry and an identical report
        base = config()
        other = {
            "trap": crystal.TrapSpec(2, calibrate.YB171_MASS_KG,
                                     0.9 * calibrate.DEFAULT_COM_FREQUENCY),
            "pair": (1, 0),
            "tweezer_frequency": 0.24 * calibrate.DEFAULT_COM_FREQUENCY,
            "field_amplitude": 2.5e-4,
            "detuning": 2.0 * DELTA,
            "drive_frequency": calibrate.DEFAULT_COM_FREQUENCY + 1.5 * DELTA,
            "pulse_count": 2,
            "field_on_mask": (True, False, False, False),
            "echo_schedule": ((0,), (0, 1), (1,)),
            "ramp_fraction": 0.02,
        }
        assert set(other) == {f.name for f in dataclasses.fields(base)}
        space = hilbert.SpaceSpec(2, (8,))
        thermal = hilbert.ThermalEnsemble((0.0,), (8,))

        def key_and_snapshot(cfg):
            rep = metric.fidelity_report(cfg, thermal, space,
                                         backend="gaussian")
            return (calibrate.config_hash(cfg, thermal.nbar, (8,),
                                          "gaussian"), rep.parameters)

        key0, snap0 = key_and_snapshot(base)
        for name, value in other.items():
            changes = {name: value}
            if name == "pulse_count":
                changes.update(field_on_mask=(True, True),
                               echo_schedule=((),))
            key, snap = key_and_snapshot(dataclasses.replace(base, **changes))
            assert key != key0, name
            assert snap != snap0, name
