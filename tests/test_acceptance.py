"""Acceptance gate.

Each numbered criterion runs at its stated tolerance and prints one
`ACCEPTANCE n (<label>): PASS|FAIL [<seconds>]` verdict line (visible
under `pytest -rA`, which echoes captured stdout for passing tests).
Auxiliary regression tests at the bottom pin the computed curves so
silent drift cannot hide behind a still-passing threshold.
"""

import contextlib
import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.constants as const
import scipy.optimize

import oracles
from tweezergate import calibrate, cli, crystal, drive, evolve, hilbert, metric

W = 2 * np.pi * 1e6
M_ION = 171.0 * const.atomic_mass
DELTA = -2 * np.pi * 1e3
FIELD = 2.69e-4
REPO_ROOT = Path(__file__).resolve().parents[1]

# tweezer-ratio grid r = omega_tw / omega_com shared by the sweep criteria
RATIO_GRID = np.linspace(0.12, 0.30, 10)

# pinned sweep curves (gaussian backend, cutoff 20, delta = -2 pi x 1 kHz)
FIG3_FBAR = {
    0.6: (0.998487, 0.998363, 0.999038, 0.999571, 0.999658,
          0.999590, 0.999692, 0.999698, 0.999578, 0.999655),
    1.0: (0.997938, 0.997770, 0.998689, 0.999416, 0.999533,
          0.999441, 0.999580, 0.999588, 0.999425, 0.999530),
}

# pinned single-mode fidelities and |two-mode - single-mode| gaps at r=0.25
SINGLE_MODE_FBAR = {0.0: 0.99982312, 0.6: 0.99961122, 1.0: 0.99947002}
TWO_MODE_GAP = {0.0: 2.229e-06, 0.6: 6.044e-06, 1.0: 8.408e-06}

PUBLISHED_INFID_X1E4 = (3.7, 4.7, 2.4, 1.1)
PUBLISHED_OFFSETS_KHZ = (1.212, 1.325, 1.488, 1.162)


@contextlib.contextmanager
def criterion(num, label, runtime_limit=None):
    t0 = time.perf_counter()
    try:
        yield
        dt = time.perf_counter() - t0
        if runtime_limit is not None and dt > runtime_limit:
            raise AssertionError(f"runtime {dt:.1f} s exceeds the "
                                 f"{runtime_limit:.0f} s limit")
    except BaseException:
        dt = time.perf_counter() - t0
        print(f"ACCEPTANCE {num} ({label}): FAIL [{dt:.1f} s]")
        raise
    print(f"ACCEPTANCE {num} ({label}): PASS [{dt:.1f} s]")


def trap(n=2):
    return crystal.TrapSpec(n, M_ION, W)


def gate_config(**kw):
    base = dict(trap=trap(2), pair=(0, 1), tweezer_frequency=0.25 * W,
                field_amplitude=FIELD, detuning=DELTA)
    base.update(kw)
    return drive.GateConfig(**base)


def chain_potential(u):
    v = 0.5 * np.sum(u ** 2)
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            v += 1.0 / abs(u[i] - u[j])
    return v


def chain_gradient(u):
    g = u.copy()
    for i in range(len(u)):
        for j in range(len(u)):
            if j != i:
                d = u[i] - u[j]
                g[i] -= np.sign(d) / d ** 2
    return g


def equilibrium_oracle(n):
    """Independent equilibrium: BFGS descent plus a force-balance polish."""
    u0 = np.linspace(-1.0, 1.0, n) * (0.5 * n ** 0.56)
    res = scipy.optimize.minimize(chain_potential, u0, jac=chain_gradient,
                                  method="BFGS", options={"gtol": 1e-12})
    res = scipy.optimize.root(chain_gradient, res.x, tol=1e-14)
    u = np.sort(res.x)
    return u - np.mean(u)


def compute_fig3_sweeps():
    out = {}
    grid = tuple(RATIO_GRID * W)
    for nbar in sorted(FIG3_FBAR):
        spec = calibrate.SweepSpec(axis="tweezer_frequency", grid=grid,
                                   config=gate_config(), cutoffs=(20,),
                                   nbar_com=nbar, backend="gaussian")
        out[nbar] = calibrate.run_sweep(spec, jobs=2)
    return out


def compute_mode_truncation_fidelities():
    """Single-mode (cutoff 20) vs two-mode (14, 10) fidelity at r = 0.25."""
    out = {}
    freqs = crystal.normal_modes(trap(2)).restrict(range(2)).frequencies
    for nbar in sorted(SINGLE_MODE_FBAR):
        pair = {}
        for cutoffs in ((20,), (14, 10)):
            space = hilbert.SpaceSpec(2, cutoffs)
            if len(cutoffs) == 1:
                th = hilbert.ThermalEnsemble((nbar,), cutoffs)
            else:
                th = hilbert.equal_temperature_ensemble(nbar, freqs, cutoffs)
            pair[len(cutoffs)] = metric.fidelity_report(
                gate_config(), th, space, backend="gaussian").fidelity
        out[nbar] = (pair[1], pair[2])
    return out


@pytest.fixture(scope="module")
def fig3_sweeps():
    return compute_fig3_sweeps()


@pytest.fixture(scope="module")
def mode_truncation_fidelities():
    return compute_mode_truncation_fidelities()


def test_criterion_1_mode_oracles():
    with criterion(1, "normal-mode oracles", runtime_limit=1.0):
        freqs = crystal.normal_modes(trap(2)).frequencies
        np.testing.assert_allclose(freqs, [W, math.sqrt(3.0) * W],
                                   rtol=1e-9)
        for n in (2, 3, 4, 6):
            modes = crystal.normal_modes(trap(n))
            np.testing.assert_allclose(modes.vectors[0] ** 2,
                                       np.full(n, 1.0 / n), atol=1e-10)
            u = crystal.equilibrium_positions(trap(n))
            np.testing.assert_allclose(u, equilibrium_oracle(n), atol=1e-10)


def test_criterion_2_fig3_thresholds():
    with criterion(2, "tweezer-sweep fidelity thresholds",
                   runtime_limit=1800.0):
        for nbar, points in compute_fig3_sweeps().items():
            assert all(p.ok for p in points)
            fbar = np.array([p.report.fidelity for p in points])
            assert fbar.shape == RATIO_GRID.shape
            assert np.all(fbar >= 0.99), f"nbar={nbar}: F < 0.99 on grid"
            high = fbar[RATIO_GRID >= 0.22 - 1e-12]
            assert np.all(high >= 0.999), f"nbar={nbar}: F < 0.999 tail"


def test_criterion_3_two_mode_consistency():
    with criterion(3, "two-mode vs single-mode consistency"):
        fidelities = compute_mode_truncation_fidelities()
        for nbar, (single, two) in fidelities.items():
            assert abs(two - single) < 1e-3, f"nbar={nbar}"


def test_criterion_4_four_ion_table(tmp_path):
    with criterion(4, "four-ion pair table", runtime_limit=7200.0):
        out = tmp_path / "table"
        rc = cli.main(["table4", "--config", "table1",
                       "--out-dir", str(out), "--jobs", "2"])
        assert rc == 0
        payload = json.loads((out / "table4.json").read_text())
        rows = payload["rows"]
        assert [tuple(r["pair"]) for r in rows] == \
            [(1, 2), (1, 3), (1, 4), (2, 3)]
        for row, ref_i, ref_o in zip(rows, PUBLISHED_INFID_X1E4,
                                     PUBLISHED_OFFSETS_KHZ):
            infid = row["infidelity_x1e4"]
            assert 0.0 < infid < 10.0
            assert ref_i / 3.0 < infid < ref_i * 3.0
            assert row["omega_com_minus_mu_khz"] == \
                pytest.approx(ref_o, rel=0.10)
        conv = payload["conventions"]
        for key in ("pair_indexing", "offset_definition", "drive_frequency",
                    "conditional_phase", "modes"):
            assert isinstance(conv[key], str) and conv[key]


def _check_gate_unitarity():
    space = hilbert.SpaceSpec(2, (20,))
    psi, _ = evolve.run_gate(gate_config(), "01", (0,), space,
                             backend="ode", tol=1e-10)
    drift = abs(np.linalg.norm(psi) - 1.0)
    assert drift < 1e-9, f"norm drift {drift:.2e} through the gate"


def _check_driven_oscillator():
    # i d|psi>/dt = gamma (a e^{i delta t} + h.c.) from vacuum gives
    # <a(t)> = (gamma/delta)(e^{-i delta t} - 1)
    cut = 30
    a, ad = oracles.ladder_operators(cut)
    delta = 2 * np.pi * 2e4
    gamma = 0.25 * delta
    h = lambda t: gamma * (a * np.exp(1j * delta * t)  # noqa: E731
                           + ad * np.exp(-1j * delta * t))
    psi = np.zeros(cut + 1, dtype=complex)
    psi[0] = 1.0
    t_prev = 0.0
    for k in range(1, 13):
        t_k = k * (2 * np.pi / delta) / 12
        psi = oracles.propagate(h, psi, t_prev, t_k, tol=1e-10)
        ref = gamma / delta * (np.exp(-1j * delta * t_k) - 1.0)
        assert abs(np.vdot(psi, a @ psi) - ref) < 1e-6
        t_prev = t_k
    assert abs(np.vdot(psi, a @ psi)) < 1e-6  # loop closes after 2 pi/delta


def _check_loop_suppression():
    space = hilbert.SpaceSpec(2, (20,))
    peak = {}
    for label in ("00", "01", "10", "11"):
        _, traj = evolve.run_gate(gate_config(), label, (0,), space,
                                  backend="gaussian")
        peak[label] = np.max(np.abs(traj.alpha))
    assert min(peak["01"], peak["10"]) >= 10.0 * max(peak["00"],
                                                     peak["11"])


def _unitary_channel(u):
    cfg = gate_config()
    space = hilbert.SpaceSpec(2, (2,))
    th = hilbert.ThermalEnsemble((0.0,), (2,))
    full = np.kron(u, np.eye(3))
    return oracles.channel_from_propagator(full, cfg, th, space)


def _check_fidelity_identities():
    rng = np.random.default_rng(172)
    v = np.diag(np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=4)))
    assert metric.process_fidelity(_unitary_channel(v), v) == \
        pytest.approx(1.0, abs=1e-12)
    sz1 = np.diag([1.0, 1.0, -1.0, -1.0])
    assert metric.process_fidelity(_unitary_channel(sz1 @ v), v) == \
        pytest.approx(0.2, abs=1e-12)


def _random_su2(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return q / np.linalg.det(q) ** 0.5


def _check_invariant_invariance():
    rng = np.random.default_rng(65)
    for _ in range(5):
        gate = np.diag(np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=4)))
        g1, g2 = metric.local_invariants(gate)
        left = np.kron(_random_su2(rng), _random_su2(rng))
        right = np.kron(_random_su2(rng), _random_su2(rng))
        h1, h2 = metric.local_invariants(left @ gate @ right)
        assert abs(h1 - g1) < 1e-10
        assert abs(h2 - g2) < 1e-10


def test_criterion_5_physics_properties():
    with criterion(5, "physics property suite", runtime_limit=300.0):
        _check_gate_unitarity()
        _check_driven_oscillator()
        _check_loop_suppression()
        _check_fidelity_identities()
        _check_invariant_invariance()


def test_criterion_6_consistency_report():
    with criterion(6, "consistency report"):
        tr = trap(2)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            e_rule = calibrate.field_for_gate_condition(
                DELTA, tr, "pi_over_4_coupling")
        assert len(rec) == 1  # the two calibrations disagree, loudly
        e_target = calibrate.field_for_gate_condition(
            DELTA, tr, "target_conditional_phase", phi=-math.pi / 4.0,
            tweezer_frequency=0.25 * W, pair=(0, 1), n_modes=1)

        space = hilbert.SpaceSpec(2, (20,))
        modes = evolve.retained_modes(gate_config(), space)
        rule_phases = metric.ideal_gate(
            gate_config(field_amplitude=e_rule), modes).phases
        raw_rule_phase = (rule_phases[0] + rule_phases[3]
                          - rule_phases[1] - rule_phases[2])

        phase_rows = {}
        for label, delta in (("delta_1khz", DELTA), ("delta_2khz", 2 * DELTA)):
            cfg = gate_config(detuning=delta)
            model = metric.ideal_gate(cfg, modes).conditional_phase
            th = hilbert.ThermalEnsemble((0.0,), (20,))
            sim = metric.fidelity_report(cfg, th, space,
                                         backend="gaussian").conditional_phase
            rel = abs(model - sim) / abs(sim)
            assert rel < 0.02, f"{label}: model off by {rel:.2%}"
            phase_rows[label] = {
                "effective_model_rad": model,
                "full_dynamics_rad": sim,
                "relative_difference": rel,
            }

        report = {
            "operating_point": {
                "n_ions": 2,
                "axial_frequency_hz": W / (2 * np.pi),
                "tweezer_ratio": 0.25,
                "field_amplitude_v_per_m": FIELD,
                "nbar": 0.0,
                "mode_cutoffs": [20],
            },
            "field_calibration": {
                "coupling_rule_field_v_per_m": e_rule,
                "phase_target_field_v_per_m": e_target,
                "field_ratio_rule_over_target": e_rule / e_target,
                "raw_conditional_phase_at_rule_field_rad": raw_rule_phase,
                "phase_ratio_to_pi_over_4": raw_rule_phase / (-math.pi / 4),
                "note": "setting gamma^2/delta^2 = pi/4 demands a field "
                        "about 5x above the stated operating amplitude "
                        "(25x in accumulated phase, since the phase is "
                        "quadratic in the field); the operating amplitude "
                        "is the one that closes a -pi/4 conditional phase",
            },
            "conditional_phase": dict(phase_rows,
                                      tolerance_relative=0.02),
        }
        path = REPO_ROOT / "consistency_report.json"
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"consistency report written to {path}")
        assert 4.0 < e_rule / e_target < 6.0
        assert raw_rule_phase == pytest.approx(-19.7495, abs=1e-3)


class TestPinnedCurves:
    """Regression pins for the values the criteria round off."""

    def test_fig3_reference_curves(self, fig3_sweeps):
        for nbar, points in fig3_sweeps.items():
            fbar = [p.report.fidelity for p in points]
            np.testing.assert_allclose(fbar, FIG3_FBAR[nbar], atol=5e-6)

    def test_mode_truncation_pins(self, mode_truncation_fidelities):
        for nbar, (single, two) in mode_truncation_fidelities.items():
            assert single == pytest.approx(SINGLE_MODE_FBAR[nbar],
                                           abs=5e-6)
            assert abs(two - single) == pytest.approx(TWO_MODE_GAP[nbar],
                                                      rel=0.05)
