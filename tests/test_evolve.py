"""Sequence propagation: integrators, schedules, run_gate, trajectories."""
import csv
import dataclasses
import json
import pathlib

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import literal_hamiltonian
from oracles import (
    ladder_operators,
    propagate,
    propagator,
    qubit_basis_state,
    ramp_envelope,
)
from tweezergate import (
    _exact,
    calibrate,
    crystal,
    drive,
    evolve,
    hilbert,
    metric,
)
from tweezergate.evolve import Trajectory, hamiltonian_terms, run_gate

W = 2 * np.pi * 1e6
M_ION = calibrate.YB171_MASS_KG


def trap(n=2):
    return crystal.TrapSpec(n, M_ION, W)


def config(**kw):
    base = dict(trap=trap(2), pair=(0, 1), tweezer_frequency=0.25 * W,
                field_amplitude=2.69e-4, detuning=-2 * np.pi * 1e3)
    base.update(kw)
    return drive.GateConfig(**base)


def fast_config(**kw):
    # 20x larger |delta| (50 us pulses) at the same gamma/|delta|, so the
    # loop geometry matches the slow gate while integration stays cheap
    base = dict(detuning=-2 * np.pi * 2e4, field_amplitude=20 * 2.69e-4)
    base.update(kw)
    return config(**base)


def pulse_pieces(setup, t_a):
    """drive.envelope_pieces of setup's pulse starting at t_a."""
    return drive.envelope_pieces(t_a, setup.tau, setup.ramp_time)


def random_h(dim, seed, rate=1e5):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h0 = sp.csr_matrix((base + base.conj().T) / 2)
    h1 = sp.csr_matrix(np.diag(rng.normal(size=dim)))
    return lambda t: 1e4 * h0 + 1e4 * np.cos(rate * t) * h1


class TestPropagate:
    def test_constant_diagonal_exact(self):
        d = np.array([0.0, 1.3e5, -2.7e5, 4.2e4])
        h = lambda t: sp.diags(d)  # noqa: E731
        rng = np.random.default_rng(7)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        out = propagate(h, psi, 0.0, 3.1e-5, tol=1e-10)
        np.testing.assert_allclose(out, np.exp(-1j * d * 3.1e-5) * psi,
                                   atol=1e-9)

    def test_driven_oscillator_closed_form(self):
        # i d|psi>/dt = gamma (a e^{i delta t} + h.c.) |psi> from vacuum:
        # <a(t)> = (gamma/delta)(e^{-i delta t} - 1), peak 2 gamma/|delta|
        cut = 30
        a, ad = ladder_operators(cut)
        delta = 2 * np.pi * 2e4
        gamma = 0.25 * delta
        h = lambda t: gamma * (a * np.exp(1j * delta * t)  # noqa: E731
                               + ad * np.exp(-1j * delta * t))
        psi = np.zeros(cut + 1, dtype=complex)
        psi[0] = 1.0
        t_prev = 0.0
        peak = 0.0
        for k in range(1, 13):
            t_k = k * (2 * np.pi / delta) / 12
            psi = propagate(h, psi, t_prev, t_k, tol=1e-10)
            mean = np.vdot(psi, a @ psi)
            ref = gamma / delta * (np.exp(-1j * delta * t_k) - 1)
            assert abs(mean - ref) < 1e-6
            peak = max(peak, abs(mean))
            t_prev = t_k
        assert abs(peak - 2 * gamma / delta) < 1e-6
        assert abs(np.vdot(psi, a @ psi)) < 1e-6  # closed after 2 pi/delta

    @pytest.mark.parametrize("tol", [1e-13, 2e-6, 0.0])
    def test_tol_range_enforced(self, tol):
        h = lambda t: sp.identity(2)  # noqa: E731
        with pytest.raises(ValueError, match="tol"):
            propagate(h, np.array([1.0, 0.0]), 0.0, 1.0, tol=tol)

    def test_tol_tightening_converges(self):
        h = random_h(5, seed=11)
        psi = np.zeros(5, dtype=complex)
        psi[0] = 1.0
        loose = propagate(h, psi, 0.0, 1e-4, tol=1e-8)
        tight = propagate(h, psi, 0.0, 1e-4, tol=1e-9)
        assert np.linalg.norm(loose - tight) < 10 * 1e-8

    def test_step_underflow_diagnostic(self):
        sx = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        h = lambda t: (10.0 / (1e-3 - t)) * sx  # noqa: E731
        with pytest.raises(RuntimeError, match="t = "):
            propagate(h, np.array([1.0, 0.0], dtype=complex), 0.0, 2e-3)


def scipy_dop853(generator, state, t0, t1, tol, max_step, t_eval):
    """The same solve through scipy.integrate.solve_ivp: (states, nfev)."""
    y0 = np.asarray(state, dtype=complex)

    def rhs(t, y):
        return (generator(t) @ y.reshape(y0.shape)).ravel()

    sol = scipy.integrate.solve_ivp(
        rhs, (t0, t1), y0.ravel(), method="DOP853", rtol=tol,
        atol=1e-3 * tol, max_step=max_step, t_eval=t_eval)
    assert sol.success
    return sol.y, sol.nfev


def random_generator(dim, seed):
    h = random_h(dim, seed)
    return lambda t: -1j * h(t)  # noqa: E731


class TestStepper:
    """evolve._integrate is scipy's DOP853 step for step: a step grid that
    differs from scipy's shows up at about tol, far above these bounds."""

    @pytest.mark.parametrize("columns", [None, 3])
    @pytest.mark.parametrize("t0, t1", [(0.0, 2e-4), (1e-4, 3e-4)])
    @pytest.mark.parametrize("binding", [False, True])
    def test_matches_scipy(self, columns, t0, t1, binding):
        dim, tol = 6, 1e-9
        gen = random_generator(dim, seed=41)
        rng = np.random.default_rng(43)
        shape = (dim,) if columns is None else (dim, columns)
        state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        t_eval = np.linspace(t0, t1, 7)[1:]  # interior points and t1
        max_step = 2e-6 if binding else np.inf
        want, nfev = scipy_dop853(gen, state, t0, t1, tol, max_step, t_eval)
        if binding:  # the cap shortens scipy's own steps
            assert nfev > scipy_dop853(gen, state, t0, t1, tol, np.inf,
                                       t_eval)[1]
        got = evolve._integrate(gen, state, t0, t1, tol, max_step,
                                t_eval=t_eval)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_compiled_generator_matches_scipy(self):
        # the batched stage evaluation and the CSR kernel against the
        # operator of each stage time through scipy
        cfg = fast_config()
        space = hilbert.SpaceSpec(2, (5,))
        setup = _exact.setup_from_config(cfg,
                                         evolve.retained_modes(cfg, space))
        gen = hamiltonian_terms(setup, space.mode_dims).generator(
            pulse_pieces(setup, 0.0))
        t1 = 0.25 * setup.tau  # the rising ramp and part of the flat top
        t_eval = np.array([0.01, 0.02, 0.1, 1.0]) * t1
        state = np.tile(np.eye(space.mode_dim)[:, :2], (4, 1))
        for y0 in (state[:, 0], state):
            want, _ = scipy_dop853(gen, y0, 0.0, t1, 1e-10, t1 / 100,
                                   t_eval)
            got = evolve._integrate(gen, y0, 0.0, t1, 1e-10, t1 / 100,
                                    t_eval=t_eval)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @settings(max_examples=15, deadline=None)
    @given(dim=st.integers(2, 12), log_tol=st.floats(-12.0, -6.0),
           seed=st.integers(0, 2 ** 16))
    def test_matches_scipy_random(self, dim, log_tol, seed):
        tol = 10.0 ** log_tol
        gen = random_generator(dim, seed)
        rng = np.random.default_rng(seed)
        state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        t_eval = np.sort(rng.uniform(0.0, 1e-4, size=3))
        want, _ = scipy_dop853(gen, state, 0.0, 1e-4, tol, np.inf, t_eval)
        got = evolve._integrate(gen, state, 0.0, 1e-4, tol, np.inf,
                                t_eval=t_eval)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("t_eval, match", [
        ([2e-5, 1e-5], "sorted"), ([1e-5, 2e-4], "within"),
        ([-1e-6], "within"), ([[1e-5]], "one-dimensional")])
    def test_t_eval_checked(self, t_eval, match):
        gen = random_generator(3, seed=5)
        with pytest.raises(ValueError, match=match):
            evolve._integrate(gen, np.ones(3), 0.0, 1e-4, 1e-9, np.inf,
                              t_eval=t_eval)

    def test_forward_only(self):
        # the one caller integrates each driven pulse forward, with a cap
        gen = random_generator(3, seed=5)
        with pytest.raises(ValueError, match="forward"):
            evolve._integrate(gen, np.ones(3), 1e-4, 0.0, 1e-9, np.inf)
        with pytest.raises(ValueError, match="max_step"):
            evolve._integrate(gen, np.ones(3), 0.0, 1e-4, 1e-9, 0.0)


class TestPropagator:
    def test_zero_hamiltonian_identity(self):
        h = lambda t: sp.csr_matrix((3, 3))  # noqa: E731
        u = propagator(h, 3, 0.0, 1.0)
        np.testing.assert_allclose(u, np.eye(3), atol=1e-12)

    def test_unitary_and_composition(self):
        h = random_h(4, seed=23)
        u01 = propagator(h, 4, 0.0, 1e-4, tol=1e-9)
        u12 = propagator(h, 4, 1e-4, 2e-4, tol=1e-9)
        u02 = propagator(h, 4, 0.0, 2e-4, tol=1e-9)
        assert np.linalg.norm(u01.conj().T @ u01 - np.eye(4)) < 1e-7
        assert np.linalg.norm(u12 @ u01 - u02) < 1e-7

    def test_matches_propagate(self):
        h = random_h(4, seed=29)
        rng = np.random.default_rng(31)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        u = propagator(h, 4, 0.0, 1.5e-4, tol=1e-10)
        direct = propagate(h, psi, 0.0, 1.5e-4, tol=1e-10)
        assert np.linalg.norm(u @ psi - direct) < 1e-9


class TestSchedule:
    def test_open_echo_rejected(self):
        # GateConfig refuses the schedule, so no backend can run it
        with pytest.raises(ValueError, match="echo does not close"):
            config(echo_schedule=((0,), (0,), (0,)))

    def test_trajectory_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(np.array([0.0, 1.0, 1.0]), np.zeros(3, complex), "01")
        with pytest.raises(ValueError, match="equal length"):
            Trajectory(np.array([0.0, 1.0]), np.zeros(3, complex), "01")


class TestHamiltonianTerms:
    """The compiled per-configuration Hamiltonian against the literal
    composite-space H(t) of tests/literal_hamiltonian.py."""

    def setup_method(self):
        self.cfg = config(tweezer_frequency=0.2 * W)
        self.modes = crystal.normal_modes(trap(2))
        self.space = hilbert.SpaceSpec(2, (3, 2))
        self.setup = _exact.setup_from_config(self.cfg, self.modes)
        self.h = hamiltonian_terms(self.setup, self.space.mode_dims)

    def literal(self, t, env):
        space, modes, cfg = self.space, self.modes, self.cfg
        h_tw = literal_hamiltonian.tweezer_hamiltonian(
            modes, cfg.pair, cfg.tweezer_frequency, space)
        h_field = literal_hamiltonian.field_hamiltonian(
            self.setup.gamma, self.setup.mu, space,
            com_frequency=modes.frequencies[0])
        return (h_tw(t) + env * h_field(t)).toarray()

    def test_matches_drive_factories(self):
        # the generator of a field pulse starting at t = 0 is the
        # literal H(t), which is block diagonal in the configurations
        d = self.space.mode_dim
        gen = self.h.generator(pulse_pieces(self.setup, 0.0))
        rng = np.random.default_rng(17)
        tau = self.cfg.pulse_duration
        for t in np.append(rng.uniform(0.0, tau, size=8), 0.005 * tau):
            ref = self.literal(t, float(drive.envelope(t, 0, self.cfg)))
            got = 1j * gen(t).toarray()  # the generator is -i H
            scale = np.abs(ref).max()
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-9 * scale)
            for c in range(4):
                blk = got[c * d:(c + 1) * d, c * d:(c + 1) * d]
                np.testing.assert_allclose(blk, blk.conj().T, rtol=0,
                                           atol=1e-12 * scale)

    def test_field_off_and_pulse_offset(self):
        tau = self.cfg.pulse_duration
        t = 3.004 * tau
        h_off = 1j * self.h.generator()(t).toarray()
        np.testing.assert_allclose(h_off, self.literal(t, 0.0), rtol=0,
                                   atol=1e-9 * np.abs(h_off).max())
        # the envelope runs from the pulse start t_a
        env = float(drive.envelope(t - 3 * tau, 3, self.cfg))
        assert 0.0 < env < 1.0
        h_on = 1j * self.h.generator(pulse_pieces(self.setup, 3 * tau))(
            t).toarray()
        np.testing.assert_allclose(h_on, self.literal(t, env), rtol=0,
                                   atol=1e-9 * np.abs(h_on).max())

    @pytest.mark.parametrize("edge", ["rise", "rise_end", "fall"])
    def test_stage_data_match_literal_envelope(self, edge):
        # the twelve stage times of one step on a ramp against the
        # per-time rows -i (static + env field) e^{i freqs t} data, env
        # the literal sin^2 of oracles.ramp_envelope: a step across the
        # rise's end, one ending exactly at t_a + t_r, one across the
        # fall's start
        tau, tr = self.setup.tau, self.setup.ramp_time
        t_a, step = 3 * tau, 0.5 * tr
        t_end = {"rise": t_a + tr + 0.3 * step, "rise_end": t_a + tr,
                 "fall": t_a + tau - tr + 0.7 * step}[edge]
        ts = t_end - (1.0 - evolve._tableau()[1]) * step
        assert len(ts) == 12 and ts[-1] == t_end
        got = self.h.generator(pulse_pieces(self.setup, t_a)).data(ts)
        envs = [ramp_envelope(t - t_a, tau, tr) for t in ts]
        assert any(0.0 < env < 1.0 for env in envs)
        want = np.array([
            (-1j * (self.h.static + env * self.h.field)
             * np.exp(1j * self.h.freqs * t) @ self.h.data).ravel()
            for t, env in zip(ts, envs)])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_field_free_propagator_matches_expm(self):
        # the ODE backend's field-free reference, built from the compiled
        # Hamiltonian, against expm(-i H0 tau) of the literal H0 = bare
        # number diagonal + tweezer term, moved into the interaction
        # picture of the pulse starting at t_a
        space, dims = self.space, self.space.mode_dims
        tau = self.setup.tau
        t_a = 3 * tau
        occ = np.indices(dims).reshape(len(dims), -1)
        e_bare = np.tile(self.modes.frequencies @ occ, 4)
        h_tw = literal_hamiltonian.tweezer_hamiltonian(
            self.modes, self.cfg.pair, self.cfg.tweezer_frequency, space)
        h0 = np.diag(e_bare) + h_tw(0.0).toarray()
        want = (np.exp(1j * e_bare * (t_a + tau))[:, None]
                * scipy.linalg.expm(-1j * tau * h0)) \
            * np.exp(-1j * e_bare * t_a)
        eye = np.eye(space.mode_dim)
        got = _exact.field_free_evolution(self.setup, dims, self.h, t_a,
                                          [eye] * 4, (tau,))[0]
        d = space.mode_dim
        for c in range(4):
            blk = slice(c * d, (c + 1) * d)
            np.testing.assert_allclose(got[c], want[blk, blk], rtol=0,
                                       atol=1e-9)
        # block diagonal in the configurations
        off = want.copy()
        for c in range(4):
            off[c * d:(c + 1) * d, c * d:(c + 1) * d] = 0.0
        assert np.abs(off).max() == 0.0

    def test_blocks_follow_configurations(self):
        # the rows of static selected for a pulse's configurations, as
        # _exact.walk_pulses selects them, give block c the tweezer of
        # configuration path[c]
        d = self.space.mode_dim
        path = [(1, 1), (1, -1), (-1, -1), (-1, 1)]
        rows = [_exact.CONFIG_S.index(cfg) for cfg in path]
        got = dataclasses.replace(self.h, static=self.h.static[rows])
        pieces = pulse_pieces(self.setup, 0.0)
        got = got.generator(pieces)(0.37e-3).toarray()
        ref = self.h.generator(pieces)(0.37e-3).toarray()
        for c, cfg in enumerate(path):
            r = _exact.CONFIG_S.index(cfg)
            np.testing.assert_allclose(
                got[c * d:(c + 1) * d, c * d:(c + 1) * d],
                ref[r * d:(r + 1) * d, r * d:(r + 1) * d],
                rtol=0, atol=1e-14 * np.abs(ref).max())

    def test_spin_sign_and_vacuum_element(self):
        # single mode, field off: <0|H_c(t)|0> = K_c / (4 w) with
        # K_c = w_tw^2 (s_i + s_j) / 2 for the uniform COM participation
        modes = self.modes.restrict([0])
        setup = _exact.setup_from_config(self.cfg, modes)
        gen = hamiltonian_terms(setup, (4,)).generator()
        h = 1j * gen(1.3e-6).toarray()
        w = modes.frequencies[0]
        unit = self.cfg.tweezer_frequency ** 2 / (4 * w)
        for c, (si, sj) in enumerate(_exact.CONFIG_S):
            assert h[4 * c, 4 * c] == pytest.approx(
                unit * (si + sj) / 2, rel=1e-12, abs=1e-9 * unit)

    def test_no_terms_when_off(self):
        cfg = config(tweezer_frequency=0.0, field_amplitude=0.0)
        setup = _exact.setup_from_config(cfg, self.modes)
        h = hamiltonian_terms(setup, self.space.mode_dims)
        assert h.freqs.size == 0
        assert h.generator(pulse_pieces(setup, 0.0))(1e-6).nnz == 0


class TestRunGate:
    def test_identity_when_off_gaussian(self):
        cfg = config(tweezer_frequency=0.0, field_amplitude=0.0)
        space = hilbert.SpaceSpec(2, (4,))
        psi0 = qubit_basis_state(space, "01")
        out, traj = run_gate(cfg, "01", (0,), space, backend="gaussian")
        phase = np.vdot(psi0, out)
        assert abs(abs(phase) - 1) < 1e-12
        assert np.linalg.norm(out - phase * psi0) < 1e-12
        assert np.abs(traj.alpha).max() < 1e-12

    def test_identity_when_off_ode(self):
        cfg = fast_config(tweezer_frequency=0.0, field_amplitude=0.0)
        space = hilbert.SpaceSpec(2, (2,))
        psi0 = qubit_basis_state(space, "10")
        out, traj = run_gate(cfg, "10", (0,), space, backend="ode")
        phase = np.vdot(psi0, out)
        assert abs(abs(phase) - 1) < 1e-9
        assert np.linalg.norm(out - phase * psi0) < 1e-9
        assert np.abs(traj.alpha).max() < 1e-9

    def test_sampling_contract(self):
        cfg = config()
        space = hilbert.SpaceSpec(2, (6,))
        _, traj = run_gate(cfg, "01", (0,), space, backend="gaussian")
        assert len(traj.times) == 4 * 200 + 1
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(cfg.pulse_count
                                               * cfg.pulse_duration)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.qubit_state_label == "01"
        with pytest.raises(ValueError, match="200"):
            run_gate(cfg, "01", (0,), space, samples_per_pulse=100)
        with pytest.raises(ValueError, match="whole number"):
            run_gate(cfg, "01", (0,), space, samples_per_pulse=250.5)

    def test_csv_export(self, tmp_path):
        cfg = config()
        space = hilbert.SpaceSpec(2, (6,))
        _, traj = run_gate(cfg, "11", (0,), space, backend="gaussian")
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time_s", "re_alpha", "im_alpha",
                           "qubit_state_label"]
        assert len(rows) == len(traj.times) + 1
        k = len(rows) // 2
        assert float(rows[k][0]) == pytest.approx(traj.times[k - 1])
        assert complex(float(rows[k][1]), float(rows[k][2])) == pytest.approx(
            traj.alpha[k - 1])
        assert rows[k][3] == "11"

    def test_input_validation(self):
        cfg = config()
        space = hilbert.SpaceSpec(2, (4,))
        with pytest.raises(ValueError, match="normalized"):
            run_gate(cfg, 2.0 * np.ones(4), (0,), space)
        with pytest.raises(ValueError, match="two qubits"):
            run_gate(cfg, "01", (0,), hilbert.SpaceSpec(1, (4,)))
        with pytest.raises(ValueError, match="backend"):
            run_gate(cfg, "01", (0,), space, backend="magic")
        with pytest.raises(ValueError, match="label"):
            run_gate(cfg, "02", (0,), space)
        with pytest.raises(ValueError, match="cutoff"):
            run_gate(cfg, "01", (9,), hilbert.SpaceSpec(2, (4,)))
        with pytest.raises(ValueError, match="length"):
            run_gate(cfg, "01", (0, 0), space)

    def test_superposition_label_and_trajectory(self):
        cfg = config()
        space = hilbert.SpaceSpec(2, (6,))
        plus = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
        _, traj = run_gate(cfg, plus, (0,), space, backend="gaussian")
        assert traj.qubit_state_label == "superposition"
        _, t01 = run_gate(cfg, "01", (0,), space, backend="gaussian")
        _, t10 = run_gate(cfg, "10", (0,), space, backend="gaussian")
        np.testing.assert_allclose(traj.alpha,
                                   0.5 * (t01.alpha + t10.alpha), atol=1e-12)

    def test_ode_matches_gaussian_trajectory(self):
        cfg = fast_config()
        space = hilbert.SpaceSpec(2, (10,))
        psi_o, traj_o = run_gate(cfg, "01", (0,), space, backend="ode",
                                 tol=1e-9)
        _, traj_g = run_gate(cfg, "01", (0,), space, backend="gaussian")
        assert np.abs(traj_o.alpha - traj_g.alpha).max() < 1e-6
        assert abs(np.linalg.norm(psi_o) - 1) < 1e-9  # norm drift

    def test_ode_superposition_is_weighted_basis_runs(self):
        # each qubit configuration is walked on its own step grid, so
        # linearity ties a superposition run to the four basis-state runs
        # (short pulses, |delta| = 0.05 w_com at the same gamma/|delta|,
        # and the tightest tolerance)
        cfg = config(detuning=-2 * np.pi * 5e4, field_amplitude=50 * 2.69e-4)
        space = hilbert.SpaceSpec(2, (3,))
        q = np.array([0.5, 0.5j, -0.5, 0.5])
        psi, traj = run_gate(cfg, q, (1,), space, backend="ode", tol=1e-12)
        runs = [run_gate(cfg, label, (1,), space, backend="ode", tol=1e-12)
                for label in ("00", "01", "10", "11")]
        psi_ref = sum(qc * p for qc, (p, _) in zip(q, runs))
        alpha_ref = sum(abs(qc) ** 2 * tr.alpha
                        for qc, (_, tr) in zip(q, runs))
        assert np.abs(psi - psi_ref).max() < 1e-10
        assert np.abs(traj.alpha - alpha_ref).max() < 1e-10

    def test_tol_only_for_ode(self):
        cfg = config()
        space = hilbert.SpaceSpec(2, (4,))
        with pytest.raises(ValueError, match="tol applies only to the ode"):
            run_gate(cfg, "01", (0,), space, backend="gaussian", tol=1e-9)

    def test_max_step_halving(self, monkeypatch):
        # halving the integrator's step cap, (2 pi / mu) / 20, moves the
        # final state by less than 1e-9
        cfg = fast_config()
        space = hilbert.SpaceSpec(2, (8,))
        p1, _ = run_gate(cfg, "01", (0,), space, backend="ode", tol=1e-10)
        monkeypatch.setattr(_exact, "STEPS_PER_DRIVE_PERIOD", 40)
        p2, _ = run_gate(cfg, "01", (0,), space, backend="ode", tol=1e-10)
        assert abs(abs(np.vdot(p1, p2)) - 1) < 1e-9

    def test_loop_closure_tracks_ramp(self):
        # the |01> loop's end-of-pulse residual is set by the envelope
        # ramps: |<a>(tau)| ~ pi * ramp_fraction * max|<a>|
        space = hilbert.SpaceSpec(2, (6,))
        for ramp, bound in ((0.016, 0.06), (0.004, 0.02)):
            cfg = config(ramp_fraction=ramp)
            _, traj = run_gate(cfg, "01", (0,), space, backend="gaussian")
            first = slice(0, 201)
            peak = np.abs(traj.alpha[first]).max()
            residual = abs(traj.alpha[200])
            assert residual < bound * peak
            assert residual == pytest.approx(np.pi * ramp * peak, rel=0.2)

    def test_loop_suppression_at_operating_point(self):
        cfg = config()
        space = hilbert.SpaceSpec(2, (6,))
        peaks = {}
        for label in ("01", "11", "00"):
            _, traj = run_gate(cfg, label, (0,), space, backend="gaussian")
            peaks[label] = np.abs(traj.alpha).max()
        assert peaks["01"] / peaks["11"] >= 10
        assert peaks["01"] / peaks["00"] >= 10

    @pytest.mark.parametrize("ratio", [0.15, 0.2, 0.25])
    def test_suppression_scales_with_shift(self, ratio):
        cfg = config(tweezer_frequency=ratio * W)
        space = hilbert.SpaceSpec(2, (6,))
        _, t01 = run_gate(cfg, "01", (0,), space, backend="gaussian")
        _, t11 = run_gate(cfg, "11", (0,), space, backend="gaussian")
        g_plus, _ = drive.pair_com_shifts(cfg.trap, cfg.tweezer_frequency)
        detuning_ratio = abs(cfg.detuning / (g_plus - cfg.detuning))
        frac = np.abs(t11.alpha).max() / np.abs(t01.alpha).max()
        assert frac < 3 * detuning_ratio


def _fake_integrate(calls):
    """Stand-in for evolve._integrate that records its arguments and
    leaves the state unchanged at every requested time."""
    def integrate(generator, state, t0, t1, tol, max_step, atol=None,
                  t_eval=None):
        calls.append(max_step)
        n_eval = 1 if t_eval is None else len(t_eval)
        return np.repeat(np.ravel(state)[:, None], n_eval, axis=1)
    return integrate


class TestPulseWalker:
    """_exact.walk_pulses, shared by run_gate(backend="ode") and the ODE
    channel: driven pulses integrated, field-free pulses in closed form."""

    def test_integrates_driven_pulses_only(self, monkeypatch):
        calls = []
        monkeypatch.setattr(evolve, "_integrate", _fake_integrate(calls))
        space = hilbert.SpaceSpec(2, (2,))
        run_gate(fast_config(), "01", (0,), space, backend="ode")
        assert len(calls) == 2  # field_on_mask (True, False, False, True)
        calls.clear()
        run_gate(fast_config(field_amplitude=0.0), "01", (0,), space,
                 backend="ode")
        assert calls == []

    def test_step_cap_applies_to_both_entry_points(self, monkeypatch):
        # both integrate with the cap (2 pi / mu) / 20
        calls = []
        monkeypatch.setattr(evolve, "_integrate", _fake_integrate(calls))
        cfg = fast_config()
        space = hilbert.SpaceSpec(2, (2,))
        modes = evolve.retained_modes(cfg, space)
        cap = (2 * np.pi / drive.resolve_drive_frequency(cfg, modes)) / 20
        run_gate(cfg, "01", (0,), space, backend="ode")
        metric.reconstruct_channel(cfg, hilbert.ThermalEnsemble((0.0,), (2,)),
                                   space, backend="ode")
        assert calls and all(s == pytest.approx(cap, rel=1e-12)
                             for s in calls)

    def test_field_free_samples_match_integration(self):
        cfg = fast_config()
        space = hilbert.SpaceSpec(2, (8,))
        dims, d = space.mode_dims, space.mode_dim
        setup = _exact.setup_from_config(cfg,
                                         evolve.retained_modes(cfg, space))
        h = hamiltonian_terms(setup, dims)
        tau, t_a = setup.tau, setup.tau  # pulse 1 is field-free
        offsets = np.append(np.arange(1, 200) * tau / 200, tau)
        got = _exact.field_free_evolution(setup, dims, h, t_a,
                                          [np.eye(d)] * 4, offsets)
        cap = (2 * np.pi / setup.mu) / 20
        want = evolve._integrate(h.generator(None),
                                 np.tile(np.eye(d), (4, 1)), t_a, t_a + tau,
                                 1e-12, cap, t_eval=t_a + offsets)
        want = want.T.reshape(len(offsets), 4, d, d)
        assert np.abs(got - want).max() < 1e-9

    def test_matches_all_pulse_integration(self):
        # frozen from the integrator that stepped through all four pulses
        ref = json.loads((pathlib.Path(__file__).parent
                          / "ode_gate_reference.json").read_text())
        psi, traj = run_gate(fast_config(), "01", (0,),
                             hilbert.SpaceSpec(2, (8,)), backend="ode",
                             tol=1e-10)
        state = np.array(ref["state_re"]) + 1j * np.array(ref["state_im"])
        alpha = np.array(ref["alpha_re"]) + 1j * np.array(ref["alpha_im"])
        assert np.abs(psi - state).max() < 1e-9
        assert np.abs(traj.alpha[ref["alpha_index"]] - alpha).max() < 1e-9
