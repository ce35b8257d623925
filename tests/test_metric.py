"""Channel reconstruction, fidelity, and gate invariant tests."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import expm_multiply

import oracles
from tweezergate import _exact
from tweezergate import cli
from tweezergate import crystal
from tweezergate import drive
from tweezergate import evolve
from tweezergate import hilbert
from tweezergate import metric

AMU = 1.66053906660e-27
W_COM = 2.0 * math.pi * 1.0e6


def trap(n=2):
    return crystal.TrapSpec(n, 171 * AMU, W_COM)


def config(**kw):
    base = dict(trap=trap(), pair=(0, 1),
                tweezer_frequency=0.25 * W_COM,
                field_amplitude=2.69e-4,
                detuning=-2.0 * math.pi * 1.0e3)
    base.update(kw)
    return drive.GateConfig(**base)


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def unitary_channel(u, cfg):
    """Channel sigma -> U sigma U^dag on the qubits alone."""
    images = tuple(u @ sig @ u.conj().T for sig in oracles.paulis16())
    d = np.diag(u) if np.allclose(u, np.diag(np.diag(u))) else np.ones(4)
    return metric.QuantumChannel(images=images,
                                 overlaps=np.outer(d, np.conj(d)),
                                 nbar=(0.0,), cutoffs=(1,), config=cfg,
                                 backend="propagator")


def column_u_rel(gens, ladders, psi0):
    """Reference: apply the displacement product to a state column (or to
    the columns of a matrix) by sparse expm_multiply on the full product
    space; ladders is _exact.sparse_ladders(dims) of the mode space."""
    a_ops, ad_ops = ladders
    n = len(a_ops)
    psi = np.array(psi0, dtype=complex)
    for v, ph in gens:
        hx = None
        for m in range(n):
            vad = 0.5 * (v[n + m] + np.conj(v[m]))
            if vad != 0.0:
                term = vad * ad_ops[m] + np.conj(vad) * a_ops[m]
                hx = term if hx is None else hx + term
        if hx is not None:
            psi = expm_multiply(-1j * hx.tocsc(), psi)
        psi = np.exp(-1j * ph) * psi
    return psi


def column_reference_wmat(setup, dims, weights, columns):
    """W[c, c'] = sum_n p_n <n|U_c'^dag U_c|n> over the listed columns,
    each propagated by column_u_rel."""
    ladders = _exact.sparse_ladders(dims)
    psi0 = np.eye(int(np.prod(dims)), dtype=complex)[:, columns]
    cols = [column_u_rel(gens, ladders, psi0)
            for gens in _exact.config_generators(setup)]
    return np.array([[np.sum(weights[columns]
                             * np.sum(np.conj(cols[cp]) * cols[c], axis=0))
                      for cp in range(4)] for c in range(4)])


@pytest.fixture(scope="module")
def fig_point():
    cfg = config()
    space = hilbert.SpaceSpec(2, (20,))
    return cfg, space


@pytest.fixture(scope="module")
def fig_channel(fig_point):
    cfg, space = fig_point
    th = hilbert.ThermalEnsemble((0.0,), (20,))
    return metric.reconstruct_channel(cfg, th, space, backend="fock")


class TestPauliBasis:
    def test_orthonormal(self):
        sig = oracles.paulis16()
        assert len(sig) == 16
        for i, a in enumerate(sig):
            np.testing.assert_allclose(a, a.conj().T, atol=1e-15)
            for j, b in enumerate(sig):
                tr = np.trace(a.conj().T @ b)
                assert tr == pytest.approx(4.0 if i == j else 0.0,
                                           abs=1e-12)

    def test_ordering(self):
        sig = oracles.paulis16()
        labels = oracles.pauli_labels()
        assert labels[0] == "11" and labels[1] == "1x"
        assert labels[4] == "x1" and labels[15] == "zz"
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        # index 4 acts on the first qubit (high bit of the basis index)
        np.testing.assert_allclose(sig[4], np.kron(x, np.eye(2)))
        np.testing.assert_allclose(sig[1], np.kron(np.eye(2), x))


class TestLocalInvariants:
    def test_identity_and_cz(self):
        g1, g2 = metric.local_invariants(np.eye(4))
        assert g1 == pytest.approx(1.0, abs=1e-10)
        assert g2 == pytest.approx(3.0, abs=1e-10)
        g1, g2 = metric.local_invariants(np.diag([1, 1, 1, -1.0 + 0j]))
        assert g1 == pytest.approx(0.0, abs=1e-10)
        assert g2 == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("phi", [0.3, -0.9, 2.5])
    def test_controlled_phase_family(self, phi):
        u = np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)])
        g1, g2 = metric.local_invariants(u)
        assert g1 == pytest.approx(math.cos(phi / 2.0) ** 2, abs=1e-10)
        assert g2 == pytest.approx(1.0 + 2.0 * math.cos(phi / 2.0) ** 2,
                                   abs=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_local_rotation_invariance(self, seed):
        u = random_unitary(4, seed + 100)
        ref = metric.local_invariants(u)
        a, b, c, d = (random_unitary(2, 4 * seed + k) for k in range(4))
        v = np.kron(a, b) @ u @ np.kron(c, d)
        out = metric.local_invariants(v)
        assert abs(out[0] - ref[0]) < 1e-10
        assert abs(out[1] - ref[1]) < 1e-10

    def test_global_phase_invariance(self):
        u = random_unitary(4, 7)
        ref = metric.local_invariants(u)
        out = metric.local_invariants(np.exp(0.71j) * u)
        assert abs(out[0] - ref[0]) < 1e-10
        assert abs(out[1] - ref[1]) < 1e-10

    def test_diagonal_reduces_to_conditional_phase(self):
        # any diagonal gate is locally equivalent to a controlled phase
        # through its conditional phase
        rng = np.random.default_rng(11)
        for _ in range(5):
            th = rng.uniform(-math.pi, math.pi, size=4)
            u = np.diag(np.exp(1j * th))
            phi = metric.conditional_phase(u)
            ref = np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)])
            g_u = metric.local_invariants(u)
            g_r = metric.local_invariants(ref)
            assert abs(g_u[0] - g_r[0]) < 1e-10
            assert abs(g_u[1] - g_r[1]) < 1e-10

    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError, match="unitary"):
            metric.local_invariants(np.diag([1.0, 1.0, 1.0, 0.5]))
        with pytest.raises(ValueError, match="4x4"):
            metric.local_invariants(np.eye(2))


class TestConditionalPhase:
    def test_controlled_z(self):
        u = np.diag([1.0, 1.0, 1.0, -1.0 + 0j])
        assert metric.conditional_phase(u) == pytest.approx(math.pi)

    @pytest.mark.parametrize("a,b,c", [(0.0, 0.0, -0.7), (0.4, -1.1, 1.9),
                                       (2.0, 2.9, 2.0)])
    def test_local_z_offsets_drop_out(self, a, b, c):
        # diag(1, e^ia, e^ib, e^i(a+b+c)) has conditional phase c mod 2 pi
        u = np.diag(np.exp(1j * np.array([0.0, a, b, a + b + c])))
        want = math.remainder(c, 2.0 * math.pi)
        assert metric.conditional_phase(u) == pytest.approx(want, abs=1e-12)

    def test_wraps_into_half_open_interval(self):
        u = np.diag(np.exp(1j * np.array([0.0, 0.0, 0.0, 3.0 * math.pi])))
        assert metric.conditional_phase(u) == pytest.approx(math.pi)

    def test_rejects_off_diagonal(self):
        u = random_unitary(4, 3)
        with pytest.raises(ValueError, match="not diagonal"):
            metric.conditional_phase(u)

    def test_accepts_ideal_gate(self):
        gate = metric.IdealGate(phases=np.array([0.0, 0.2, 0.3, 0.1]))
        want = 0.0 + 0.1 - 0.2 - 0.3
        assert metric.conditional_phase(gate) == pytest.approx(want)


class TestIdealGate:
    def test_zero_field_is_identity(self):
        cfg = config(field_amplitude=0.0)
        modes = crystal.normal_modes(cfg.trap).restrict([0])
        gate = metric.ideal_gate(cfg, modes)
        np.testing.assert_allclose(gate.matrix, np.eye(4), atol=1e-12)

    def test_zero_tweezer_is_identity_after_global_phase(self):
        cfg = config(tweezer_frequency=0.0)
        modes = crystal.normal_modes(cfg.trap).restrict([0])
        gate = metric.ideal_gate(cfg, modes)
        np.testing.assert_allclose(gate.phases, np.zeros(4), atol=1e-12)

    def test_pair_symmetry(self, fig_point):
        cfg, space = fig_point
        modes = evolve.retained_modes(cfg, space)
        gate = metric.ideal_gate(cfg, modes)
        assert gate.phases[1] == pytest.approx(gate.phases[2], abs=1e-12)

    def test_conditional_phase_near_quarter_pi(self, fig_point):
        # the published operating field gives phi close to -pi/4
        cfg, space = fig_point
        modes = evolve.retained_modes(cfg, space)
        gate = metric.ideal_gate(cfg, modes)
        assert gate.conditional_phase == pytest.approx(-math.pi / 4.0,
                                                       rel=5e-3)

    def test_weak_coupling_zz_model(self, fig_point):
        # two driven pulses of the naive dispersive model give
        # phi = -8 pi gamma^2 / delta^2; the dressed-mode phases stay
        # within a percent of it at this operating point
        cfg, space = fig_point
        modes = evolve.retained_modes(cfg, space)
        gate = metric.ideal_gate(cfg, modes)
        gamma = drive.gamma_from_field(cfg.field_amplitude, cfg.trap)
        naive = -8.0 * math.pi * gamma ** 2 / cfg.detuning ** 2
        assert gate.conditional_phase == pytest.approx(naive, rel=1e-2)

    def test_validation(self):
        with pytest.raises(ValueError, match="global phase"):
            metric.IdealGate(phases=np.array([0.1, 0.2, 0.3, 0.4]))
        with pytest.raises(ValueError, match="one entry per"):
            metric.IdealGate(phases=np.zeros(3))


class TestProcessFidelity:
    @pytest.mark.parametrize("seed", range(6))
    def test_self_fidelity_is_one(self, seed):
        cfg = config()
        u = random_unitary(4, seed)
        ch = unitary_channel(u, cfg)
        assert metric.process_fidelity(ch, u) == pytest.approx(1.0,
                                                               abs=1e-9)

    def test_orthogonal_gate_scores_one_fifth(self, fig_point):
        cfg, space = fig_point
        modes = evolve.retained_modes(cfg, space)
        u = metric.ideal_gate(cfg, modes).matrix
        ch = unitary_channel(u, cfg)
        v = np.kron(np.diag([1.0, -1.0 + 0j]), np.eye(2)) @ u
        assert metric.process_fidelity(ch, v) == pytest.approx(0.2,
                                                               abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_matches_trace_overlap_formula(self, seed):
        # for unitary channels F = (|tr(V^dag U)|^2 + 4) / 20
        cfg = config()
        u = random_unitary(4, 2 * seed)
        v = random_unitary(4, 2 * seed + 1)
        ch = unitary_channel(u, cfg)
        want = (abs(np.trace(v.conj().T @ u)) ** 2 + 4.0) / 20.0
        assert metric.process_fidelity(ch, v) == pytest.approx(want,
                                                               abs=1e-12)

    def test_global_phase_invariance(self, fig_channel, fig_point):
        cfg, space = fig_point
        modes = evolve.retained_modes(cfg, space)
        u = metric.ideal_gate(cfg, modes).matrix
        f0 = metric.process_fidelity(fig_channel, u)
        f1 = metric.process_fidelity(fig_channel, np.exp(1.3j) * u)
        assert f1 == pytest.approx(f0, abs=1e-12)

    def test_rejects_nonunitary_reference(self, fig_channel):
        with pytest.raises(ValueError, match="unitary"):
            metric.process_fidelity(fig_channel, np.zeros((4, 4)))

    @staticmethod
    def explicit_sum(channel, u):
        """F from the 16 trace terms one by one."""
        tot = sum(np.trace(u @ sig.conj().T @ u.conj().T @ img)
                  for sig, img in zip(oracles.paulis16(), channel.images))
        return (tot.real + 16.0) / 80.0

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_explicit_sum_on_unitary_channels(self, seed):
        cfg = config()
        ch = unitary_channel(random_unitary(4, 10 + seed), cfg)
        v = random_unitary(4, 20 + seed)
        assert abs(np.diag(v)).max() < 1.0  # not diagonal
        assert abs(metric.process_fidelity(ch, v)
                   - self.explicit_sum(ch, v)) < 1e-14

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_explicit_sum_on_propagator_channels(self, seed):
        # literal partial trace of a random composite unitary: images
        # that are not Pauli-times-W
        cfg = config()
        space = hilbert.SpaceSpec(2, (4,))
        th = hilbert.ThermalEnsemble((0.05,), (4,))
        ch = oracles.channel_from_propagator(
            random_unitary(space.dim, 30 + seed), cfg, th, space)
        for v in (random_unitary(4, 40 + seed), np.eye(4)):
            assert abs(metric.process_fidelity(ch, v)
                       - self.explicit_sum(ch, v)) < 1e-14


class TestQuantumChannel:
    def test_identity_channel_choi(self):
        cfg = config()
        ch = unitary_channel(np.eye(4, dtype=complex), cfg)
        choi = ch.choi_matrix()
        omega = np.zeros((16, 1), dtype=complex)
        for i in range(4):
            omega[i * 4 + i] = 1.0
        np.testing.assert_allclose(choi, omega @ omega.conj().T, atol=1e-12)

    def test_unitary_channel_choi_rank_one(self):
        cfg = config()
        ch = unitary_channel(random_unitary(4, 9), cfg)
        ev = np.linalg.eigvalsh(ch.choi_matrix())
        assert ev[-1] == pytest.approx(4.0, abs=1e-9)
        assert np.all(np.abs(ev[:-1]) < 1e-9)

    def test_gate_channel_choi_properties(self, fig_channel):
        choi = fig_channel.choi_matrix()
        ev = np.linalg.eigvalsh(choi)
        assert ev[0] > -1e-6
        assert np.trace(choi).real == pytest.approx(4.0, abs=1e-6)
        # nearly unitary: one dominant eigenvalue
        assert ev[-1] > 4.0 - 1e-2

    def test_rejects_trace_breaking_images(self):
        cfg = config()
        images = list(np.eye(4, dtype=complex) for _ in range(16))
        images[0] = 0.5 * images[0]
        with pytest.raises(ValueError, match="trace"):
            metric.QuantumChannel(images=tuple(images), overlaps=np.eye(4),
                                  nbar=(0.0,), cutoffs=(1,), config=cfg,
                                  backend="fock")

    def test_rejects_transpose_map(self):
        # trace preserving but not completely positive
        cfg = config()
        images = tuple(sig.T.copy() for sig in oracles.paulis16())
        with pytest.raises(ValueError, match="completely positive"):
            metric.QuantumChannel(images=images, overlaps=np.eye(4),
                                  nbar=(0.0,), cutoffs=(1,), config=cfg,
                                  backend="fock")

    def test_rejects_wrong_count(self):
        cfg = config()
        with pytest.raises(ValueError, match="16 images"):
            metric.QuantumChannel(images=(np.eye(4),) * 15,
                                  overlaps=np.eye(4), nbar=(0.0,),
                                  cutoffs=(1,), config=cfg, backend="fock")


class TestReconstructChannel:
    def test_images_are_pauli_times_overlaps(self, fig_channel):
        w = fig_channel.overlaps
        for sig, img in zip(oracles.paulis16(), fig_channel.images):
            np.testing.assert_allclose(img, sig * w, atol=1e-15)

    def test_overlap_diagonal_is_unity(self, fig_channel):
        np.testing.assert_allclose(np.diag(fig_channel.overlaps),
                                   np.ones(4), atol=1e-9)

    def test_backends_agree(self, fig_point, fig_channel):
        cfg, space = fig_point
        th = hilbert.ThermalEnsemble((0.0,), (20,))
        w_dense, _ = _exact.dense_wmat(_exact.setup_from_config(
            cfg, evolve.retained_modes(cfg, space)), space.mode_dims,
            th.weights())
        ch_col = metric.reconstruct_channel(cfg, th, space, backend="column")
        for ch in (fig_channel, ch_col):
            np.testing.assert_allclose(ch.overlaps, w_dense, rtol=0,
                                       atol=1e-12)
        ch_gau = metric.reconstruct_channel(cfg, th, space,
                                            backend="gaussian")
        assert np.max(np.abs(ch_gau.overlaps
                             - fig_channel.overlaps)) < 5e-6

    def test_backends_agree_thermal(self, fig_point):
        cfg, space = fig_point
        th = hilbert.ThermalEnsemble((0.6,), (20,))
        ch_f = metric.reconstruct_channel(cfg, th, space, backend="fock")
        ch_g = metric.reconstruct_channel(cfg, th, space, backend="gaussian")
        modes = evolve.retained_modes(cfg, space)
        w_dense, _ = _exact.dense_wmat(_exact.setup_from_config(cfg, modes),
                                       space.mode_dims, th.weights())
        np.testing.assert_allclose(ch_f.overlaps, w_dense, rtol=0,
                                   atol=1e-12)
        u = metric.ideal_gate(cfg, modes).matrix
        f_f = metric.process_fidelity(ch_f, u)
        f_g = metric.process_fidelity(ch_g, u)
        assert abs(f_f - f_g) < 5e-6

    def test_ode_backend_agrees(self):
        # stiffer, shorter variant keeps the integration affordable
        cfg = config(field_amplitude=20 * 2.69e-4,
                     detuning=-2.0 * math.pi * 2.0e4)
        space = hilbert.SpaceSpec(2, (8,))
        th = hilbert.ThermalEnsemble((0.0,), (8,))
        ch_o = metric.reconstruct_channel(cfg, th, space, backend="ode",
                                          tol=1e-10)
        ch_f = metric.reconstruct_channel(cfg, th, space, backend="fock")
        assert np.max(np.abs(ch_o.overlaps - ch_f.overlaps)) < 1e-4
        f_o = metric.process_fidelity(ch_o, np.eye(4))
        f_f = metric.process_fidelity(ch_f, np.eye(4))
        assert abs(f_o - f_f) < 1e-5

    def test_ode_propagators_unitary(self):
        # the test suite's fast gate (20x |delta| and field)
        cfg = config(field_amplitude=20 * 2.69e-4,
                     detuning=-2.0 * math.pi * 2.0e4)
        space = hilbert.SpaceSpec(2, (4,))
        setup = _exact.setup_from_config(
            cfg, evolve.retained_modes(cfg, space))
        # every column weighted, so the whole propagator is integrated
        weights = np.full(space.mode_dim, 1.0 / space.mode_dim)
        _, us = _exact.ode_wmat(setup, space.mode_dims, weights)
        assert len(us) == 4
        for u in us:
            assert np.abs(u.conj().T @ u - np.eye(space.mode_dim)).max() \
                < 1e-9

    def test_ode_tol_range_enforced(self, fig_point):
        # the channel and run_gate share one integrator and its check
        cfg, _ = fig_point
        space = hilbert.SpaceSpec(2, (4,))
        th = hilbert.ThermalEnsemble((0.0,), (4,))
        with pytest.raises(ValueError, match="tol must lie") as channel:
            metric.reconstruct_channel(cfg, th, space, backend="ode",
                                       tol=1e-3)
        with pytest.raises(ValueError, match="tol must lie") as gate:
            evolve.run_gate(cfg, "01", (0,), space, backend="ode", tol=1e-3)
        assert str(channel.value) == str(gate.value)

    @pytest.mark.parametrize("backend", ["gaussian", "fock", "column"])
    def test_max_step_only_for_ode(self, fig_point, backend):
        cfg, _ = fig_point
        space = hilbert.SpaceSpec(2, (4,))
        th = hilbert.ThermalEnsemble((0.0,), (4,))
        with pytest.raises(ValueError, match="max_step"):
            metric.reconstruct_channel(cfg, th, space, backend=backend,
                                       max_step=1e-8)
        with pytest.raises(ValueError, match="max_step"):
            metric.fidelity_report(cfg, th, space, backend=backend,
                                   max_step=1e-8)

    def test_ground_state_column_oracle(self, fig_point, fig_channel):
        # at nbar = 0 the overlap is a single vacuum-column inner product
        cfg, space = fig_point
        setup = _exact.setup_from_config(
            cfg, evolve.retained_modes(cfg, space))
        ladders = _exact.sparse_ladders(space.mode_dims)
        cols = []
        for gens in _exact.config_generators(setup):
            psi0 = np.zeros(space.mode_dim, dtype=complex)
            psi0[0] = 1.0
            cols.append(column_u_rel(gens, ladders, psi0))
        w = np.array([[np.vdot(cols[cp], cols[c]) for cp in range(4)]
                      for c in range(4)])
        np.testing.assert_allclose(fig_channel.overlaps, w, atol=1e-10)

    def test_thermal_tail_rejected(self, fig_point):
        cfg, _ = fig_point
        space = hilbert.SpaceSpec(2, (3,))
        th = hilbert.ThermalEnsemble((1.0,), (3,))
        with pytest.raises(ValueError, match="increase the mode cutoffs"):
            metric.reconstruct_channel(cfg, th, space)

    def test_gaussian_ignores_cutoffs(self, fig_point):
        # the untruncated gaussian average reads no cutoff, so a tail that
        # the Fock-space backends reject changes nothing in its report
        cfg, _ = fig_point
        w = crystal.normal_modes(cfg.trap).frequencies[:1]

        def report(cutoff, backend):
            th = hilbert.equal_temperature_ensemble(3.0, w, (cutoff,))
            return metric.fidelity_report(cfg, th,
                                          hilbert.SpaceSpec(2, (cutoff,)),
                                          backend=backend)

        short, full = report(8, "gaussian"), report(200, "gaussian")
        assert (short.fidelity, short.conditional_phase, short.g1,
                short.g2) == (full.fidelity, full.conditional_phase,
                              full.g1, full.g2)
        with pytest.raises(ValueError, match="loses weight 7.508e-02"):
            report(8, "fock")

    def test_input_validation(self, fig_point):
        cfg, space = fig_point
        th = hilbert.ThermalEnsemble((0.0,), (20,))
        with pytest.raises(ValueError, match="backend"):
            metric.reconstruct_channel(cfg, th, space, backend="magic")
        with pytest.raises(ValueError, match="cutoffs"):
            metric.reconstruct_channel(
                cfg, hilbert.ThermalEnsemble((0.0,), (19,)), space)
        with pytest.raises(ValueError, match="two-qubit"):
            metric.reconstruct_channel(
                cfg, th, hilbert.SpaceSpec(1, (20,)))

    def test_thermal_ordering(self, fig_point):
        cfg, space = fig_point
        fids = []
        u = metric.ideal_gate(cfg, evolve.retained_modes(cfg, space)).matrix
        for nbar in (0.0, 0.6, 1.0):
            th = hilbert.ThermalEnsemble((nbar,), (20,))
            ch = metric.reconstruct_channel(cfg, th, space,
                                            backend="gaussian")
            fids.append(metric.process_fidelity(ch, u))
        assert fids[0] >= fids[1] >= fids[2]

    def test_operating_point_fidelity(self, fig_point, fig_channel):
        cfg, space = fig_point
        u = metric.ideal_gate(cfg, evolve.retained_modes(cfg, space)).matrix
        f = metric.process_fidelity(fig_channel, u)
        assert f > 0.999
        assert f == pytest.approx(0.9998231, abs=5e-6)


def _thermal_multimode_point(name, nbars=None):
    """(setup, dims, thermal) at a multimode point; nbars replaces the
    equal-temperature occupations."""
    if name == "fig3_twomode":
        cfg = config()
        cutoffs, nbar_com = (14, 10), 0.6
    else:  # table1 pair (1,2) at reduced cutoffs
        cfg = config(trap=trap(4), tweezer_frequency=2 * math.pi * 257e3,
                     detuning=-2 * math.pi * 1e3)
        cutoffs, nbar_com = (5, 2, 2, 2), 0.3
    space = hilbert.SpaceSpec(2, cutoffs)
    setup = _exact.setup_from_config(cfg, evolve.retained_modes(cfg, space))
    thermal = hilbert.equal_temperature_ensemble(
        nbar_com, crystal.normal_modes(cfg.trap).restrict(
            range(len(cutoffs))).frequencies, cutoffs)
    if nbars is not None:
        thermal = hilbert.ThermalEnsemble(nbars, cutoffs)
    return setup, space.mode_dims, thermal


def mode_weights(thermal):
    return [thermal.mode_weights(m) for m in range(len(thermal.nbar))]


class TestColumnBackend:
    @pytest.mark.parametrize("name", ["fig3_twomode", "table1"])
    def test_thermal_multimode_matches_references(self, name):
        setup, dims, thermal = _thermal_multimode_point(name)
        w = _exact.column_wmat(setup, dims, mode_weights(thermal))
        p = thermal.weights()
        ref = column_reference_wmat(setup, dims, p, np.arange(len(p)))
        np.testing.assert_allclose(w, ref, rtol=0, atol=1e-12)
        w_dense, _ = _exact.dense_wmat(setup, dims, p)
        np.testing.assert_allclose(w, w_dense, rtol=0, atol=1e-12)

    def test_zero_weight_columns_skipped(self):
        # spectators at nbar 0 weight only their ground state: the
        # per-mode sums equal the oracle over the flat vector's nonzero
        # columns, the COM's levels with every spectator in |0>
        setup, dims, thermal = _thermal_multimode_point(
            "table1", nbars=(0.3, 0.0, 0.0, 0.0))
        p = thermal.weights()
        kept = np.flatnonzero(p)
        assert len(kept) == dims[0] < len(p)
        w = _exact.column_wmat(setup, dims, mode_weights(thermal))
        np.testing.assert_allclose(
            w, column_reference_wmat(setup, dims, p, kept),
            rtol=0, atol=1e-12)
        # warm spectators move W by far more than that tolerance
        _, _, warm = _thermal_multimode_point("table1")
        assert np.max(np.abs(
            w - _exact.column_wmat(setup, dims, mode_weights(warm)))) > 1e-8

    @pytest.mark.parametrize("weights, match", [
        ([np.ones(6) / 6] * 3, "one weight vector per mode"),
        ([np.ones(6) / 6] + [np.ones(3) / 3] * 4,
         "one weight vector per mode"),
        ([np.ones(6) / 6, np.ones(4) / 4] + [np.ones(3) / 3] * 2,
         "one weight vector per mode"),
        ([np.ones(18) / 18] + [np.ones(3) / 3] * 3,
         "one weight vector per mode"),
        ([np.ones(6 * 27) / 162], "one weight vector per mode"),
        ([np.array([1.2, -0.2, 0, 0, 0, 0])] + [np.ones(3) / 3] * 3,
         "nonnegative"),
        ([np.ones(6) / 6, np.array([1.0, np.nan, 0.0])]
         + [np.ones(3) / 3] * 2, "nonnegative"),
    ], ids=["too-few-modes", "too-many-modes", "wrong-length",
            "flattened-pair", "flat-vector", "negative", "nan"])
    def test_column_wmat_rejects_bad_weights(self, weights, match):
        setup, dims, _ = _thermal_multimode_point("table1")
        assert dims == (6, 3, 3, 3)
        with pytest.raises(ValueError, match=match):
            _exact.column_wmat(setup, dims, weights)

    def test_all_mode_column_at_n16_within_tail(self):
        # central pair of a 16-ion crystal with every mode retained, at
        # w_tw ~ sqrt(N) and nbar_com 0.3: the flat weight vector would
        # have 13 * 4**15 ~ 1.4e10 entries; the per-mode sums need 73.
        # The truncated and untruncated thermal averages differ by the
        # weight beyond the cutoffs, so the bound is the tail weight.
        n = 16
        cfg = config(trap=trap(n), pair=(n // 2 - 1, n // 2),
                     tweezer_frequency=0.25 * W_COM * math.sqrt(n / 4),
                     detuning=-2 * math.pi * 1e3)
        cutoffs = (12,) + (3,) * (n - 1)
        space = hilbert.SpaceSpec(2, cutoffs)
        modes = evolve.retained_modes(cfg, space)
        thermal = hilbert.equal_temperature_ensemble(0.3, modes.frequencies,
                                                     cutoffs)
        tail = thermal.tail_weight()
        assert 1e-6 < tail < 1e-4
        ch = metric.reconstruct_channel(cfg, thermal, space,
                                        backend="column")
        w_g, _ = _exact.gaussian_wmat(_exact.setup_from_config(cfg, modes),
                                      thermal.nbar)
        np.testing.assert_allclose(ch.overlaps, w_g, rtol=0, atol=tail)
        assert np.max(np.abs(w_g - np.eye(4))) > 100 * tail

    def test_mode_factors_are_kronecker_factors(self):
        setup, dims, _ = _thermal_multimode_point("fig3_twomode")
        gens = _exact.config_generators(setup, [(1, -1)])
        us, phase = _exact.mode_factors(gens, dims)
        u_dense = _exact.dense_u_rel(gens[0], dims)
        np.testing.assert_allclose(
            np.exp(-1j * phase[0]) * np.kron(*(u[0] for u in us)), u_dense,
            rtol=0, atol=1e-12)


def tail_cutoffs(nbars, floors, tail=1e-6):
    """Smallest cutoffs, at least floors, whose truncated thermal tails
    sum to at most tail."""
    out = []
    for nb, floor in zip(nbars, floors):
        c = floor
        while nb > 0 and (nb / (nb + 1.0)) ** (c + 1) > tail / len(nbars):
            c += 1
        out.append(c)
    return tuple(out)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 8), data=st.data(),
       tweezer_khz=st.floats(120.0, 300.0),
       detuning_khz=st.sampled_from((-1.0, -2.0)),
       nbar_com=st.floats(0.0, 0.5))
def test_fock_and_gaussian_agree_on_random_points(n, data, tweezer_khz,
                                                  detuning_khz, nbar_com):
    # all n modes retained, an ordered pair, thermal tail at most 1e-6;
    # each report builds its QuantumChannel, whose constructor checks
    # trace preservation and complete positivity
    pair = tuple(data.draw(st.permutations(range(n)))[:2])
    cfg = config(trap=trap(n), pair=pair,
                 tweezer_frequency=2 * math.pi * 1e3 * tweezer_khz,
                 detuning=2 * math.pi * 1e3 * detuning_khz)
    modes = crystal.normal_modes(cfg.trap)
    nbars = hilbert.equal_temperature_ensemble(
        nbar_com, modes.frequencies, (1,) * n).nbar
    cutoffs = tail_cutoffs(nbars, (6,) + (2,) * (n - 1))
    thermal = hilbert.ThermalEnsemble(nbars, cutoffs)
    assert thermal.tail_weight() <= 1e-6
    space = hilbert.SpaceSpec(2, cutoffs)
    f_f, f_g = (metric.fidelity_report(cfg, thermal, space,
                                       backend=backend).fidelity
                for backend in ("fock", "gaussian"))
    assert 0.0 <= f_f <= 1.0 and 0.0 <= f_g <= 1.0
    assert abs(f_f - f_g) < 5e-6


@settings(max_examples=12, deadline=None)
@given(n=st.integers(2, 8), data=st.data(),
       tweezer_khz=st.floats(120.0, 300.0),
       detuning_khz=st.sampled_from((-1.0, -2.0)),
       nbar_com=st.floats(0.0, 0.5))
def test_ordered_mirror_gives_same_fidelity(n, data, tweezer_khz,
                                            detuning_khz, nbar_com):
    # reflecting the chain maps ion i to n-1-i; with qubit 0 kept on the
    # image of its ion the gate is the same, so F agrees to roundoff
    i, j = data.draw(st.permutations(range(n)))[:2]
    modes = crystal.normal_modes(trap(n))
    nbars = hilbert.equal_temperature_ensemble(
        nbar_com, modes.frequencies, (1,) * n).nbar
    cutoffs = tail_cutoffs(nbars, (6,) + (2,) * (n - 1))
    thermal = hilbert.ThermalEnsemble(nbars, cutoffs)
    space = hilbert.SpaceSpec(2, cutoffs)
    f = [metric.fidelity_report(
        config(trap=trap(n), pair=pair,
               tweezer_frequency=2 * math.pi * 1e3 * tweezer_khz,
               detuning=2 * math.pi * 1e3 * detuning_khz),
        thermal, space, backend="gaussian").fidelity
        for pair in ((i, j), (n - 1 - i, n - 1 - j))]
    assert abs(f[0] - f[1]) < 1e-12


@pytest.mark.parametrize("preset", ["fig2", "table1"])
@pytest.mark.parametrize("backend", ["gaussian", "column"])
def test_warm_report_solves_dressed_frames_once(preset, backend,
                                                monkeypatch):
    # one stacked eigh of the four configurations' couplings per report;
    # the mode, drive-frequency and Fock-eigenbasis caches are warm
    inputs = cli.build_inputs(cli.load_document(preset))
    cfg = inputs.gate_config()

    def report():
        return metric.fidelity_report(cfg, inputs.thermal, inputs.space,
                                      backend=backend)

    report()
    shapes = []
    real = np.linalg.eigh

    def counting(a, *args, **kw):
        shapes.append(np.shape(a))
        return real(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    report()
    n = inputs.space.n_modes
    assert shapes == [(4, n, n)]


class TestChannelFromPropagator:
    def test_zero_hamiltonian_gives_identity_channel(self):
        cfg = config()
        space = hilbert.SpaceSpec(2, (5,))
        th = hilbert.ThermalEnsemble((0.2,), (5,))
        ch = oracles.channel_from_propagator(np.eye(space.dim), cfg, th,
                                            space)
        for sig, img in zip(oracles.paulis16(), ch.images):
            np.testing.assert_allclose(img, sig, atol=1e-12)

    def test_product_evolution_ignores_motion(self):
        # U = V kron W traces to conjugation by V for any motional W
        cfg = config()
        space = hilbert.SpaceSpec(2, (5,))
        th = hilbert.ThermalEnsemble((0.2,), (5,))
        v = random_unitary(4, 21)
        w = random_unitary(space.mode_dim, 22)
        ch = oracles.channel_from_propagator(np.kron(v, w), cfg, th, space)
        for sig, img in zip(oracles.paulis16(), ch.images):
            np.testing.assert_allclose(img, v @ sig @ v.conj().T,
                                       atol=1e-12)

    def test_matches_reconstruction_on_gate_propagator(self, fig_point):
        # assemble the block-diagonal relative propagator and take the
        # literal partial trace; must equal the elementwise-shortcut
        # reconstruction
        cfg, _ = fig_point
        space = hilbert.SpaceSpec(2, (12,))
        th = hilbert.ThermalEnsemble((0.1,), (12,))
        setup = _exact.setup_from_config(
            cfg, evolve.retained_modes(cfg, space))
        u = np.zeros((space.dim, space.dim), dtype=complex)
        for c, gens in enumerate(_exact.config_generators(setup)):
            blk = slice(c * space.mode_dim, (c + 1) * space.mode_dim)
            u[blk, blk] = _exact.dense_u_rel(gens, space.mode_dims)
        ch_lit = oracles.channel_from_propagator(u, cfg, th, space)
        ch_rec = metric.reconstruct_channel(cfg, th, space, backend="fock")
        np.testing.assert_allclose(ch_lit.overlaps, ch_rec.overlaps,
                                   atol=1e-10)
        for a, b in zip(ch_lit.images, ch_rec.images):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_rejects_wrong_dimension(self):
        cfg = config()
        space = hilbert.SpaceSpec(2, (4,))
        th = hilbert.ThermalEnsemble((0.0,), (4,))
        with pytest.raises(ValueError, match="dimension"):
            oracles.channel_from_propagator(np.eye(7), cfg, th, space)


class TestFidelityReport:
    def test_report_fields_and_json(self, fig_point, tmp_path):
        cfg, space = fig_point
        th = hilbert.ThermalEnsemble((0.0,), (20,))
        rep = metric.fidelity_report(cfg, th, space, backend="gaussian")
        assert rep.fidelity > 0.999
        assert rep.conditional_phase == pytest.approx(-math.pi / 4.0,
                                                      rel=5e-3)
        d = rep.as_dict()
        assert d["tweezer_ratio"] == pytest.approx(0.25)
        assert d["detuning_rad_s"] == pytest.approx(-2.0 * math.pi * 1e3)
        assert d["nbar"] == [0.0]
        assert d["mode_cutoffs"] == [20]
        assert d["backend"] == "gaussian"
        assert d["infidelity"] == pytest.approx(1.0 - rep.fidelity)
        assert d["gamma_rad_s"] == pytest.approx(1110.90, rel=1e-4)
        path = tmp_path / "report.json"
        text = rep.to_json(path)
        assert json.loads(path.read_text()) == json.loads(text) == d

    def test_invariants_match_conditional_phase(self, fig_point):
        # the achieved gate sits in the controlled-phase family, so
        # G1 = cos^2(phi/2) and G2 = 1 + 2 G1
        cfg, space = fig_point
        th = hilbert.ThermalEnsemble((0.0,), (20,))
        rep = metric.fidelity_report(cfg, th, space, backend="gaussian")
        ch = metric.reconstruct_channel(cfg, th, space, backend="gaussian")
        phi = metric.conditional_phase(metric.extract_diagonal_gate(ch))
        want = math.cos(phi / 2.0) ** 2
        assert rep.g1.real == pytest.approx(want, abs=1e-9)
        assert rep.g1.imag == pytest.approx(0.0, abs=1e-9)
        assert rep.g2 == pytest.approx(1.0 + 2.0 * want, abs=1e-9)
        # the overlap-pair estimate agrees with the extracted gate to the
        # size of the residual motional distortion
        assert rep.conditional_phase == pytest.approx(phi, abs=1e-3)

    def test_channel_phase_tracks_reference(self, fig_point):
        cfg, space = fig_point
        th = hilbert.ThermalEnsemble((0.0,), (20,))
        rep = metric.fidelity_report(cfg, th, space, backend="gaussian")
        ref = rep.parameters["reference_conditional_phase_rad"]
        assert rep.conditional_phase == pytest.approx(ref, abs=2e-3)

    def test_extract_diagonal_gate_is_unitary(self, fig_channel):
        u = metric.extract_diagonal_gate(fig_channel)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
        assert u[0, 0] == pytest.approx(1.0)

    def test_fidelity_range_enforced(self):
        with pytest.raises(ValueError, match="outside"):
            metric.FidelityReport(fidelity=1.1, conditional_phase=0.0,
                                  g1=0j, g2=0.0, parameters={})
