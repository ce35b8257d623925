"""Drive assembly: coupling rate, envelopes, Hamiltonian factories, rates."""
import math
import warnings

import numpy as np
import pytest
import scipy.constants as const
from hypothesis import given, settings
from hypothesis import strategies as st

from literal_hamiltonian import field_hamiltonian, tweezer_hamiltonian
from tweezergate import _exact, crystal, hilbert
from tweezergate.drive import (
    GateConfig,
    effective_model,
    envelope,
    gamma_from_field,
    pair_com_shifts,
    ramp_envelope,
    resolve_drive_frequency,
)

W = 2 * np.pi * 1e6
M_ION = 171.0 * const.atomic_mass


def trap(n=2):
    return crystal.TrapSpec(n, M_ION, W)


def config(**kw):
    base = dict(trap=trap(2), pair=(0, 1), tweezer_frequency=0.25 * W,
                field_amplitude=2.69e-4, detuning=-2 * np.pi * 1e3)
    base.update(kw)
    return GateConfig(**base)


class TestGamma:
    def test_hand_computed_value(self):
        # independent arithmetic: gamma = e E0 sqrt(hbar/(2 M w)) / (2 hbar)
        e = 1.602176634e-19
        hbar = 1.054571817e-34
        m = 171.0 * 1.66053906660e-27
        l_com = math.sqrt(hbar / (2.0 * m * W))
        expected = e * 2.69e-4 * l_com / (2.0 * hbar)
        got = gamma_from_field(2.69e-4, trap())
        assert got == pytest.approx(expected, rel=1e-7)
        assert got == pytest.approx(1110.9, abs=0.1)

    def test_zero_field(self):
        assert gamma_from_field(0.0, trap()) == 0.0

    def test_linear_in_field(self):
        g1 = gamma_from_field(1e-4, trap())
        g3 = gamma_from_field(3e-4, trap())
        assert g3 == pytest.approx(3.0 * g1, rel=1e-12)

    def test_mass_scaling(self):
        t1 = trap()
        t2 = crystal.TrapSpec(2, 2.0 * M_ION, W)
        ratio = gamma_from_field(1e-4, t2) / gamma_from_field(1e-4, t1)
        assert ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            gamma_from_field(-1e-4, trap())


class TestGateConfig:
    def test_pulse_duration_invariant(self):
        c = config()
        assert c.pulse_duration * abs(c.detuning) == pytest.approx(
            2 * np.pi, rel=1e-14)

    def test_defaults(self):
        c = config()
        assert c.pulse_count == 4
        assert c.field_on_mask == (True, False, False, True)
        assert c.echo_schedule == ((0, 1), (0,), (1,))

    @pytest.mark.parametrize("bad", [
        dict(detuning=0.0),
        dict(pair=(0, 0)),
        dict(pair=(0, 5)),
        dict(ramp_fraction=0.3),
        dict(ramp_fraction=-0.01),
        dict(field_amplitude=-1e-4),
        dict(tweezer_frequency=-1.0),
        dict(echo_schedule=((0, 1), (0,))),
        dict(field_on_mask=(True, False, False)),
        dict(detuning=0.2 * W),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            config(**bad)

    @settings(max_examples=200, deadline=None)
    @given(schedule=st.lists(st.lists(st.sampled_from((0, 1)), max_size=3),
                             max_size=5))
    def test_echo_schedule_accepted_exactly_when_it_closes(self, schedule):
        # apply the pi-pulses to |00>: the echo closes when it returns there
        state = [0, 0]
        for boundary in schedule:
            for q in boundary:
                state[q] ^= 1
        n = len(schedule) + 1
        kw = dict(pulse_count=n, field_on_mask=(True,) * n,
                  echo_schedule=schedule)
        if state == [0, 0]:
            assert config(**kw).echo_schedule == tuple(map(tuple, schedule))
        else:
            with pytest.raises(ValueError, match="echo does not close"):
                config(**kw)

    def test_explicit_drive_frequency_wins(self):
        c = config(drive_frequency=W + 123.0)
        m = crystal.normal_modes(trap())
        assert resolve_drive_frequency(c, m) == W + 123.0


class TestResolveDriveFrequency:
    def test_com_only_reduces_to_bare_detuning(self):
        c = config()
        m = crystal.normal_modes(trap()).restrict((0,))
        mu = resolve_drive_frequency(c, m)
        assert mu == pytest.approx(W + c.detuning, rel=1e-14)

    def test_two_mode_branch(self):
        c = config()
        m = crystal.normal_modes(trap())
        t = (c.tweezer_frequency / W) ** 2
        branch = W * math.sqrt(2.0 - math.sqrt(1.0 + t * t))
        assert resolve_drive_frequency(c, m) == pytest.approx(
            branch + c.detuning, rel=1e-12)
        # the cross-mode repulsion pushes the drive well below w_com + delta
        assert W + c.detuning - resolve_drive_frequency(c, m) > 2 * np.pi * 900


class TestEnvelope:
    def test_endpoints_and_midpoint(self):
        c = config()
        tau = c.pulse_duration
        assert envelope(0.0, 0, c) == 0.0
        assert envelope(tau, 0, c) == pytest.approx(0.0, abs=1e-12)
        assert envelope(0.5 * tau, 0, c) == 1.0

    def test_symmetry(self):
        c = config()
        tau = c.pulse_duration
        for f in (0.003, 0.01, 0.2, 0.4):
            assert envelope(f * tau, 0, c) == pytest.approx(
                envelope((1 - f) * tau, 0, c), rel=1e-12)

    def test_monotone_rise(self):
        c = config(ramp_fraction=0.1)
        tr = 0.1 * c.pulse_duration
        ts = np.linspace(0, tr, 30)
        vals = envelope(ts, 0, c)
        assert (np.diff(vals) > 0).all()
        assert vals[-1] == pytest.approx(1.0)

    def test_field_off_pulses_are_zero(self):
        c = config()
        tau = c.pulse_duration
        for pulse in (1, 2):
            assert envelope(0.5 * tau, pulse, c) == 0.0
        assert envelope(0.5 * tau, 3, c) == 1.0

    def test_zero_ramp_is_flat(self):
        c = config(ramp_fraction=0.0)
        tau = c.pulse_duration
        np.testing.assert_allclose(
            envelope(np.array([0.0, 0.3 * tau, tau]), 0, c), 1.0)

    def test_ramp_below_the_resolution_of_tau_is_flat(self):
        # such a ramp gives the flat pulse's pieces, not frequencies pi / t_r
        # that overflow in the moments
        tau = config().pulse_duration
        for tr in (2.2e-16 * tau, 1e-300, 5e-324):
            for got, want in zip(_exact.envelope_pieces(0.0, tau, tr),
                                 _exact.envelope_pieces(0.0, tau, 0.0)):
                np.testing.assert_array_equal(got, want)

    def test_outside_pulse_is_zero(self):
        c = config()
        assert envelope(-1e-6, 0, c) == 0.0
        assert envelope(c.pulse_duration + 1e-6, 0, c) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(tau=st.floats(1e-6, 1e-2), start=st.floats(0.0, 4.0),
           ramp=st.one_of(st.just(0.0), st.floats(1e-5, 0.25)),
           segment=st.integers(0, 2), where=st.floats(0.0, 1.0))
    def test_exp_pieces_match_ramp_envelope(self, tau, start, ramp, segment,
                                            where):
        # the ODE's envelope (ramp_envelope) and the closed-form engine's
        # (_exact.envelope_pieces: sum_p beta_p e^{i theta_p t} per
        # segment) are one envelope. They differ by the rounding of the
        # pieces' phases |theta| t = pi t / t_r: 40000 random draws stayed
        # within 0.61 eps pi t / t_r. So the bound is 1e-12 plus 2 eps
        # times that phase, which adds at most 4e-13 at the default ramp
        # 0.016 and dominates only for ramps below about 1e-3.
        t_a, tr = start * tau, ramp * tau
        t1, t2, beta, theta = _exact.envelope_pieces(t_a, tau, tr)
        k = min(segment, len(t1) - 1)
        t = t1[k] + where * (t2[k] - t1[k])
        pieces = np.sum(beta[k] * np.exp(1j * theta[k] * t))
        # the rounded pulse end can land an ulp past tau, where the flat
        # pulse's envelope steps to 0
        want = ramp_envelope(min(t - t_a, tau), tau, tr)
        phase = np.abs(theta[k]).max() * t
        assert abs(pieces - want) <= 1e-12 + 2 * np.finfo(float).eps * phase


class TestTweezerHamiltonian:
    def setup_method(self):
        self.modes = crystal.normal_modes(trap())
        self.space = hilbert.SpaceSpec(2, (4, 3))
        self.wt = 0.25 * W
        self.h = tweezer_hamiltonian(self.modes, (0, 1), self.wt, self.space)

    def test_hermitian_at_random_times(self):
        rng = np.random.default_rng(3)
        for t in rng.uniform(0, 4e-3, 100):
            h = self.h(t).toarray()
            scale = np.abs(h).max()
            assert np.abs(h - h.conj().T).max() < 1e-12 * scale

    def test_zero_tweezer(self):
        h0 = tweezer_hamiltonian(self.modes, (0, 1), 0.0, self.space)
        assert abs(h0(1e-4)).max() == 0.0

    def test_mixed_config_pure_cross_mode(self):
        # spin (+1,-1) on a two-ion chain: the diagonal COM and stretch
        # couplings cancel and only the COM<->stretch cross term survives,
        # with mode-basis coefficient w_tw^2
        p = crystal.TweezerPerturbation(self.wt, (0, 1), (1, -1))
        k = crystal.mode_coupling_matrix(self.modes, p)
        np.testing.assert_allclose(
            k, self.wt ** 2 * np.array([[0.0, 1.0], [1.0, 0.0]]),
            atol=1e-6 * self.wt ** 2)

    def test_single_mode_average_frequency_shift(self):
        # aligned spins: time-averaging x(t)^2 leaves (2n+1), so the number
        # ladder acquires a per-quantum shift K_cc/(2 w) = w_tw^2 (2/N)/(2 w)
        modes = self.modes.restrict((0,))
        space = hilbert.SpaceSpec(2, (6,))
        h = tweezer_hamiltonian(modes, (0, 1), self.wt, space)
        period = np.pi / W  # period of the e^{+-2 i w t} sidebands
        ts = (np.arange(64) + 0.5) * period / 64
        avg = sum(h(t).toarray() for t in ts) / len(ts)
        # |11> block (both spins +1): rows/cols 3*7 .. 4*7
        block = avg[3 * 7:4 * 7, 3 * 7:4 * 7]
        # top Fock level loses its a a^dag term to truncation; skip it
        per_quantum = np.diff(np.diag(block).real)[:-1]
        expected = self.wt ** 2 * (2.0 / 2.0) / (2.0 * W)
        np.testing.assert_allclose(per_quantum, expected, rtol=1e-10)
        # off-diagonal survives only in the a^2 sector, which time-averages out
        assert np.abs(block - np.diag(np.diag(block))).max() < 1e-10 * W

    def test_spin_dependence_sign(self):
        # |00> and |11> blocks carry opposite tweezer sign
        h = self.h(2.3e-4).toarray()
        d = self.space.mode_dim
        b00 = h[:d, :d]
        b11 = h[3 * d:, 3 * d:]
        np.testing.assert_allclose(b00, -b11, atol=1e-12 * np.abs(h).max())

    def test_space_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tweezer_hamiltonian(self.modes, (0, 1), self.wt,
                                hilbert.SpaceSpec(2, (4,)))
        with pytest.raises(ValueError):
            tweezer_hamiltonian(self.modes, (0, 1), self.wt,
                                hilbert.SpaceSpec(1, (4, 3)))
        with pytest.raises(ValueError):
            tweezer_hamiltonian(self.modes, (0, 2), self.wt, self.space)


class TestFieldHamiltonian:
    def setup_method(self):
        self.space = hilbert.SpaceSpec(2, (4, 3))
        self.gamma = 1110.9
        self.mu = W - 2 * np.pi * 1e3
        self.h = field_hamiltonian(self.gamma, self.mu, self.space, W)

    def test_vacuum_matrix_element(self):
        h0 = self.h(0.0).toarray()
        space = self.space
        i0 = space.basis_index("00", (0, 0))
        i1 = space.basis_index("00", (1, 0))
        assert h0[i0, i1] == pytest.approx(2.0 * self.gamma, rel=1e-12)

    def test_zero_gamma(self):
        h = field_hamiltonian(0.0, self.mu, self.space, W)
        assert abs(h(1e-4)).max() == 0.0

    def test_zero_at_quarter_drive_period(self):
        t = 0.5 * np.pi / self.mu  # cos(mu t) = 0
        assert abs(self.h(t)).max() < 1e-9 * self.gamma

    def test_hermitian(self):
        rng = np.random.default_rng(5)
        for t in rng.uniform(0, 4e-3, 20):
            h = self.h(t).toarray()
            scale = max(np.abs(h).max(), 1.0)
            assert np.abs(h - h.conj().T).max() < 1e-12 * scale

    def test_identity_on_qubits_and_spectator_mode(self):
        h = self.h(1.7e-4).toarray()
        d = self.space.mode_dim
        # equal blocks on all four qubit states
        for q in range(1, 4):
            np.testing.assert_allclose(h[q * d:(q + 1) * d, q * d:(q + 1) * d],
                                       h[:d, :d], atol=1e-15 * self.gamma)
        # no coupling between different spectator-mode occupations
        i0 = self.space.basis_index("00", (0, 0))
        i1 = self.space.basis_index("00", (1, 1))
        assert h[i0, i1] == 0.0

    def test_requires_a_mode(self):
        with pytest.raises(ValueError):
            field_hamiltonian(1.0, self.mu, hilbert.SpaceSpec(2, ()), W)


class TestEffectiveModel:
    def test_zz_rate_exact(self):
        c = config()
        m = crystal.normal_modes(trap())
        em = effective_model(c, m)
        gamma = gamma_from_field(c.field_amplitude, c.trap)
        assert em.zz_rate == pytest.approx(-gamma ** 2 / (2 * c.detuning),
                                           rel=1e-14)
        assert em.zz_rate * (-2 * c.detuning / gamma ** 2) == pytest.approx(1.0)

    def test_shift_signs(self):
        gp, gm = pair_com_shifts(trap(), 0.25 * W)
        assert gp > 0 > gm

    @pytest.mark.parametrize("ratio", [0.1, 0.25])
    def test_shift_expansion_quartic_agreement(self, ratio):
        # expansion g ~ +-w_tw^2/(N w); residual is the quartic term of the
        # square root, bounded by (w_tw/w)^4 in units of w
        wt = ratio * W
        gp, gm = pair_com_shifts(trap(), wt)
        approx = wt ** 2 / (2.0 * W)
        assert abs(gp - approx) <= ratio ** 4 * W
        assert abs(gm + approx) <= ratio ** 4 * W

    def test_resonant_detuning_rejected(self):
        gp, _ = pair_com_shifts(trap(), 0.25 * W)
        c = config(detuning=gp)
        m = crystal.normal_modes(trap())
        with pytest.raises(ValueError, match="resonant"):
            effective_model(c, m)

    def test_zero_field_rates(self):
        c = config(field_amplitude=0.0)
        m = crystal.normal_modes(trap())
        em = effective_model(c, m)
        assert em.zz_rate == 0.0
        assert em.w_plus_rate == 0.0
        assert em.w_minus_rate == 0.0
        assert em.g_plus > 0 > em.g_minus

    def test_operating_point_silent_and_zz_dominant(self):
        c = config()
        m = crystal.normal_modes(trap())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            em = effective_model(c, m)
        # echo leaves only the imbalance of the two dephasing channels
        assert abs(em.zz_rate) > 10.0 * abs(em.w_plus_rate + em.w_minus_rate)

    def test_large_detuning_warns(self):
        gp, gm = pair_com_shifts(trap(), 0.25 * W)
        c = config(detuning=-0.5 * min(abs(gp), abs(gm)))
        m = crystal.normal_modes(trap())
        with pytest.warns(UserWarning, match="dominate"):
            effective_model(c, m)

    def test_anti_trapping_tweezer_rejected(self):
        with pytest.raises(ValueError):
            pair_com_shifts(trap(), 1.5 * W)
