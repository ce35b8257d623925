"""Gate drive assembly: pulse configuration, interaction-picture Hamiltonian
factories, and the analytic effective model.

Frame convention: everything here lives in the interaction picture with
respect to the bare phonon Hamiltonian sum_m w_m (a_m^dag a_m + 1/2), so
ladder operators carry explicit e^{+-i w_m t} phases. The spin-dependent
tweezer term is kept to all orders (cross-mode couplings included); no
rotating-wave approximation is applied to the simulated Hamiltonian.

The detuning stored in GateConfig is measured from the tweezer-shifted COM
frequency of the addressed pair (mixed spin configuration); the pulse
duration 2 pi / |detuning| closes the driven phase-space loop in that
shifted frame. drive_frequency may be left None and resolved against a
crystal via resolve_drive_frequency.
"""
from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import scipy.constants as const
import scipy.sparse as sp

from . import crystal as _crystal
from . import hilbert as _hilbert


@dataclasses.dataclass(frozen=True)
class GateConfig:
    """Four-pulse echo gate settings for one addressed ion pair.

    detuning is signed (angular rad/s) and sets the pulse duration
    2 pi/|detuning|.  field_on_mask marks the pulses with the oscillating
    field active; echo_schedule lists, per pulse boundary, which qubits
    (0 = first of pair, 1 = second) receive an instantaneous pi-pulse.
    ramp_fraction is the sin^2 rise (and fall) time as a fraction of the
    pulse duration, applied to the field envelope only.
    """

    trap: _crystal.TrapSpec
    pair: tuple
    tweezer_frequency: float
    field_amplitude: float
    detuning: float
    drive_frequency: float | None = None
    pulse_count: int = 4
    field_on_mask: tuple = (True, False, False, True)
    echo_schedule: tuple = ((0, 1), (0,), (1,))
    ramp_fraction: float = 0.016

    def __post_init__(self):
        object.__setattr__(self, "pair", tuple(self.pair))
        object.__setattr__(self, "field_on_mask", tuple(self.field_on_mask))
        object.__setattr__(
            self, "echo_schedule",
            tuple(tuple(b) for b in self.echo_schedule))
        i, j = self.pair
        n = self.trap.n_ions
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ValueError("pair must be two distinct ion indices in range")
        if self.tweezer_frequency < 0:
            raise ValueError("tweezer_frequency must be >= 0")
        if self.field_amplitude < 0:
            raise ValueError("field_amplitude must be >= 0")
        if self.detuning == 0:
            raise ValueError("detuning must be nonzero")
        if abs(self.detuning) > 0.1 * self.trap.axial_frequency:
            raise ValueError("detuning must be small against the COM "
                             "frequency")
        if self.pulse_count < 1:
            raise ValueError("pulse_count must be >= 1")
        if len(self.field_on_mask) != self.pulse_count:
            raise ValueError("field_on_mask length must equal pulse_count")
        if len(self.echo_schedule) != self.pulse_count - 1:
            raise ValueError("echo_schedule needs one entry per interior "
                             "pulse boundary")
        for boundary in self.echo_schedule:
            if any(q not in (0, 1) for q in boundary):
                raise ValueError("echo_schedule entries name qubits 0 and 1")
        if not 0.0 <= self.ramp_fraction <= 0.25:
            raise ValueError("ramp_fraction must lie in [0, 0.25]")

    @property
    def pulse_duration(self) -> float:
        return 2.0 * math.pi / abs(self.detuning)

    @property
    def total_time(self) -> float:
        return self.pulse_count * self.pulse_duration

    def resolved_drive_frequency(self) -> float:
        """drive_frequency if set, else tweezer-shifted COM frequency of the
        addressed pair (mixed spin configuration, exact diagonalization) plus
        the detuning; see crystal.drive_frequency_correction."""
        if self.drive_frequency is not None:
            return self.drive_frequency
        pert = _crystal.TweezerPerturbation(
            self.tweezer_frequency, self.pair, (1, -1))
        corr = _crystal.drive_frequency_correction(self.trap, pert)
        return self.trap.axial_frequency - corr + self.detuning


@dataclasses.dataclass(frozen=True)
class EffectiveModel:
    """Second-order rates of the echo gate in the dominant-ZZ regime.

    All rates are angular (rad/s): zz_rate multiplies sigma_z sigma_z,
    w_plus_rate / w_minus_rate multiply the phonon-number-dependent
    dephasing operators of the raised/lowered COM branch.
    """

    gamma: float
    g_plus: float
    g_minus: float
    zz_rate: float
    w_plus_rate: float
    w_minus_rate: float


def gamma_from_field(field_amplitude: float, trap: _crystal.TrapSpec) -> float:
    """Drive coupling rate gamma = e E0 l_com / (2 hbar) (angular rad/s)
    with l_com the COM ground-state extent sqrt(hbar/(2 M w_com))."""
    if field_amplitude < 0:
        raise ValueError("field_amplitude must be >= 0")
    l_com = math.sqrt(const.hbar / (2.0 * trap.ion_mass * trap.axial_frequency))
    return trap.charge * field_amplitude * l_com / (2.0 * const.hbar)


def envelope(t, pulse: int, config: GateConfig):
    """Field envelope within one pulse: sin^2 rise over ramp_fraction of the
    pulse, flat top, mirrored fall. t is measured from the pulse start.
    Returns 0 for pulses with the field off and outside [0, pulse_duration]."""
    tau = config.pulse_duration
    if not config.field_on_mask[pulse]:
        t = np.asarray(t, dtype=float)
        return np.zeros_like(t) if t.ndim else 0.0
    return ramp_envelope(t, tau, config.ramp_fraction * tau)


def ramp_envelope(t, tau, ramp_time):
    """sin^2 rise over ramp_time, flat top, mirrored fall, for a pulse
    spanning [0, tau]; 0 outside it. A scalar t gives a float."""
    t = np.asarray(t, dtype=float)
    edge = np.minimum(t, tau - t)  # time to the nearer pulse edge
    if ramp_time == 0.0:
        shape = 1.0
    else:
        shape = np.sin(0.5 * np.pi * np.minimum(edge / ramp_time, 1.0)) ** 2
    out = np.where(edge >= 0.0, shape, 0.0)
    return out if t.ndim else float(out)


def _mode_space(space: _hilbert.SpaceSpec) -> _hilbert.SpaceSpec:
    return _hilbert.SpaceSpec(0, space.mode_cutoffs)


def _mode_ladders(space: _hilbert.SpaceSpec):
    msp = _mode_space(space)
    ladders = []
    for m, cut in enumerate(space.mode_cutoffs):
        a, ad = _hilbert.ladder_operators(cut)
        ladders.append((_hilbert.embed(a, ("mode", m), msp),
                        _hilbert.embed(ad, ("mode", m), msp)))
    return ladders


def tweezer_hamiltonian(modes: _crystal.CrystalModes, pair, tweezer_frequency,
                        space: _hilbert.SpaceSpec):
    """Interaction-picture spin-dependent tweezer coupling as a factory t ->
    sparse operator on the composite (pair qubits) x (retained modes) space.

    Implements, per addressed ion, sigma_z times
    sum_mn w_tw^2 b_m b_n / (4 sqrt(w_m w_n)) x_m(t) x_n(t) with
    x_m(t) = a_m e^{-i w_m t} + h.c.; cross-mode (m != n) terms included.
    Mode 0 of the space corresponds to row 0 of modes, and so on.
    """
    n_modes = modes.vectors.shape[0]
    if space.n_modes != n_modes:
        raise ValueError("space must carry one mode per retained crystal "
                         "mode")
    if space.n_qubits != 2:
        raise ValueError("composite space must hold the two addressed qubits")
    i, j = pair
    if not (0 <= i < modes.n_ions and 0 <= j < modes.n_ions and i != j):
        raise ValueError("pair index out of range for crystal")
    freqs = modes.frequencies
    ladders = _mode_ladders(space)
    mode_dim = space.mode_dim
    # sigma_z on each addressed qubit, as diagonal 4x4 blocks
    z_i = sp.kron(sp.csr_matrix(_hilbert.SIGMA_Z), sp.identity(2),
                  format="csr")
    z_j = sp.kron(sp.identity(2), sp.csr_matrix(_hilbert.SIGMA_Z),
                  format="csr")
    coef = {}
    for ion, zop in ((i, z_i), (j, z_j)):
        b = modes.vectors[:, ion]
        k = tweezer_frequency ** 2 * np.outer(b, b)
        coef[ion] = k / (4.0 * np.sqrt(np.outer(freqs, freqs)))

    def factory(t: float) -> sp.csr_matrix:
        xs = [a * np.exp(-1j * w * t) + ad * np.exp(1j * w * t)
              for (a, ad), w in zip(ladders, freqs)]
        h = sp.csr_matrix((4 * mode_dim, 4 * mode_dim), dtype=complex)
        for ion, zop in ((i, z_i), (j, z_j)):
            q = sp.csr_matrix((mode_dim, mode_dim), dtype=complex)
            for m in range(n_modes):
                for n in range(n_modes):
                    q = q + coef[ion][m, n] * (xs[m] @ xs[n])
            h = h + sp.kron(zop, q, format="csr")
        return h.tocsr()

    return factory


def field_hamiltonian(gamma: float, drive_frequency: float,
                      space: _hilbert.SpaceSpec, com_frequency: float):
    """Interaction-picture homogeneous-field coupling as a factory t ->
    sparse operator: 2 gamma cos(mu t) (a_com e^{-i w_com t} + h.c.),
    identity on qubits and on every non-COM mode. The COM normal coordinate
    is mode 0 of the space."""
    if space.n_modes < 1:
        raise ValueError("space carries no COM mode")
    a, ad = _hilbert.ladder_operators(space.mode_cutoffs[0])
    msp = _mode_space(space)
    a_full = _hilbert.embed(a, ("mode", 0), msp)
    ad_full = _hilbert.embed(ad, ("mode", 0), msp)
    iq = sp.identity(space.qubit_dim, format="csr")

    def factory(t: float) -> sp.csr_matrix:
        amp = 2.0 * gamma * np.cos(drive_frequency * t)
        x = a_full * np.exp(-1j * com_frequency * t) + \
            ad_full * np.exp(1j * com_frequency * t)
        return sp.kron(iq, amp * x, format="csr")

    return factory


def resolve_drive_frequency(config: GateConfig,
                            modes: _crystal.CrystalModes) -> float:
    """Drive frequency against a retained mode set: the exact lower branch
    of the mixed-spin tweezer-shifted spectrum plus the detuning.

    With only the COM mode retained the mixed-configuration curvature
    cancels and this reduces to w_com + detuning; with more modes retained
    the cross-mode coupling pushes the branch down by the amount the drive
    must track. An explicitly set config.drive_frequency wins.
    """
    if config.drive_frequency is not None:
        return config.drive_frequency
    pert = _crystal.TweezerPerturbation(
        config.tweezer_frequency, config.pair, (1, -1))
    shifted = _crystal.shifted_mode_frequencies(modes, pert, method="exact")
    return shifted[0] + config.detuning


def pair_com_shifts(trap: _crystal.TrapSpec, tweezer_frequency: float):
    """COM frequency shifts (g_plus, g_minus) for aligned spin configurations
    (+,+) and (-,-) of an addressed pair: w (sqrt(1 +- 2 w_tw^2/(N w^2)) - 1).
    Exact for the COM mode in isolation (uniform participation 1/N per ion)."""
    w = trap.axial_frequency
    u = 2.0 * tweezer_frequency ** 2 / (trap.n_ions * w ** 2)
    if u >= 1.0:
        raise ValueError("tweezer curvature anti-traps the lowered COM branch")
    return w * (math.sqrt(1.0 + u) - 1.0), w * (math.sqrt(1.0 - u) - 1.0)


def effective_model(config: GateConfig,
                    modes: _crystal.CrystalModes) -> EffectiveModel:
    """Second-order rates: zz_rate = -gamma^2/(2 delta) and the two
    phonon-dephasing rates gamma^2/(g_pm - delta).

    Warns when |delta| is not small against the COM shifts (the ZZ term then
    no longer dominates); raises on a resonant detuning delta = g_pm.
    """
    gamma = gamma_from_field(config.field_amplitude, config.trap)
    g_plus, g_minus = pair_com_shifts(config.trap, config.tweezer_frequency)
    delta = config.detuning
    for g in (g_plus, g_minus):
        if abs(delta - g) <= 1e-9 * max(abs(g), abs(delta)):
            raise ValueError("detuning resonant with a shifted COM branch")
    gmin = min(abs(g_plus), abs(g_minus))
    if abs(delta) > 0.25 * gmin:
        warnings.warn("detuning not small against the COM shifts; "
                      "ZZ term no longer dominates the effective model",
                      stacklevel=2)
    return EffectiveModel(
        gamma=gamma,
        g_plus=g_plus,
        g_minus=g_minus,
        zz_rate=-gamma ** 2 / (2.0 * delta),
        w_plus_rate=gamma ** 2 / (g_plus - delta),
        w_minus_rate=gamma ** 2 / (g_minus - delta),
    )
