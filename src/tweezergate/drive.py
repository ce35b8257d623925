"""Gate drive assembly: pulse configuration, field envelope, coupling rate,
drive frequency, and the analytic effective model.

Frame convention: the simulated Hamiltonian (compiled by
evolve.hamiltonian_terms) lives in the interaction picture with respect
to the bare phonon Hamiltonian sum_m w_m (a_m^dag a_m + 1/2), so ladder
operators carry explicit e^{+-i w_m t} phases. The spin-dependent
tweezer term is kept to all orders (cross-mode couplings included); no
rotating-wave approximation is applied to it.

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

from . import crystal as _crystal


@dataclasses.dataclass(frozen=True)
class GateConfig:
    """Four-pulse echo gate settings for one addressed ion pair.

    detuning is signed (angular rad/s) and sets the pulse duration
    2 pi/|detuning|.  field_on_mask marks the pulses with the oscillating
    field active; echo_schedule lists, per pulse boundary, which qubits
    (0 = first of pair, 1 = second) receive an instantaneous pi-pulse;
    each qubit must be flipped an even number of times, so the echo closes.
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
        flips = tuple(sum(b.count(q) for b in self.echo_schedule)
                      for q in (0, 1))
        if any(n % 2 for n in flips):
            raise ValueError(
                f"echo does not close: pi-pulse counts per qubit {flips}")
        if not 0.0 <= self.ramp_fraction <= 0.25:
            raise ValueError("ramp_fraction must lie in [0, 0.25]")

    @property
    def pulse_duration(self) -> float:
        return 2.0 * math.pi / abs(self.detuning)

    def record(self) -> dict:
        """The settings in report units (SI, JSON types), with the trap's
        mass and frequency; callers add the configured or resolved mu."""
        return {
            "n_ions": int(self.trap.n_ions),
            "ion_mass_kg": float(self.trap.ion_mass),
            "axial_frequency_rad_s": float(self.trap.axial_frequency),
            "pair": [int(i) for i in self.pair],
            "tweezer_frequency_rad_s": float(self.tweezer_frequency),
            "field_amplitude_v_per_m": float(self.field_amplitude),
            "detuning_rad_s": float(self.detuning),
            "pulse_count": int(self.pulse_count),
            "field_on_mask": [bool(b) for b in self.field_on_mask],
            "echo_schedule": [[int(q) for q in b]
                              for b in self.echo_schedule],
            "ramp_fraction": float(self.ramp_fraction),
        }


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
    spanning [0, tau]; 0 outside it. A scalar t gives a float, an array
    t an array of the same shape."""
    if not isinstance(t, (int, float)):
        t = np.asarray(t, dtype=float)
        out = [ramp_envelope(float(s), tau, ramp_time) for s in t.ravel()]
        return np.reshape(out, t.shape) if t.ndim else out[0]
    edge = min(t, tau - t)  # time to the nearer pulse edge
    if edge < 0.0:
        return 0.0
    if ramp_time == 0.0:
        return 1.0
    return math.sin(0.5 * math.pi * min(edge / ramp_time, 1.0)) ** 2


def resolve_drive_frequency(config: GateConfig,
                            modes: _crystal.CrystalModes) -> float:
    """Drive frequency against a retained mode set: an explicitly set
    config.drive_frequency, else crystal.resonant_drive_frequency."""
    if config.drive_frequency is not None:
        return config.drive_frequency
    return _crystal.resonant_drive_frequency(
        modes, config.tweezer_frequency, config.pair, config.detuning)


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
