"""Linear ion chain mechanics: equilibrium, axial modes, tweezer shifts.

Internally everything is dimensionless (lengths in the Coulomb length
l = (e^2 / (4 pi eps0 M w_z^2))^(1/3), frequencies in w_z); SI enters only
at the API boundary.
"""
from __future__ import annotations

import dataclasses
import functools

import numpy as np
import scipy.constants as const


@dataclasses.dataclass(frozen=True)
class TrapSpec:
    """Static trap and ion parameters.

    axial_frequency is the angular COM frequency w_z of the bare chain
    (rad/s); ion_mass in kg; charge in Coulomb.
    """

    n_ions: int
    ion_mass: float
    axial_frequency: float
    charge: float = const.elementary_charge

    def __post_init__(self):
        if self.n_ions < 1:
            raise ValueError("n_ions must be >= 1")
        if self.ion_mass <= 0:
            raise ValueError("ion_mass must be positive")
        if self.axial_frequency <= 0:
            raise ValueError("axial_frequency must be positive")
        if self.charge <= 0:
            raise ValueError("charge must be positive")


@dataclasses.dataclass(frozen=True)
class CrystalModes:
    """Axial normal-mode data of a chain.

    positions: dimensionless equilibrium coordinates (ascending).
    frequencies: angular mode frequencies, ascending; frequencies[0] is the
    COM mode at the bare trap frequency.
    vectors: orthonormal mode vectors, vectors[m, i] = participation of ion i
    in mode m (rows are modes, same order as frequencies).
    """

    positions: np.ndarray
    frequencies: np.ndarray
    vectors: np.ndarray

    @property
    def n_ions(self) -> int:
        return len(self.positions)

    def restrict(self, mode_indices) -> "CrystalModes":
        """Keep only the listed modes (e.g. (0,) for a COM-only study)."""
        idx = list(mode_indices)
        return CrystalModes(self.positions, self.frequencies[idx],
                            self.vectors[idx, :])


@dataclasses.dataclass(frozen=True)
class TweezerPerturbation:
    """State-dependent tweezer curvature on an addressed ion pair.

    pair is 0-based ion indices (i, j); spin_config the (s_i, s_j) signs of
    the qubit-conditioned potential, s = +1 for |1>.
    """

    tweezer_frequency: float
    pair: tuple
    spin_config: tuple = (1, 1)

    def __post_init__(self):
        i, j = self.pair
        if i == j:
            raise ValueError("pair indices must differ")
        if i < 0 or j < 0:
            raise ValueError("pair indices must be nonnegative")
        si, sj = self.spin_config
        if si not in (-1, 1) or sj not in (-1, 1):
            raise ValueError("spin_config entries must be +1 or -1")
        if self.tweezer_frequency < 0:
            raise ValueError("tweezer_frequency must be >= 0")


def coulomb_length(trap: TrapSpec) -> float:
    """Length unit l of the dimensionless chain coordinates, in meters."""
    k = trap.charge ** 2 / (4.0 * np.pi * const.epsilon_0)
    return (k / (trap.ion_mass * trap.axial_frequency ** 2)) ** (1.0 / 3.0)


def _potential_gradient(u: np.ndarray) -> np.ndarray:
    # dimensionless force balance: trap pull minus pairwise Coulomb repulsion
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    return u - np.sum(np.sign(d) / d ** 2, axis=1)


def _dimensionless_hessian(u: np.ndarray) -> np.ndarray:
    d3 = np.abs(u[:, None] - u[None, :]) ** 3
    np.fill_diagonal(d3, np.inf)
    a = -2.0 / d3
    np.fill_diagonal(a, 1.0 - np.sum(a, axis=1))
    return a


def equilibrium_positions(trap: TrapSpec) -> np.ndarray:
    """Dimensionless equilibrium coordinates, ascending and centered.

    Damped Newton iteration from a uniform-spacing ansatz; the gradient at
    the returned point is below 1e-12 per ion.
    """
    n = trap.n_ions
    if n == 1:
        return np.zeros(1)
    u = np.linspace(-1.0, 1.0, n) * (0.5 * n ** 0.56)
    for _ in range(200):
        g = _potential_gradient(u)
        if np.max(np.abs(g)) < 1e-13:
            break
        h = _dimensionless_hessian(u)
        step = np.linalg.solve(h, g)
        # keep the ordering: cap the step at a fraction of the closest gap
        gap = np.min(np.diff(u))
        scale = min(1.0, 0.4 * gap / max(np.max(np.abs(step)), 1e-300))
        u = u - scale * step
    residual = np.max(np.abs(_potential_gradient(u)))
    if residual > 1e-12:
        raise RuntimeError(
            "equilibrium solve did not converge: residual %.3e" % residual)
    u = np.sort(u)
    return u - np.mean(u)


@functools.lru_cache
def normal_modes(trap: TrapSpec) -> CrystalModes:
    """Equilibrium, mode frequencies (ascending) and orthonormal vectors;
    solved once per trap, so equal TrapSpecs share one read-only result."""
    u = equilibrium_positions(trap)
    lam, vecs = np.linalg.eigh(_dimensionless_hessian(u))
    b = vecs.T.copy()
    # fix the sign gauge: dominant component of each mode positive
    b *= np.sign(b[np.arange(len(b)), np.argmax(np.abs(b), 1)])[:, None]
    freqs = trap.axial_frequency * np.sqrt(lam)
    for arr in (u, freqs, b):
        arr.setflags(write=False)
    return CrystalModes(positions=u, frequencies=freqs, vectors=b)


def mode_coupling_matrix(modes: CrystalModes,
                         pert: TweezerPerturbation) -> np.ndarray:
    """Tweezer curvature in the normal-mode basis (squared rad/s):
    K_mn = w_tw^2 sum over the addressed pair of s_ion b_m,ion b_n,ion.
    Well defined for a restricted (retained) mode set."""
    i, j = pert.pair
    if i >= modes.n_ions or j >= modes.n_ions:
        raise ValueError("pair index out of range for %d ions" % modes.n_ions)
    si, sj = pert.spin_config
    w2, b = pert.tweezer_frequency ** 2, modes.vectors
    return (si * w2 * np.outer(b[:, i], b[:, i])
            + sj * w2 * np.outer(b[:, j], b[:, j]))


def shifted_mode_frequencies(modes: CrystalModes,
                             pert: TweezerPerturbation) -> np.ndarray:
    """Mode frequencies, ascending, with the tweezer curvature added on the
    pair sites: the spectrum of diag(w^2) + K over the modes actually
    present in `modes` (restricted sets allowed)."""
    # mode-basis quadratic form diag(w^2) + K keeps restricted mode sets
    # well posed (the ion-basis form would be rank deficient there); for
    # a complete mode set the spectra coincide
    k = mode_coupling_matrix(modes, pert)
    lam = np.linalg.eigvalsh(np.diag(modes.frequencies ** 2) + k)
    if lam[0] <= 0:
        raise ValueError(
            "anti-trapped mode 0: squared frequency %.3e" % lam[0])
    return np.sqrt(lam)


def resonant_drive_frequency(modes: CrystalModes, tweezer_frequency: float,
                             pair, delta: float) -> float:
    """The drive-frequency rule, in angular rad/s: mu is the lowest exact
    branch of the mixed spin configuration (+1, -1) of the addressed pair
    over the modes present in `modes`, plus delta.

    With only the COM mode present the mixed-configuration curvature
    cancels and this reduces to w_com + delta; with more modes the
    cross-mode coupling pushes the branch down by the amount the drive
    must track.
    """
    mixed = TweezerPerturbation(tweezer_frequency, pair, (1, -1))
    return shifted_mode_frequencies(modes, mixed)[0] + delta


def drive_frequency_correction(trap: TrapSpec, pert: TweezerPerturbation,
                               delta: float = 0.0) -> float:
    """Offset w_com - mu, in angular rad/s, of the drive that
    resonant_drive_frequency sets over the full crystal. With a negative
    delta of order kHz this lands in the positive few-kHz range used to
    tabulate four-ion drive corrections.
    """
    branch = resonant_drive_frequency(normal_modes(trap),
                                      pert.tweezer_frequency, pert.pair, 0.0)
    return trap.axial_frequency - branch - delta
