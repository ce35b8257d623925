"""Gate-sequence propagation: integrators, pulse schedules, trajectories.

States are vectors on a hilbert.SpaceSpec composite (qubits major, modes
minor) in the oscillator interaction picture, so a state at rest under
H = 0 stays constant. run_gate offers two backends: "gaussian" composes
the exact displaced-oscillator factors and returns the final state in the
field-free reference frame of each qubit configuration (the same frame the
channel reconstruction uses); "ode" integrates the literal time-dependent
Hamiltonian and returns the full interaction-picture state. The
Hamiltonian is diagonal in the qubits, so the ODE state is the stack of
the four qubit configurations' mode-space blocks, evolved by one compiled
right-hand side (CompiledHamiltonian); _integrate is the package's one
ODE solver call.
"""
from __future__ import annotations

import csv
import dataclasses
import math

import numpy as np
import scipy.integrate
import scipy.sparse as sp

from . import _exact, crystal, drive, hilbert

_TOL_RANGE = (1e-12, 1e-6)


def _integrate(hamiltonian, state, t0, t1, tol, max_step, atol=None,
               t_eval=None):
    """Solve i dY/dt = H(t) Y with DOP853 for a vector or a matrix Y.

    The one integrator of the package. hamiltonian(t) returns an operator
    acting on Y; atol defaults to 1e-3 tol. Returns the flattened states
    at the times t_eval (default: t1 alone), one column each, read from
    the steps' interpolants; no other step is stored.
    """
    if not _TOL_RANGE[0] <= tol <= _TOL_RANGE[1]:
        raise ValueError(
            f"tol must lie in [{_TOL_RANGE[0]:g}, {_TOL_RANGE[1]:g}]")
    y0 = np.asarray(state, dtype=complex)
    shape = y0.shape

    def rhs(t, y):
        return (-1j * (hamiltonian(t) @ y.reshape(shape))).ravel()

    sol = scipy.integrate.solve_ivp(
        rhs, (t0, t1), y0.ravel(), method="DOP853", rtol=tol,
        atol=tol * 1e-3 if atol is None else atol,
        max_step=np.inf if max_step is None else max_step,
        t_eval=(t1,) if t_eval is None else t_eval)
    if not sol.success:
        t_fail = sol.t[-1] if len(sol.t) else t0
        raise RuntimeError(
            f"integration failed at t = {t_fail:.9e} s: {sol.message}")
    return sol.y


def propagate(hamiltonian, state, t0, t1, tol=1e-9, max_step=None):
    """Integrate i d|psi>/dt = H(t)|psi> from t0 to t1 with DOP853.

    hamiltonian: callable t -> operator (sparse or dense array) acting on
    state vectors. t1 < t0 integrates backwards. Raises RuntimeError
    carrying the failure time if the step size underflows.
    """
    return _integrate(hamiltonian, state, t0, t1, tol, max_step)[:, -1]


def propagator(hamiltonian, space, t0, t1, tol=1e-9, max_step=None):
    """Propagator matrix on a SpaceSpec (or explicit dimension).

    Columns are propagate() applied to the basis states, integrated as one
    matrix-valued ODE so all columns share the adaptive time grid.
    """
    dim = space.dim if isinstance(space, hilbert.SpaceSpec) else int(space)
    u = _integrate(hamiltonian, np.eye(dim), t0, t1, tol, max_step)
    return u[:, -1].reshape(dim, dim)


@dataclasses.dataclass(frozen=True)
class PulseRecord:
    """One pulse: duration, whether the field drives it, envelope ramp
    time, and the qubits flipped by pi-pulses at the pulse's end."""

    duration: float
    field_on: bool
    ramp_time: float
    flip_after: tuple = ()

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("pulse duration must be positive")
        if not 0 <= 2 * self.ramp_time <= self.duration:
            raise ValueError("ramps must fit inside the pulse")


@dataclasses.dataclass(frozen=True)
class PulseSchedule:
    pulses: tuple

    def __post_init__(self):
        if not self.pulses:
            raise ValueError("schedule needs at least one pulse")

    @property
    def total_time(self) -> float:
        return sum(p.duration for p in self.pulses)

    def flip_counts(self, n_qubits: int):
        counts = [0] * n_qubits
        for p in self.pulses:
            for q in p.flip_after:
                counts[q] += 1
        return tuple(counts)


def schedule_from_config(config: drive.GateConfig) -> PulseSchedule:
    """Pulse records of the echoed sequence.

    Requires the echo to close: every qubit must be flipped an even number
    of times so the net single-qubit Pauli frame is the identity.
    """
    tau = config.pulse_duration
    ramp = config.ramp_fraction * tau
    pulses = []
    for p in range(config.pulse_count):
        flips = config.echo_schedule[p] if p < config.pulse_count - 1 else ()
        pulses.append(PulseRecord(tau, config.field_on_mask[p], ramp,
                                  tuple(flips)))
    schedule = PulseSchedule(tuple(pulses))
    counts = schedule.flip_counts(2)
    if any(c % 2 for c in counts):
        raise ValueError(
            f"echo does not close: pi-pulse counts per qubit {counts}")
    return schedule


@dataclasses.dataclass
class Trajectory:
    """Sampled COM-mode mean <a_com>(t) for one initial qubit state."""

    times: np.ndarray
    alpha: np.ndarray
    qubit_state_label: str

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.alpha = np.asarray(self.alpha, dtype=complex)
        if self.times.shape != self.alpha.shape:
            raise ValueError("times and alpha must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")

    def to_csv(self, path, comment: str | None = None):
        with open(path, "w", newline="") as fh:
            if comment is not None:
                fh.write(f"# {comment}\n")
            writer = csv.writer(fh)
            writer.writerow(["time_s", "re_alpha", "im_alpha",
                             "qubit_state_label"])
            for t, a in zip(self.times, self.alpha):
                writer.writerow([f"{t:.12e}", f"{a.real:.12e}",
                                 f"{a.imag:.12e}", self.qubit_state_label])


_LABELS = ("00", "01", "10", "11")


def _qubit_vector(qubit_state):
    if isinstance(qubit_state, str):
        if qubit_state not in _LABELS:
            raise ValueError(f"unknown qubit state label {qubit_state!r}")
        vec = np.zeros(4, dtype=complex)
        vec[_LABELS.index(qubit_state)] = 1.0
        return vec, qubit_state
    vec = np.asarray(qubit_state, dtype=complex)
    if vec.shape != (4,):
        raise ValueError("qubit state must be a label or a length-4 vector")
    nz = np.flatnonzero(np.abs(vec) > 1e-12)
    label = _LABELS[nz[0]] if len(nz) == 1 else "superposition"
    return vec, label


def _motional_vector(motional_state, space: hilbert.SpaceSpec):
    if isinstance(motional_state, (tuple, list)):
        occ = tuple(motional_state)
        vec = np.zeros(space.mode_dim, dtype=complex)
        idx = 0
        for n_m, dim in zip(occ, space.mode_dims):
            if not 0 <= n_m < dim:
                raise ValueError("occupation outside the cutoff")
            idx = idx * dim + n_m
        vec[idx] = 1.0
        return vec
    vec = np.asarray(motional_state, dtype=complex)
    if vec.shape != (space.mode_dim,):
        raise ValueError("motional state has the wrong dimension")
    return vec


def retained_modes(config: drive.GateConfig, space: hilbert.SpaceSpec):
    """Crystal modes kept in the simulation space: the space's first
    space.n_modes axial modes, lowest frequency (COM) first."""
    modes = crystal.normal_modes(config.trap)
    if space.n_modes > config.trap.n_ions:
        raise ValueError("more retained modes than the crystal has")
    return modes.restrict(range(space.n_modes))


def _displace_modes(mot, alpha, space: hilbert.SpaceSpec):
    """Apply the product of per-mode displacements D(alpha_m) to a
    motional vector (tensor-contracted mode by mode)."""
    tensor = mot.reshape(space.mode_dims)
    for m, (a_m, dim) in enumerate(zip(alpha, space.mode_dims)):
        if a_m == 0.0:
            continue
        d_m = _exact.mode_displacements(1j * a_m, dim)
        tensor = np.moveaxis(np.tensordot(d_m, tensor, axes=([1], [m])),
                             0, m)
    return tensor.ravel()


def run_gate(config: drive.GateConfig, qubit_state, motional_state,
             space: hilbert.SpaceSpec, backend: str = "gaussian",
             samples_per_pulse: int = 200, tol: float = 1e-9,
             max_step=None):
    """Run the full echoed pulse sequence.

    qubit_state: basis label ("00".."11") or a normalized length-4 vector.
    motional_state: per-mode occupation tuple or a vector on the mode
    space. Returns (final state on space, Trajectory). The trajectory
    records <a_com> at samples_per_pulse points per pulse (>= 200 enforced)
    plus the t = 0 sample.

    backend "gaussian": exact displaced-oscillator composition; the final
    state is expressed in the per-configuration field-free reference frame.
    backend "ode": adaptive integration (tolerance tol) of the literal
    Hamiltonian, compiled by hamiltonian_terms, with the drive period
    resolved by at least 20 steps; the final state is the full
    interaction-picture state. max_step lowers the step cap further and
    applies to "ode" only.
    """
    if space.n_qubits != 2:
        raise ValueError("the gate sequence addresses exactly two qubits")
    if samples_per_pulse < 200:
        raise ValueError("post-condition requires >= 200 samples per pulse")
    if backend != "ode" and max_step is not None:
        raise ValueError("max_step applies only to the ode backend")
    qvec, label = _qubit_vector(qubit_state)
    mot = _motional_vector(motional_state, space)
    norm = np.linalg.norm(qvec) * np.linalg.norm(mot)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError("initial state must be normalized")
    modes = retained_modes(config, space)
    schedule = schedule_from_config(config)

    if backend == "gaussian":
        return _run_gaussian(config, modes, qvec, mot, label, space,
                             samples_per_pulse)
    if backend == "ode":
        return _run_ode(config, modes, qvec, mot, label, space, schedule,
                        samples_per_pulse, tol, max_step)
    raise ValueError(f"unknown backend {backend!r}")


def _run_gaussian(config, modes, qvec, mot, label, space,
                  samples_per_pulse):
    setup = _exact.setup_from_config(config, modes)
    n = setup.n_modes
    out = np.zeros(space.dim, dtype=complex)
    alpha_traj = None
    times = None
    for c, (si, sj) in enumerate(_exact.CONFIG_S):
        weight = abs(qvec[c]) ** 2
        if weight < 1e-24:
            continue
        gens = _exact.config_generators(setup, si, sj)
        alpha, phase = _exact.gaussian_u_rel(gens, n)
        block = slice(c * space.mode_dim, (c + 1) * space.mode_dim)
        out[block] = qvec[c] * np.exp(1j * phase) * _displace_modes(
            mot, alpha, space)
        t_s, means = _exact.config_trajectory(
            setup, si, sj, np.zeros(2 * n, dtype=complex), samples_per_pulse)
        contrib = weight * means[:, 0]
        alpha_traj = contrib if alpha_traj is None else alpha_traj + contrib
        times = t_s
    traj = Trajectory(times, alpha_traj, label)
    return out, traj


@dataclasses.dataclass(frozen=True)
class CompiledHamiltonian:
    """Interaction-picture Hamiltonian of one pulse on a stack of mode-space
    blocks, one per qubit configuration:

        H_c(t) = sum_k (static[c, k] + env(t) field[k]) e^{i freqs[k] t} O_k

    Row k of data holds the term operator O_k on the shared CSR pattern
    (indptr, indices), the union of every term's nonzeros, so an
    evaluation is one coefficient-matrix product and no operator algebra.
    """

    freqs: np.ndarray
    static: np.ndarray
    field: np.ndarray
    data: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    dim: int
    tau: float
    ramp_time: float

    def stacked(self, t_a=None):
        """t -> block-diagonal H(t) of all blocks, refilled in place on
        every call. The field follows the envelope of the pulse starting
        at t_a; t_a None leaves it off."""
        n_blocks, nnz = self.static.shape[0], self.data.shape[1]
        shift = np.arange(n_blocks)[:, None]
        h = sp.csr_matrix(
            (np.zeros(n_blocks * nnz, dtype=complex),
             (self.indices + shift * self.dim).ravel(),
             np.append(0, (self.indptr[1:] + shift * nnz).ravel())),
            shape=(n_blocks * self.dim,) * 2)
        blocks = h.data.reshape(n_blocks, nnz)
        rates = 1j * self.freqs
        static, field, data = self.static, self.field, self.data
        tau, ramp_time = self.tau, self.ramp_time

        def at(t):
            amp = static
            if t_a is not None:
                env = drive.ramp_envelope(t - t_a, tau, ramp_time)
                amp = amp + env * field
            np.matmul(amp * np.exp(rates * t), data, out=blocks)
            return h

        return at


def hamiltonian_terms(setup: _exact.SequenceSetup, dims,
                      configs=_exact.CONFIG_S) -> CompiledHamiltonian:
    """Compile the pulse Hamiltonian of a SequenceSetup on the mode space
    with cutoff dimensions dims, one block per qubit configuration in
    configs (spin signs (s_i, s_j)).

    The tweezer term is sum_mn K_mn / (4 sqrt(w_m w_n)) x_m(t) x_n(t) with
    K = setup.coupling(s_i, s_j); the field term is
    2 gamma cos(mu t) sum_m bcom_m x_m(t); x_m(t) = a_m e^{-i w_m t} + h.c.
    Equals block c of the literal composite-space tweezer term plus
    envelope times the field term (tests/literal_hamiltonian.py). Terms
    that vanish in every block are dropped.
    """
    ws = np.asarray(setup.ws, float)
    a_ops, ad_ops = _exact.sparse_ladders(dims)
    k_mats = np.array([setup.coupling(si, sj) for si, sj in configs])
    terms = []  # (freq, static amplitude per block, field amplitude, op)
    for m, wm in enumerate(ws):
        for n, wn in enumerate(ws):
            amp = 0.25 * k_mats[:, m, n] / math.sqrt(wm * wn)
            if amp.any():
                terms += [(-(wm + wn), amp, 0.0, a_ops[m] @ a_ops[n]),
                          (-(wm - wn), amp, 0.0, a_ops[m] @ ad_ops[n]),
                          (wm - wn, amp, 0.0, ad_ops[m] @ a_ops[n]),
                          (wm + wn, amp, 0.0, ad_ops[m] @ ad_ops[n])]
    no_tweezer = np.zeros(len(configs))
    for m, wm in enumerate(ws):
        g = setup.gamma * setup.bcom[m]
        if g != 0.0:
            mu = setup.mu
            terms += [(mu - wm, no_tweezer, g, a_ops[m]),
                      (-(mu + wm), no_tweezer, g, a_ops[m]),
                      (mu + wm, no_tweezer, g, ad_ops[m]),
                      (-(mu - wm), no_tweezer, g, ad_ops[m])]
    dim = int(np.prod(dims))
    coo = [op.tocoo() for *_, op in terms]
    flat = [c.row.astype(np.int64) * dim + c.col for c in coo]
    union = np.unique(np.concatenate(flat)) if flat else np.zeros(0, int)
    data = np.zeros((len(terms), len(union)), dtype=complex)
    for k, (c, f) in enumerate(zip(coo, flat)):
        data[k, np.searchsorted(union, f)] = c.data
    return CompiledHamiltonian(
        freqs=np.array([t[0] for t in terms], dtype=float),
        static=np.array([t[1] for t in terms]).reshape(-1, len(configs)).T,
        field=np.array([t[2] for t in terms], dtype=float),
        data=data,
        indptr=np.searchsorted(union // dim, np.arange(dim + 1)),
        indices=union % dim, dim=dim,
        tau=setup.tau, ramp_time=setup.ramp_time)


def _run_ode(config, modes, qvec, mot, label, space, schedule,
             samples_per_pulse, tol, max_step):
    """The composite state is the stack of the four qubit configurations'
    mode-space blocks; pi-pulses permute the blocks."""
    setup = _exact.setup_from_config(config, modes)
    h = hamiltonian_terms(setup, space.mode_dims)
    step_cap = (2 * np.pi / setup.mu) / 20.0
    step = step_cap if max_step is None else min(max_step, step_cap)
    a_com = hilbert.embed(hilbert.ladder_operators(space.mode_cutoffs[0])[0],
                          ("mode", 0), space)

    def com_mean(states):
        return np.sum(np.conj(states) * (a_com @ states), axis=0)

    psi = np.kron(qvec, mot)
    times = [0.0]
    alpha = [complex(com_mean(psi))]
    t_a = 0.0
    for pulse in schedule.pulses:
        t_b = t_a + pulse.duration
        ts = t_a + np.arange(1, samples_per_pulse + 1) * pulse.duration \
            / samples_per_pulse
        states = _integrate(h.stacked(t_a if pulse.field_on else None),
                            psi, t_a, t_b, tol, step,
                            t_eval=np.append(ts[:-1], t_b))
        times.extend(ts)
        alpha.extend(com_mean(states))
        blocks = states[:, -1].reshape(4, space.mode_dim)
        for q in pulse.flip_after:
            # qubit 0 is the high bit of the configuration index
            blocks = blocks[np.arange(4) ^ (2 >> q)]
        psi = blocks.ravel()
        t_a = t_b
    traj = Trajectory(np.array(times), np.array(alpha), label)
    return psi, traj
