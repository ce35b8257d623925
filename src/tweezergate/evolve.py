"""Gate-sequence propagation: integrators, pulse schedules, trajectories.

States are vectors on a hilbert.SpaceSpec composite (qubits major, modes
minor) in the oscillator interaction picture, so a state at rest under
H = 0 stays constant. run_gate offers two backends: "gaussian" composes
the exact displaced-oscillator factors and returns the final state in the
field-free reference frame of each qubit configuration (the same frame the
channel reconstruction uses); "ode" integrates the literal time-dependent
Hamiltonian and returns the full interaction-picture state. The
Hamiltonian is diagonal in the qubits, so the ODE state is the stack of
the four qubit configurations' mode-space blocks, compiled into one
right-hand side (CompiledHamiltonian). Only the driven pulses are
integrated; field-free pulses are exact closed-form exponentials of the
compiled static Hamiltonian (_exact.walk_pulses, shared with the ODE
channel). _integrate is the package's one ODE solver call.
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


def _check_tol(tol):
    if not _TOL_RANGE[0] <= tol <= _TOL_RANGE[1]:
        raise ValueError(
            f"tol must lie in [{_TOL_RANGE[0]:g}, {_TOL_RANGE[1]:g}]")


def _integrate(generator, state, t0, t1, tol, max_step, atol=None,
               t_eval=None):
    """Solve dY/dt = G(t) Y, G = -i H, with DOP853 for a vector or a
    matrix Y.

    The one integrator of the package. generator(t) returns an operator
    acting on Y; atol defaults to 1e-3 tol. Returns the flattened states
    at the times t_eval (default: t1 alone), one column each, read from
    the steps' interpolants; no other step is stored. tol, DOP853's
    per-step rtol, does not bound the final state: at tol 1e-12 a short
    gate's |11> run ends 2.2e-10 away from a solve at rtol 2.2e-14.
    """
    _check_tol(tol)
    y0 = np.asarray(state, dtype=complex)
    shape = (len(y0), y0.size // len(y0))
    if shape[1] == 1:
        def rhs(t, y):
            return generator(t) @ y
    else:
        def rhs(t, y):
            return (generator(t) @ y.reshape(shape)).ravel()

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
    return _integrate(lambda t: -1j * hamiltonian(t), state, t0, t1, tol,
                      max_step)[:, -1]


def propagator(hamiltonian, space, t0, t1, tol=1e-9, max_step=None):
    """Propagator matrix on a SpaceSpec (or explicit dimension).

    Columns are propagate() applied to the basis states, integrated as one
    matrix-valued ODE so all columns share the adaptive time grid.
    """
    dim = space.dim if isinstance(space, hilbert.SpaceSpec) else int(space)
    u = _integrate(lambda t: -1j * hamiltonian(t), np.eye(dim), t0, t1, tol,
                   max_step)
    return u[:, -1].reshape(dim, dim)


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
        vec = np.zeros(space.mode_dim, dtype=complex)
        vec[space.basis_index("0" * space.n_qubits, motional_state)] = 1.0
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
    backend "ode": adaptive integration (DOP853, per-step rtol tol and
    atol 1e-3 tol, which do not bound the final state) of the literal
    Hamiltonian, compiled by hamiltonian_terms, over the driven pulses,
    with the drive period resolved by at least 20 steps; field-free
    pulses, samples included, are exact closed-form exponentials of the
    compiled static Hamiltonian. The final state is the full
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
    flips = tuple(sum(q in b for b in config.echo_schedule) for q in (0, 1))
    if any(n % 2 for n in flips):
        raise ValueError(
            f"echo does not close: pi-pulse counts per qubit {flips}")
    modes = retained_modes(config, space)

    if backend == "gaussian":
        return _run_gaussian(config, modes, qvec, mot, label, space,
                             samples_per_pulse)
    if backend == "ode":
        return _run_ode(config, modes, qvec, mot, label, space,
                        samples_per_pulse, tol, max_step)
    raise ValueError(f"unknown backend {backend!r}")


def _run_gaussian(config, modes, qvec, mot, label, space,
                  samples_per_pulse):
    setup = _exact.setup_from_config(config, modes)
    n = setup.n_modes
    out = np.zeros(space.dim, dtype=complex)
    weighted = np.flatnonzero(np.abs(qvec) ** 2 >= 1e-24)
    configs = [_exact.CONFIG_S[c] for c in weighted]
    alphas = []
    for c, cfg, gens in zip(weighted, configs,
                            _exact.config_generators(setup, configs)):
        alpha, phase = _exact.gaussian_u_rel(gens, n)
        block = slice(c * space.mode_dim, (c + 1) * space.mode_dim)
        out[block] = qvec[c] * np.exp(1j * phase) * _displace_modes(
            mot, alpha, space)
        times, means = _exact.config_trajectory(
            setup, *cfg, np.zeros(2 * n, dtype=complex), samples_per_pulse)
        alphas.append(abs(qvec[c]) ** 2 * means[:, 0])
    return out, Trajectory(times, np.sum(alphas, axis=0), label)


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
        """t -> the block-diagonal generator -i H(t) of all blocks, the
        operator _integrate takes, refilled in place on every call. The
        field follows the envelope of the pulse starting at t_a; t_a None
        leaves it off."""
        n_blocks, nnz = self.static.shape[0], self.data.shape[1]
        shift = np.arange(n_blocks)[:, None]
        h = sp.csr_matrix(
            (np.zeros(n_blocks * nnz, dtype=complex),
             (self.indices + shift * self.dim).ravel(),
             np.append(0, (self.indptr[1:] + shift * nnz).ravel())),
            shape=(n_blocks * self.dim,) * 2)
        blocks = h.data.reshape(n_blocks, nnz)
        rates = 1j * self.freqs
        # -i folded into the amplitudes; the flat top's are kept
        static, field = -1j * self.static, -1j * self.field
        flat_top = static + field
        data, envelope = self.data, drive.ramp_envelope
        tau, ramp_time = self.tau, self.ramp_time

        def at(t):
            amp = static
            if t_a is not None:
                env = envelope(t - t_a, tau, ramp_time)
                amp = flat_top if env == 1.0 else static + env * field
            np.dot(amp * np.exp(rates * t), data, out=blocks)
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


def _run_ode(config, modes, qvec, mot, label, space, samples_per_pulse,
             tol, max_step):
    """Each qubit configuration of nonzero weight is walked on its own,
    its block starting from mot and following its spin path, so the
    integrator's step grid never depends on the other amplitudes and the
    result is linear in qvec by construction. The echo closes, so block c
    ends in configuration c."""
    setup = _exact.setup_from_config(config, modes)
    tau, dim = setup.tau, space.mode_dim
    offsets = np.append(np.arange(1, samples_per_pulse) * tau
                        / samples_per_pulse, tau)
    a_com = _exact.sparse_ladders(space.mode_dims)[0][0]
    out = np.zeros((4, dim), dtype=complex)
    alpha = 0.0
    for c in np.flatnonzero(np.abs(qvec) ** 2 >= 1e-24):
        start = np.zeros((4, dim, 1), dtype=complex)
        start[c, :, 0] = mot
        states = _exact.walk_pulses(setup, space.mode_dims, start, offsets,
                                    tol, max_step)[:, :, c, :, 0]
        out[c] = qvec[c] * states[-1, -1]
        cols = np.concatenate([mot[None], states.reshape(-1, dim)]).T
        alpha = alpha + abs(qvec[c]) ** 2 * np.sum(
            np.conj(cols) * (a_com @ cols), axis=0)
    times = np.arange(setup.pulse_count)[:, None] * tau + offsets
    return out.ravel(), Trajectory(np.append(0.0, times), alpha, label)
