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
block-diagonal generator (CompiledHamiltonian, PulseGenerator) with the
closed form's envelope, drive.envelope_pieces. Only the driven pulses are
integrated; field-free pulses are exact closed-form exponentials of the
compiled static Hamiltonian (_exact.walk_pulses, shared with the ODE
channel). _integrate, the package's one ODE solver, is scipy's DOP853
written out for dY/dt = G(t) Y: the generators of all stage times of a
step come from one evaluation and each stage applies its CSR data with
scipy's compiled kernel. Only this backend uses scipy: the tableau
(scipy.integrate.DOP853) is read on the first _integrate call and
scipy.sparse, with its CSR kernel, is imported where the ODE operators
are built, so the gaussian path never loads it.
"""
from __future__ import annotations

import csv
import dataclasses
import functools
import math

import numpy as np

from . import _exact, crystal, drive, hilbert

_TOL_RANGE = (1e-12, 1e-6)
_TOL_DEFAULT = 1e-9  # the ode backend's tol where none is given


def _check_tol(tol):
    if not _TOL_RANGE[0] <= tol <= _TOL_RANGE[1]:
        raise ValueError(
            f"tol must lie in [{_TOL_RANGE[0]:g}, {_TOL_RANGE[1]:g}]")


def _check_backend_tol(backend, tol):
    """A tol given with a backend that integrates nothing is an error."""
    if tol is not None and backend != "ode":
        raise ValueError("tol applies only to the ode backend")


_ERROR_EXPONENT = -1 / 8  # -1 / (DOP853's error_estimator_order + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10


@functools.cache
def _tableau():
    """(DOP853, stage times of a step over h, stage weights, dense-output
    stage weights) of scipy.integrate.DOP853, whose stepping, step-size
    control and dense output _integrate reproduces; the weights are cast
    to complex once, not by np.dot at every stage."""
    from scipy.integrate import DOP853 as dop
    return (dop, np.append(dop.C[1:], 1.0),
            [dop.A[s, :s].astype(complex) for s in range(1, dop.n_stages)],
            [a[:s].astype(complex) for s, a in
             enumerate(dop.A_EXTRA, start=dop.n_stages + 1)])


def _stage_ops(generator, n_rows, n_vecs):
    """(evaluate, apply): evaluate(times) gives one generator operand per
    time, and apply(operand, y, out) adds G(t) y to out.

    A PulseGenerator gives the CSR data rows of all times from one
    evaluation, applied by scipy's compiled CSR kernel; a plain callable
    gives one operator per time."""
    if isinstance(generator, PulseGenerator):
        from scipy.sparse import _sparsetools
        if n_vecs == 1:
            head = (_sparsetools.csr_matvec, generator.dim, generator.dim)
        else:
            head = (_sparsetools.csr_matvecs, generator.dim, generator.dim,
                    n_vecs)
        return generator.data, functools.partial(
            *head, generator.indptr, generator.indices)
    shape = (n_rows,) if n_vecs == 1 else (n_rows, n_vecs)

    def apply(op, y, out):
        out += (op @ y.reshape(shape)).ravel()

    return (lambda ts: [generator(t) for t in ts]), apply


def _initial_step(evaluate, apply, t0, y, f, t1, max_step, rtol, atol):
    """scipy's select_initial_step for DOP853, integrating forward."""
    def rms(x):
        return np.linalg.norm(x) / x.size ** 0.5

    interval = t1 - t0
    scale = atol + np.abs(y) * rtol
    d0, d1 = rms(y / scale), rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = np.zeros_like(f)
    apply(evaluate((t0 + h0,))[0], y + h0 * f, f1)
    d2 = rms((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    return min(100 * h0, h1, interval, max_step)


def _error_norm(k, h, scale, dop):
    """DOP853's scaled error of a step with stages k."""
    err5 = np.dot(k.T, dop.E5) / scale
    err3 = np.dot(k.T, dop.E3) / scale
    err5_2 = np.linalg.norm(err5) ** 2
    err3_2 = np.linalg.norm(err3) ** 2
    if err5_2 == 0 and err3_2 == 0:
        return 0.0
    return np.abs(h) * err5_2 / np.sqrt((err5_2 + 0.01 * err3_2)
                                        * len(scale))


def _integrate(generator, state, t0, t1, tol, max_step, atol=None,
               t_eval=None):
    """Solve dY/dt = G(t) Y, G = -i H, with DOP853 for a vector or a
    matrix Y, forward from t0 to t1 >= t0, no step longer than max_step.

    The one integrator of the package: scipy's DOP853 (its tableau,
    initial step, step-size control and dense output, in the same
    operation order) stepping a linear system. generator is a
    PulseGenerator, which evaluates the twelve stage generators of a step
    in one pass and applies each with the compiled CSR kernel, or any
    callable t -> operator acting on Y. atol defaults to 1e-3 tol.
    Returns the flattened states at the times t_eval (default: t1 alone;
    strictly increasing, within [t0, t1]), one column each, read from the
    steps' interpolants; no other step is stored. tol, DOP853's per-step
    rtol, does not bound the final state: at tol 1e-12 a short gate's
    |11> run ends 2.2e-10 away from a solve at rtol 2.2e-14.
    """
    _check_tol(tol)
    t0, t1 = float(t0), float(t1)
    if t1 < t0:
        raise ValueError("integration runs forward: t1 must be >= t0")
    if not max_step > 0:
        raise ValueError("max_step must be positive")
    t_eval = np.asarray((t1,) if t_eval is None else t_eval, dtype=float)
    if t_eval.ndim != 1:
        raise ValueError("t_eval must be one-dimensional")
    if np.any(t_eval < t0) or np.any(t_eval > t1):
        raise ValueError("t_eval must lie within [t0, t1]")
    if np.any(np.diff(t_eval) <= 0):
        raise ValueError("t_eval must be sorted, strictly increasing")
    rtol = tol
    atol = np.asarray(tol * 1e-3 if atol is None else atol)
    y0 = np.asarray(state, dtype=complex)
    y = y0.ravel()
    n = y.size
    if n == 0 or t0 == t1:
        return np.repeat(y[:, None], len(t_eval), axis=1)
    evaluate, apply = _stage_ops(generator, len(y0), n // len(y0))
    dop, stage_c, stage_a, extra_a = _tableau()
    # K[s] accumulates the stage derivative s of a step; rows 13-15 hold
    # the extra stages of the dense output
    k_ext = np.zeros((dop.A_EXTRA.shape[1], n), dtype=complex)
    k = k_ext[:dop.n_stages + 1]
    k_t = [k[:s].T for s in range(1, dop.n_stages)]
    k_ext_t = [k_ext[:s].T for s in range(dop.n_stages + 1,
                                          k_ext.shape[0])]

    f = np.zeros(n, dtype=complex)
    apply(evaluate((t0,))[0], y, f)
    h_abs = _initial_step(evaluate, apply, t0, y, f, t1, max_step, rtol,
                          atol)

    i_eval = 0
    out = []
    t = t0
    while True:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError(
                    f"integration failed at t = {t:.9e} s: required step "
                    "size is less than spacing between numbers")
            t_new = min(t + h_abs, t1)
            h = h_abs = t_new - t
            ops = evaluate(t + stage_c * h)
            k[0] = f
            k[1:] = 0.0
            for s, (kt, a, op) in enumerate(zip(k_t, stage_a, ops), 1):
                apply(op, y + np.dot(kt, a) * h, k[s])
            y_new = y + h * np.dot(k[:-1].T, dop.B)
            apply(ops[-1], y_new, k[-1])
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error = _error_norm(k, h, scale, dop)
            if error < 1:
                factor = _MAX_FACTOR if error == 0 else min(
                    _MAX_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
            rejected = True
        t_old, y_old = t, y
        t, y, f = t_new, y_new, k[-1].copy()

        i_new = t_eval.searchsorted(t, side="right")
        t_step = t_eval[i_eval:i_new]
        if t_step.size > 0:
            # scipy's Dop853DenseOutput over the step just taken
            ops = evaluate(t_old + dop.C_EXTRA * h)
            k_ext[dop.n_stages + 1:] = 0.0
            for s, (kt, a, op) in enumerate(zip(k_ext_t, extra_a, ops),
                                            dop.n_stages + 1):
                apply(op, y_old + np.dot(kt, a) * h, k_ext[s])
            poly = np.empty((3 + len(dop.D), n), dtype=complex)
            f_old, delta_y = k_ext[0], y - y_old
            poly[0] = delta_y
            poly[1] = h * f_old - delta_y
            poly[2] = 2 * delta_y - h * (f + f_old)
            poly[3:] = h * np.dot(dop.D, k_ext)
            x = ((t_step - t_old) / (t - t_old))[:, None]
            ys = np.zeros((len(x), n), dtype=complex)
            for i, p in enumerate(reversed(poly)):
                ys += p
                ys *= x if i % 2 == 0 else 1 - x
            ys += y_old
            out.append(ys.T)
            i_eval = i_new
        if t >= t1:
            break
    return np.hstack(out) if out else np.zeros((n, 0), dtype=complex)


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


def check_samples_per_pulse(samples_per_pulse):
    """Each pulse gets a whole number of trajectory samples, at least 200."""
    drive.whole_number("samples_per_pulse", samples_per_pulse)
    if samples_per_pulse < 200:
        raise ValueError("samples_per_pulse must be >= 200")


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
             samples_per_pulse: int = 200, tol: float | None = None):
    """Run the full echoed pulse sequence.

    qubit_state: basis label ("00".."11") or a normalized length-4 vector.
    motional_state: per-mode occupation tuple. Returns (final state on
    space, Trajectory). The trajectory records <a_com> at samples_per_pulse
    points per pulse (check_samples_per_pulse) plus the t = 0 sample.

    backend "gaussian": exact displaced-oscillator composition; the final
    state is expressed in the per-configuration field-free reference frame.
    backend "ode": adaptive integration (DOP853, per-step rtol tol,
    default _TOL_DEFAULT, and atol 1e-3 tol, which do not bound the final
    state) of the literal Hamiltonian, compiled by hamiltonian_terms, over
    the driven pulses (_exact.walk_pulses); field-free pulses, samples
    included, are exact closed-form exponentials of the compiled static
    Hamiltonian. The final state is the full interaction-picture state.
    tol with another backend raises.
    """
    if space.n_qubits != 2:
        raise ValueError("the gate sequence addresses exactly two qubits")
    check_samples_per_pulse(samples_per_pulse)
    _check_backend_tol(backend, tol)
    qvec, label = _qubit_vector(qubit_state)
    mot = np.zeros(space.mode_dim, dtype=complex)
    mot[space.basis_index("00", motional_state)] = 1.0
    if abs(np.linalg.norm(qvec) - 1.0) > 1e-6:
        raise ValueError("initial state must be normalized")
    modes = retained_modes(config, space)

    if backend == "gaussian":
        return _run_gaussian(config, modes, qvec, mot, label, space,
                             samples_per_pulse)
    if backend == "ode":
        return _run_ode(config, modes, qvec, mot, label, space,
                        samples_per_pulse, tol)
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
        times, means = _exact.config_trajectory(setup, *cfg,
                                                samples_per_pulse)
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

    def generator(self, pieces=None) -> PulseGenerator:
        """The block-diagonal generator -i H(t) of all blocks, the
        operator _integrate takes. The field follows the envelope of one
        pulse, given as its drive.envelope_pieces; None leaves it off."""
        return PulseGenerator(self, pieces)


class PulseGenerator:
    """-i H(t) of a CompiledHamiltonian on the block-diagonal CSR pattern
    of its blocks, with the field of the pulse whose envelope pieces
    (drive.envelope_pieces of one pulse) are given (None: off).

    data(ts) gives the CSR data of every time in ts from one exp and one
    coefficient-matrix product; calling it with one time gives the
    operator."""

    def __init__(self, h: CompiledHamiltonian, pieces=None):
        import scipy.sparse as sp
        n_blocks, nnz = h.static.shape[0], h.data.shape[1]
        shift = np.arange(n_blocks)[:, None]
        pattern = sp.csr_matrix(
            (np.zeros(n_blocks * nnz, dtype=complex),
             (h.indices + shift * h.dim).ravel(),
             np.append(0, (h.indptr[1:] + shift * nnz).ravel())),
            shape=(n_blocks * h.dim,) * 2)
        self.dim = pattern.shape[0]
        self.indptr, self.indices = pattern.indptr, pattern.indices
        self.h, self.pieces = h, pieces
        self.rates = 1j * h.freqs
        # -i folded into the amplitudes; the flat top's are kept
        self.static, self.field = -1j * h.static, -1j * h.field
        self.flat_top = self.static + self.field

    def data(self, ts):
        """CSR data rows (len(ts), nnz) of the generator at the times ts.
        A step within the flat top takes its amplitudes; any other step
        evaluates the envelope at all its times at once."""
        ts = np.asarray(ts, dtype=float)
        phases = np.exp(self.rates * ts[:, None])[:, None, :]
        amp = self.static if self.pieces is None else self.flat_top
        if self.pieces is not None:
            t1, t2 = self.pieces[:2]
            mid = len(t1) // 2  # the flat top
            if not t1[mid] <= ts.min() <= ts.max() <= t2[mid]:
                env = drive.envelope_at(self.pieces, ts)[:, None, None]
                amp = self.static + env * self.field
        rows = (amp * phases).reshape(len(ts) * len(self.static), -1)
        return np.dot(rows, self.h.data).reshape(len(ts), -1)

    def __call__(self, t):
        import scipy.sparse as sp
        return sp.csr_matrix((self.data((t,))[0], self.indices, self.indptr),
                             shape=(self.dim,) * 2)


def hamiltonian_terms(setup: _exact.SequenceSetup,
                      dims) -> CompiledHamiltonian:
    """Compile the pulse Hamiltonian of a SequenceSetup on the mode space
    with cutoff dimensions dims, block c for configuration _exact.CONFIG_S[c]
    (spin signs (s_i, s_j)); _exact.walk_pulses picks each pulse's rows.

    The tweezer term is sum_mn K_mn / (4 sqrt(w_m w_n)) x_m(t) x_n(t) with
    K the row of setup.couplings of (s_i, s_j); the field term drives the
    COM mode, 2 gamma cos(mu t) x_0(t); x_m(t) = a_m e^{-i w_m t} + h.c.
    Equals block c of the literal composite-space tweezer term plus
    envelope times the field term (tests/literal_hamiltonian.py). Terms
    that vanish in every block are dropped.
    """
    ws = np.asarray(setup.ws, float)
    a_ops, ad_ops = _exact.sparse_ladders(dims)
    n_blocks = len(setup.couplings)
    terms = []  # (freq, static amplitude per block, field amplitude, op)
    for m, wm in enumerate(ws):
        for n, wn in enumerate(ws):
            amp = 0.25 * setup.couplings[:, m, n] / math.sqrt(wm * wn)
            if amp.any():
                terms += [(-(wm + wn), amp, 0.0, a_ops[m] @ a_ops[n]),
                          (-(wm - wn), amp, 0.0, a_ops[m] @ ad_ops[n]),
                          (wm - wn, amp, 0.0, ad_ops[m] @ a_ops[n]),
                          (wm + wn, amp, 0.0, ad_ops[m] @ ad_ops[n])]
    if setup.gamma != 0.0:
        g, mu, w0, off = setup.gamma, setup.mu, ws[0], np.zeros(n_blocks)
        a, ad = a_ops[0], ad_ops[0]
        terms += [(mu - w0, off, g, a), (-(mu + w0), off, g, a),
                  (mu + w0, off, g, ad), (-(mu - w0), off, g, ad)]
    dim = int(np.prod(dims))
    coo = [op.tocoo() for *_, op in terms]
    flat = [c.row.astype(np.int64) * dim + c.col for c in coo]
    union = np.unique(np.concatenate(flat)) if flat else np.zeros(0, int)
    data = np.zeros((len(terms), len(union)), dtype=complex)
    for k, (c, f) in enumerate(zip(coo, flat)):
        data[k, np.searchsorted(union, f)] = c.data
    return CompiledHamiltonian(
        freqs=np.array([t[0] for t in terms], dtype=float),
        static=np.array([t[1] for t in terms]).reshape(-1, n_blocks).T,
        field=np.array([t[2] for t in terms], dtype=float),
        data=data,
        indptr=np.searchsorted(union // dim, np.arange(dim + 1)),
        indices=union % dim, dim=dim)


def _run_ode(config, modes, qvec, mot, label, space, samples_per_pulse, tol):
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
                                    tol)[:, :, c, :, 0]
        out[c] = qvec[c] * states[-1, -1]
        cols = np.concatenate([mot[None], states.reshape(-1, dim)]).T
        alpha = alpha + abs(qvec[c]) ** 2 * np.sum(
            np.conj(cols) * (a_com @ cols), axis=0)
    times = np.arange(setup.pulse_count)[:, None] * tau + offsets
    return out.ravel(), Trajectory(np.append(0.0, times), alpha, label)
