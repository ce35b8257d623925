"""Closed-form engine for the echoed, driven gate sequence (internal).

While the qubit labels are fixed (i.e. within one pulse), the Hamiltonian
splits into a static quadratic part H0 (bare phonons plus the
spin-conditioned tweezer curvature) and a COM-mode drive. In the dressed
frame of H0 the drive stays linear in the ladder operators with
coefficients that are finite sums of complex exponentials, so the Magnus
series terminates at second order: every segment of the pulse envelope
(drive.envelope_pieces) contributes one displacement factor
exp(-i(v.a + conj(v).a^dag + phase)), with the moment integrals evaluated
in closed form. The phase is the second-order (commutator) Magnus term
(Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)); ladder operators
of different dressed modes commute and the pieces of one branch of a mode
cancel, so only the 6 x 6 opposite-branch piece pairs of each dressed
mode contribute: O(N) double moments per segment, read from one
exponential table. config_generators evaluates all four qubit
configurations in one batched pass, over frames solved once per setup,
with the static maps as matrix products over dressed modes.

The channel only needs the propagator relative to the field-free
reference. Conjugating the late displacement factors through the
intervening static factors via their exact Heisenberg action on
xi = (a_1..a_N, a^dag_1..a^dag_N) cancels every static factor, leaving a
pure product of displacements. Two materializations are provided:
'gaussian' (scalar displacement composition, exact, no Hilbert space) and
column_wmat on the truncated Fock space, from per-mode d_m x d_m factors
(each a phase-rotated copy of one cached eigenbasis of the truncated
a + a^dag, so no eigendecomposition runs per call) summed against the
per-mode thermal weights, at a cost of sum_m d_m and never prod_m d_m;
plus an independent check, ode_wmat. It and run_gate(backend="ode") share
one pulse walker, walk_pulses: only the driven pulses are integrated with
the package's ODE solver (evolve.hamiltonian_terms, evolve._integrate)
under the same envelope pieces, and field-free pulses are exact
closed-form exponentials of the compiled static Hamiltonian. dense_wmat,
with dense product-space propagators, is kept as the test oracle of
column_wmat.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import crystal, drive

# qubit configurations in basis order |00>, |01>, |10>, |11>; s = +1 for |1>
CONFIG_S = ((-1, -1), (-1, 1), (1, -1), (1, 1))
# the ODE step cap: at least this many steps per drive period 2 pi / mu
STEPS_PER_DRIVE_PERIOD = 20


# ---------------------------------------------------------------------------
# closed-form oscillatory moments, elementwise over broadcast arrays

_SMALL = 1e-8  # |theta (t2 - t1)| below which the expansions replace 1/theta


def int0(th, t1, t2):
    """int_t1^t2 exp(i th t) dt"""
    return _int0(th, t1, t2, np.exp(1j * (th * t1)), np.exp(1j * (th * t2)))


def _int0(th, t1, t2, e1, e2):
    """int0 from its exponentials e1 = exp(i th t1), e2 = exp(i th t2)"""
    small = np.abs(th * (t2 - t1)) < _SMALL
    out = np.asarray((e2 - e1) / (1j * np.where(small, 1.0, th)))
    if small.any():
        th, t1, t2 = (np.broadcast_to(x, small.shape)[small]
                      for x in (th, t1, t2))
        out[small] = (t2 - t1) * np.exp(1j * th * 0.5 * (t1 + t2))
    return out


def int1(th, t1, t2, tc):
    """int_t1^t2 (t-tc) exp(i th t) dt"""
    th, t1, t2, tc = np.broadcast_arrays(th, t1, t2, tc)
    small = np.abs(th * (t2 - t1)) < _SMALL
    ith = 1j * np.where(small, 1.0, th)
    e2, e1 = np.exp(1j * (th * t2)), np.exp(1j * (th * t1))
    out = np.asarray(((t2 - tc) * e2 - (t1 - tc) * e1) / ith
                     - (e2 - e1) / ith ** 2)
    if small.any():
        # linearize the exponential about tc; adequate at this threshold
        th, t1, t2, tc = th[small], t1[small], t2[small], tc[small]
        e = np.exp(1j * th * tc)
        a, b = t1 - tc, t2 - tc
        out[small] = e * (0.5 * (b * b - a * a)
                          + 1j * th * (b ** 3 - a ** 3) / 3.0)
    return out


def int_j(tha, thb, t1, t2):
    """int_{t1}^{t2} ds e^{i tha s} int_{t1}^{s} ds' e^{i thb s'}"""
    return _int_j(tha, thb, t1, t2, np.exp(1j * (thb * t1)),
                  int0(tha, t1, t2), int0(tha + thb, t1, t2))


def _int_j(tha, thb, t1, t2, e1b, i0a, i0ab):
    """int_j from exp(i thb t1), int0(tha) and int0(tha + thb)"""
    small = np.abs(thb * (t2 - t1)) < _SMALL
    out = np.asarray((i0ab - e1b * i0a) / (1j * np.where(small, 1.0, thb)))
    if small.any():
        # inner integral ~ (s - t1) e^{i thb (s+t1)/2}; drops O(thb^2)
        small = np.broadcast_to(small, out.shape)
        tha, thb, t1, t2 = (np.broadcast_to(x, out.shape)[small]
                            for x in (tha, thb, t1, t2))
        out[small] = int1(tha + 0.5 * thb, t1, t2, t1) \
            * np.exp(0.5j * thb * t1)
    return out


def double_moment(beta, theta, t1, t2):
    """J[..., k, l] = int int_{s' < s} c_k(s) c_l(s') ds' ds over [t1, t2]
    for every pair of the coefficients c_k(t) = sum_p beta[..., k, p]
    exp(i theta[..., p] t); leading axes of beta and theta batch
    independent entries (envelope segments)."""
    beta, th = np.asarray(beta, complex), np.asarray(theta, float)
    t1 = np.asarray(t1)[..., None, None]
    t2 = np.asarray(t2)[..., None, None]
    ij = int_j(th[..., :, None], th[..., None, :], t1, t2)
    return beta @ ij @ np.swapaxes(beta, -1, -2)


# ---------------------------------------------------------------------------
# dressed static frame

def normal_form(ws, k_mat):
    """Dressed frequencies and mixing of the static quadratic part.

    Diagonalizes diag(ws^2) + K, stacked over the leading axes of K;
    returns (wt ascending, O orthogonal with columns the dressed modes).
    Raises on an anti-trapped branch.
    """
    d = np.diag(np.asarray(ws, float) ** 2) + k_mat
    lam, o = np.linalg.eigh(d)
    if np.any(lam[..., 0] <= 0):
        raise ValueError("anti-trapped dressed mode: eigenvalue %.3e"
                         % np.min(lam[..., 0]))
    return np.sqrt(lam), o


def xcom_pieces(ws, wt, o):
    """Exp-piece decomposition of the driven coordinate in the dressed frame.

    The Heisenberg evolution of the driven COM coordinate x_0(s) under the
    static quadratic part mixes position and momentum of every bare mode;
    projecting back gives the coefficient pieces of a_1..a_N and
    a^dag_1..a^dag_N in the elapsed time s: (beta, theta) with beta[2N, 2N]
    and the shared frequencies theta = (-wt_0, .., -wt_N-1, wt_0, ..,
    wt_N-1), stacked over the leading axes of the dressed frame (wt, o).
    """
    sw = np.sqrt(np.asarray(ws, float))
    # cmo[n, k] = sqrt(w_0) o[0, k] o[n, k], the drive weight in y = x sqrt(w)
    cmo = (sw[0] * o[..., 0, :])[..., None, :] * o
    c1 = cmo / sw[:, None]
    c2 = cmo * sw[:, None] / wt[..., None, :]
    plus, minus = 0.5 * (c1 + c2), 0.5 * (c1 - c2)
    return (np.concatenate([np.concatenate([plus, minus], axis=-1),
                            np.concatenate([minus, plus], axis=-1)], axis=-2),
            np.concatenate([-wt, wt], axis=-1))


def static_heisenberg_map(ws, dressed, dt, t_a, t_b):
    """Heisenberg action S of one static factor on xi = (a_n, a_n^dag):
    s^dag xi s = S xi for s = R(t_b) exp(-i H0 dt) R(t_a)^dag, R the bare
    rotation exp(+i sum w_m (n_m + 1/2) t); dressed = normal_form(ws, K).

    The position and momentum responses sum over the dressed branches k as
    the matrix products O diag(f) O^T, f = (cos(wt dt), sin(wt dt) / wt,
    wt sin(wt dt)) / 2, which the fixed sqrt(w) ratios then scale
    elementwise.
    The leading axes of the dressed frame and dt, t_a, t_b broadcast
    against each other; the maps stack on them."""
    wt, o = dressed
    ws = np.asarray(ws, float)
    sw = np.sqrt(ws)
    wdt = wt * np.asarray(dt, float)[..., None]
    st = 0.5 * np.sin(wdt)
    f = np.concatenate([x[..., None, :] for x in (0.5 * np.cos(wdt), st / wt,
                                                 wt * st)], axis=-2)
    g = (o[..., None, :, :] * f[..., :, None, :]) \
        @ o.swapaxes(-1, -2)[..., None, :, :]
    cos_oo, sin_oo, wsin_oo = g[..., 0, :, :], g[..., 1, :, :], g[..., 2, :, :]
    ratio = sw[:, None] / sw  # sw[m] / sw[n]
    prod = sw[:, None] * sw
    wsin_r = wsin_oo / prod
    sin_r = sin_oo * prod
    a_blk = cos_oo * (ratio + ratio.T) - 1j * (wsin_r + sin_r)
    b_blk = cos_oo * (ratio - ratio.T) - 1j * (wsin_r - sin_r)
    # the bare rotations: a_m picks up e^{i w_m t_b}, a_n e^{-i w_n t_a}
    rot_b = np.exp(1j * np.multiply.outer(t_b, ws))[..., :, None]
    rot_a = np.exp(1j * np.multiply.outer(t_a, ws))[..., None, :]
    a_blk = rot_b * a_blk * rot_a.conj()
    b_blk = rot_b * b_blk * rot_a
    return np.concatenate(
        [np.concatenate([a_blk, b_blk], axis=-1),
         np.concatenate([b_blk.conj(), a_blk.conj()], axis=-1)], axis=-2)


# ---------------------------------------------------------------------------
# sequence bookkeeping

@dataclasses.dataclass(frozen=True)
class SequenceSetup:
    """Everything the engine (frames, evolve.hamiltonian_terms) needs for
    one gate run on a retained mode set.

    couplings[c], read-only, is the mode-basis tweezer curvature of spin
    configuration CONFIG_S[c] of the addressed pair; the field drives the
    COM mode, mode 0; ramp_time in seconds. frames is solved on first use
    and cached for the life of the setup.
    """

    ws: tuple
    couplings: np.ndarray
    tau: float
    ramp_time: float
    mu: float
    gamma: float
    pulse_count: int
    field_pulses: tuple
    echo_schedule: tuple

    @property
    def n_modes(self) -> int:
        return len(self.ws)

    @property
    def driven_pulses(self) -> list:
        """Pulses with the field on; none when gamma is 0."""
        return [p for p in range(self.pulse_count)
                if p in self.field_pulses and self.gamma != 0.0]

    @functools.cached_property
    def frames(self):
        """normal_form(ws, couplings) of the CONFIG_S configurations;
        read-only."""
        wt, o = normal_form(self.ws, self.couplings)
        wt.flags.writeable = o.flags.writeable = False
        return wt, o


def setup_from_config(config, modes) -> SequenceSetup:
    """Build a SequenceSetup from a GateConfig and a retained mode set."""
    # drive couples the COM normal coordinate; require mode 0 to be COM-like
    b0 = modes.vectors[0, :]
    if np.abs(np.abs(b0) - np.abs(b0[0])).max() > 1e-9:
        raise ValueError("retained mode 0 must be the COM mode")
    couplings = np.array([crystal.mode_coupling_matrix(
        modes, crystal.TweezerPerturbation(config.tweezer_frequency,
                                           config.pair, s))
        for s in CONFIG_S])
    couplings.flags.writeable = False
    field_pulses = tuple(p for p, on in enumerate(config.field_on_mask) if on)
    return SequenceSetup(
        ws=tuple(float(w) for w in modes.frequencies), couplings=couplings,
        tau=config.pulse_duration,
        ramp_time=config.ramp_fraction * config.pulse_duration,
        mu=drive.resolve_drive_frequency(config, modes),
        gamma=drive.gamma_from_field(config.field_amplitude, config.trap),
        pulse_count=config.pulse_count, field_pulses=field_pulses,
        echo_schedule=config.echo_schedule)


def path_of(si, sj, echo_schedule):
    """Spin configuration seen by the tweezer during each pulse, given the
    boundary pi-pulse schedule (one entry per interior boundary)."""
    s = [si, sj]
    path = [tuple(s)]
    for boundary in echo_schedule:
        for q in boundary:
            s[q] = -s[q]
        path.append(tuple(s))
    return path


def path_frames(setup: SequenceSetup, configs):
    """Dressed frames (wt, o) per (configuration, pulse) along the spin
    paths of configs, indexed from setup.frames."""
    wt, o = setup.frames
    frame = [[CONFIG_S.index(cfg)
              for cfg in path_of(si, sj, setup.echo_schedule)]
             for si, sj in configs]
    return wt[frame], o[frame]


def pulse_segment_coefs(setup: SequenceSetup, dressed, t_a):
    """(t1, t2, coef) for the segments of driven pulses starting at t_a in
    the dressed frames (wt, o) = normal_form(ws, K): the leading axes of
    the frames and t_a broadcast, and the segments stack after the axes of
    t_a.  coef = (env, env_theta, beta, theta) in product form: on segment
    s, c_k(t) = sum_{e, j} env[s, e] beta[k, j] exp(i (env_theta[s, e] +
    theta[j]) t), e the envelope pieces times e^{+-i mu t}, j the dressed
    pieces of xcom_pieces, rows k a_1..a_N, a^dag_1..a^dag_N.

    Time is absolute; the dressed-frame pieces run in s = t - t_a, folded in
    as constant phases exp(-i theta t_a).
    """
    wt, o = dressed
    beta_x, theta_x = xcom_pieces(setup.ws, wt, o)
    t_a = np.asarray(t_a, float)
    # ramps of at most tau / 4 leave every segment of positive length
    t1, t2, beta_e, theta_e = drive.envelope_pieces(t_a, setup.tau,
                                                    setup.ramp_time)
    # times 2 gamma cos(mu t): each envelope piece splits into +mu and -mu
    beta_b = (beta_e * setup.gamma).repeat(2, axis=-1)
    theta_b = (theta_e[..., None] + np.array([setup.mu, -setup.mu])
               ).reshape(theta_e.shape[:-1] + (-1,))
    return t1, t2, (beta_b, theta_b, beta_x * np.exp(
        -1j * theta_x * t_a[..., None])[..., None, :], theta_x)


def segment_generators(t1, t2, coef):
    """Displacement generators (v, phase) of segments laid out as by
    pulse_segment_coefs: the linear moment and the commutator phase
    sum_pq J[p, q] M[p, q] / 2i over the pieces p = (e, j), M = A^T A^dag
    - (A^T A^dag)^T with A, A^dag the a- and a^dag-rows of the
    coefficients.  M is block diagonal over the dressed modes (Blanes et
    al. 2009) and vanishes between pieces of one branch (-wt or +wt),
    whose a- and a^dag-rows swap the same two profiles; with J[p, q] +
    J[q, p] = I0[p] I0[q] the phase sums (2 J[p, q] - I0[p] I0[q])
    M[p, q] over p = (e, d-), q = (e', d+), 6 x 6 pairs per mode and
    ramped segment, with M[p, q] = env[e] env[e'] Mx[d] in product form.
    Every moment is read from one table of exp(i theta t1), exp(i theta
    t2) per segment piece, the pair moments from its outer products."""
    env, env_theta, beta, theta = coef
    n = beta.shape[-1] // 2
    t1, t2 = (np.asarray(t)[..., None, None] for t in (t1, t2))
    th = env_theta[..., :, None] + theta[..., None, None, :]
    e1, e2 = np.exp(1j * (th * t1)), np.exp(1j * (th * t2))
    i0 = _int0(th, t1, t2, e1, e2)
    v = beta[..., None, :, :] @ (env[..., None, :] @ i0)[..., 0, :, None]
    # pairs (e, e', d) of the pieces (e, -wt_d) and (e', +wt_d)
    tha, thb = th[..., :, None, :n], th[..., None, :, n:]
    i0a = i0[..., :, None, :n]
    t1, t2 = t1[..., None], t2[..., None]
    i0ab = _int0(tha + thb, t1, t2,
                 e1[..., :, None, :n] * e1[..., None, :, n:],
                 e2[..., :, None, :n] * e2[..., None, :, n:])
    ij = 2.0 * _int_j(tha, thb, t1, t2, e1[..., None, :, n:], i0a, i0ab) \
        - i0a * i0[..., None, :, n:]
    env = env[..., :, None, None]
    q = (env * ij * env.swapaxes(-2, -3)).sum(axis=(-3, -2))
    mx = (beta[..., :n, :n] * beta[..., n:, n:]
          - beta[..., n:, :n] * beta[..., :n, n:]).sum(axis=-2)
    return v[..., 0], (-0.5j * (mx[..., None, :] * q).sum(axis=-1)).real


def config_generators(setup: SequenceSetup, configs=CONFIG_S):
    """Generators of the reference-relative propagator for each qubit
    configuration in configs, in time order, from one batched pass over
    the setup's dressed frames: one static_heisenberg_map call and one
    batch of the segments of all driven pulses of all configurations.

    Late generators are conjugated through the intervening static factors:
    their coefficient vectors transform with the transpose of the
    accumulated Heisenberg map, which is exactly how the field-free
    reference cancels the statics.
    """
    driven = setup.driven_pulses
    if not driven:
        return [[] for _ in configs]
    wt, o = path_frames(setup, configs)
    t_a = setup.tau * np.arange(setup.pulse_count)
    last = driven[-1]
    statics = static_heisenberg_map(setup.ws, (wt[:, :last], o[:, :last]),
                                    setup.tau, t_a[:last],
                                    t_a[:last] + setup.tau)
    t1, t2, coef = pulse_segment_coefs(setup, (wt[:, driven], o[:, driven]),
                                       t_a[driven])
    v, phase = segment_generators(t1, t2, coef)
    for p in reversed(range(last)):
        late = sum(q <= p for q in driven)  # first driven pulse after p
        v[:, late:] = v[:, late:] @ statics[:, p, None]
    return [list(zip(vc.reshape(-1, v.shape[-1]), pc.ravel()))
            for vc, pc in zip(v, phase)]


# ---------------------------------------------------------------------------
# scalar (gaussian) materialization

def gaussian_u_rel(gens, n_modes):
    """Compose displacement factors into U_rel = e^{i phase} D(alpha):
    factor j displaces by beta_j = -i v_j[a^dag rows] and adds -phase_j +
    Im(beta_j . conj(alpha before it))."""
    beta = -1j * np.array([v[n_modes:] for v, _ in gens]).reshape(-1, n_modes)
    alpha = np.concatenate([np.zeros((1, n_modes)), beta]).cumsum(axis=0)
    terms = (beta * alpha[:-1].conj()).imag.sum(axis=-1)
    return alpha[-1], float((terms - [ph for _, ph in gens]).sum())


def thermal_overlap(alpha_c, phase_c, alpha_cp, phase_cp, nbars):
    """Thermal expectation of U_rel[c']^dag U_rel[c] over independent
    geometric occupations (untruncated); the leading axes of the
    displacements (mode axis last) and phases broadcast."""
    beta = alpha_c - alpha_cp
    ph = phase_c - phase_cp - np.sum(np.imag(alpha_cp * np.conj(alpha_c)),
                                     axis=-1)
    mag = np.exp(-np.sum((np.asarray(nbars, float) + 0.5)
                         * np.abs(beta) ** 2, axis=-1))
    return mag * np.exp(1j * ph)


def gaussian_wmat(setup: SequenceSetup, nbars):
    """4x4 channel matrix W[c, c'] = <U_c'^dag U_c> over the thermal state."""
    disp = [gaussian_u_rel(gens, setup.n_modes)
            for gens in config_generators(setup)]
    alpha, phase = (np.array(x) for x in zip(*disp))
    w = thermal_overlap(alpha[:, None], phase[:, None], alpha[None],
                        phase[None], nbars)
    return w, disp


# ---------------------------------------------------------------------------
# truncated-operator materializations

def expm_herm(h):
    """exp(-i h) for (stacked) Hermitian h via eigendecomposition."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals)[..., None, :]) \
        @ np.swapaxes(vecs.conj(), -1, -2)


def _weighted_columns(dims, weights):
    """Indices and weights of the Fock columns with nonzero thermal weight;
    weights is the probability vector over product Fock states
    (lexicographic)."""
    w_arr = np.asarray(weights, float)
    if w_arr.shape != (int(np.prod(dims)),):
        raise ValueError("weight vector does not match the mode space")
    idx = np.flatnonzero(w_arr > 0.0)
    return idx, w_arr[idx]


def _thermal_wmat(cols, weights):
    """W[c, c'] = sum_n p_n <n|U_c'^dag U_c|n> from the columns U_c|n> of
    four mode propagators and their weights p_n."""
    cols = np.asarray(cols)
    return np.einsum("dik,cik,k->cd", np.conj(cols), cols, weights)


def dense_u_rel(gens, dims):
    """Displacement product on the truncated Fock space, with dense copies
    of the product-space ladders: the test oracle of mode_factors."""
    a_ops = [a.toarray() for a in sparse_ladders(dims)[0]]
    n = len(dims)
    u = np.eye(int(np.prod(dims)), dtype=complex)
    for v, ph in gens:
        h = np.zeros_like(u)
        for m, a in enumerate(a_ops):
            # enforce Hermitian pairing against roundoff of the mapping
            vad = 0.5 * (v[n + m] + np.conj(v[m]))
            h += vad * a.T + np.conj(vad) * a
        u = np.exp(-1j * ph) * (expm_herm(h) @ u)
    return u


def dense_wmat(setup: SequenceSetup, dims, weights):
    """Channel matrix from dense truncated propagators, the test oracle of
    column_wmat; returns (W, us) with us[c] the full propagator."""
    idx, p = _weighted_columns(dims, weights)
    us = [dense_u_rel(gens, dims) for gens in config_generators(setup)]
    return _thermal_wmat([u[:, idx] for u in us], p), us


def sparse_ladders(dims):
    """Sparse (a_m, a_m^dag) operator lists on the product mode space."""
    import scipy.sparse as sp  # the ode backend's operators
    a_ops = []
    n = len(dims)
    for m, d in enumerate(dims):
        am = sp.diags(np.sqrt(np.arange(1, d)), 1, format="csr")
        full = sp.identity(1, format="csr")
        for k in range(n):
            full = sp.kron(full, am if k == m else sp.identity(dims[k]),
                           format="csr")
        a_ops.append(full.tocsr())
    return a_ops, [m.conj().T.tocsr() for m in a_ops]


@functools.lru_cache(maxsize=None)
def _position_eigensystem(dim):
    """Real eigensystem (x, V) of a + a^dag truncated to dim levels, with
    a + a^dag = V diag(x) V^T; computed once per dimension, read-only."""
    q = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    x, v = np.linalg.eigh(q + q.T)
    x.flags.writeable = False
    v.flags.writeable = False
    return x, v


def mode_displacements(vad, dim):
    """exp(-i (vad a^dag + conj(vad) a)) on one mode truncated to dim
    levels, stacked over the axes of vad.

    With vad = r e^{i phi} the generator is r D (a + a^dag) D^dag,
    D = diag(e^{i phi n}), so the factor is D V diag(e^{-i r x}) V^T D^dag
    with (x, V) the fixed eigensystem of the truncated a + a^dag."""
    x, v = _position_eigensystem(dim)
    vad = np.asarray(vad, complex)
    core = (v * np.exp(-1j * np.abs(vad)[..., None, None] * x)) @ v.T
    d = np.exp(1j * np.angle(vad)[..., None] * np.arange(dim))
    return d[..., :, None] * core * np.conj(d)[..., None, :]


def mode_factors(gen_lists, dims):
    """(us, phases) with exp(-i phases[c]) kron_m us[m][c] the displacement
    product of gen_lists[c] (equally long) on the truncated mode space:
    each generator is a sum of commuting single-mode terms, so it
    exponentiates mode by mode exactly, for all lists in one batch."""
    n = len(dims)
    v = np.reshape([[vs for vs, _ in gens] for gens in gen_lists],
                   (len(gen_lists), -1, 2 * n))
    # enforce Hermitian pairing against roundoff of the mapping
    vad = 0.5 * (v[..., n:] + np.conj(v[..., :n]))
    us = [np.broadcast_to(np.eye(d, dtype=complex), (len(v), d, d))
          for d in dims]
    for m, d in enumerate(dims):
        for factor in np.moveaxis(mode_displacements(vad[..., m], d), 1, 0):
            us[m] = factor @ us[m]
    return us, np.array([sum(ph for _, ph in gens) for gens in gen_lists])


def column_wmat(setup: SequenceSetup, dims, weights):
    """Channel matrix on the truncated Fock space from per-mode thermal
    weights, weights[m] the occupation probabilities of the d_m levels of
    mode m. The thermal state and every U_c'^dag U_c are products over
    the modes, so with mode_factors u, phase
    W[c, c'] = e^{i(phase_c' - phase_c)}
    prod_m sum_n p_m(n) (u_c'm^dag u_cm)[n, n],
    which costs sum_m d_m per configuration pair, not prod_m d_m."""
    weights = [np.asarray(p, float) for p in weights]
    if len(weights) != len(dims) or any(
            p.shape != (d,) for p, d in zip(weights, dims)):
        raise ValueError("column_wmat needs one weight vector per mode, "
                         "of length d_m")
    if not all(np.all(p >= 0.0) for p in weights):
        raise ValueError("thermal weights must be nonnegative")
    factors, phases = mode_factors(config_generators(setup), dims)
    w = np.exp(1j * (phases - phases[:, None]))
    for u, p in zip(factors, weights):
        u = u.reshape(len(u), -1)
        w = w * ((u * np.tile(p, len(p))) @ np.conj(u).T)
    return w


# ---------------------------------------------------------------------------
# ideal-gate phases

def ideal_phases(setup: SequenceSetup):
    """Accumulated phase per qubit configuration of the reference-relative
    target gate: each driven pulse contributes -gamma^2 tau / (mu - w_com~)
    with w_com~ the shifted COM branch seen during that pulse."""
    branch = path_frames(setup, CONFIG_S)[0][:, setup.driven_pulses, 0]
    return np.sum(-setup.gamma ** 2 * setup.tau / (setup.mu - branch),
                  axis=1)


# ---------------------------------------------------------------------------
# mean-vector trajectory (full sequence, statics included)

def config_trajectory(setup: SequenceSetup, si, sj, samples_per_pulse):
    """Bare-frame ladder expectation values along the full sequence from
    <a> = 0 (a Fock or thermal start). Returns (times, means) with
    means[k] the length-N <a> vector at times[k].

    Uses the same split as the channel: the propagator up to any time t
    factors into the field-free reference times a pure displacement
    product whose generators are conjugated through the completed static
    factors. The mean is then S_ref(t) d(t) with d the accumulated
    displacement, exact for the partial segment as well since the dressed
    drive stays linear.  The frames, statics and moments of all pulses and
    samples are evaluated in one batch each.
    """
    n = setup.n_modes
    wt, o = (x[0] for x in path_frames(setup, [(si, sj)]))
    t_a = setup.tau * np.arange(setup.pulse_count)[:, None]
    # samples inside every pulse, then the pulse end
    ts = t_a + np.arange(1, samples_per_pulse + 1) * setup.tau \
        / samples_per_pulse
    t_all = np.append(ts, t_a + setup.tau, axis=1)
    statics = static_heisenberg_map(setup.ws, (wt[:, None], o[:, None]),
                                    t_all - t_a, t_a, t_all)
    # linear moments from each pulse start to each time; a segment not
    # begun by t integrates over zero length
    moments = np.zeros(t_all.shape + (2 * n,), dtype=complex)
    driven = setup.driven_pulses
    if driven:
        t1, t2, (env, env_theta, beta, theta) = pulse_segment_coefs(
            setup, (wt[driven], o[driven]), t_a[driven, 0])
        te = np.clip(t_all[driven][..., None], t1[:, None], t2[:, None])
        # exp(i theta t1) once per segment piece, exp(i theta te) per sample
        i0 = int0(env_theta[..., None] + theta[:, None, None, None, :],
                  t1[:, None, :, None, None], te[..., None, None])
        moments[driven] = (beta[:, None] @ np.sum(
            env[:, None, ..., None] * i0, axis=(-3, -2))[..., None])[..., 0]
    alpha = np.zeros(n, dtype=complex)
    s_ref = np.eye(2 * n, dtype=complex)  # statics of completed pulses
    means = [np.zeros(n, dtype=complex)]
    for s_all, w_all in zip(statics, moments):
        w_all = w_all @ s_ref
        a_t = alpha + (-1j) * w_all[:-1, n:]
        d = np.concatenate([a_t, np.conj(a_t)], axis=-1)
        means.extend(((s_all[:-1] @ s_ref) @ d[..., None])[:, :n, 0])
        alpha = alpha + (-1j) * w_all[-1, n:]
        s_ref = s_all[-1] @ s_ref
    return np.append(0.0, ts), np.array(means)


# ---------------------------------------------------------------------------
# direct integration backend

def field_free_evolution(setup: SequenceSetup, dims, h, t_a, cols,
                         offsets):
    """Columns cols (n_blocks, dim, k) carried through the field-free pulse
    starting at t_a to each time t_a + s, s in offsets: R(t_a + s)
    exp(-i H0 s) R(t_a)^dag cols, one block of the compiled Hamiltonian h
    (evolve.hamiltonian_terms) each, with H0 = sum_m w_m n_m + H(0) and
    R(t) = exp(i sum_m w_m n_m t). One batched eigh, then exp(-i lam s)
    for every s; returns (len(offsets), n_blocks, dim, k)."""
    n_blocks = h.static.shape[0]
    e_bare = np.asarray(setup.ws, float) @ np.indices(dims).reshape(
        len(dims), -1)
    # h.generator() evaluates -i H
    h_tw = 1j * h.generator()(0.0).toarray().reshape(n_blocks, h.dim,
                                                     n_blocks, h.dim)
    vals, vecs = np.linalg.eigh(np.einsum("aiaj->aij", h_tw)
                                + np.diag(e_bare))
    coef = np.conj(np.swapaxes(vecs, 1, 2)) \
        @ (np.exp(-1j * e_bare * t_a)[:, None] * cols)
    s = np.asarray(offsets, float)[:, None, None]
    states = vecs @ (np.exp(-1j * vals * s)[..., None] * coef)
    return np.exp(1j * e_bare * (t_a + s))[..., None] * states


def walk_pulses(setup: SequenceSetup, dims, cols, offsets, tol, atol=None):
    """Carry mode-space columns through the pulse sequence, sampled at
    the offsets inside every pulse (increasing, the last equal to tau).

    cols (4, dim, k): block c starts in configuration CONFIG_S[c] and
    follows its spin path, so the pi-pulses relabel the blocks but never
    move them. Driven pulses are integrated (evolve._integrate on the
    compiled Hamiltonian, STEPS_PER_DRIVE_PERIOD steps per drive period at
    least, per-step rtol tol, default evolve._TOL_DEFAULT); field-free
    pulses are exact closed-form exponentials of the compiled static
    Hamiltonian (field_free_evolution). Returns (pulse_count, len(offsets),
    4, dim, k).
    """
    from . import evolve as _evolve

    tol = _evolve._TOL_DEFAULT if tol is None else tol
    _evolve._check_tol(tol)  # also where no pulse is driven
    h = _evolve.hamiltonian_terms(setup, dims)
    paths = [path_of(si, sj, setup.echo_schedule) for si, sj in CONFIG_S]
    step = (2.0 * math.pi / setup.mu) / STEPS_PER_DRIVE_PERIOD
    cols = np.asarray(cols, dtype=complex)
    states = []
    for pulse in range(setup.pulse_count):
        t_a = pulse * setup.tau
        # the blocks' configurations during this pulse select rows of the
        # one compiled Hamiltonian
        h_p = dataclasses.replace(h, static=h.static[
            [CONFIG_S.index(path[pulse]) for path in paths]])
        if pulse in setup.driven_pulses:
            pieces = drive.envelope_pieces(t_a, setup.tau, setup.ramp_time)
            ys = _evolve._integrate(
                h_p.generator(pieces), cols.reshape(-1, cols.shape[-1]), t_a,
                t_a + setup.tau, tol, step, atol=atol,
                t_eval=t_a + np.asarray(offsets, float))
            ys = ys.T.reshape((len(offsets),) + cols.shape)
        else:
            ys = field_free_evolution(setup, dims, h_p, t_a, cols, offsets)
        states.append(ys)
        cols = ys[-1]
    return np.array(states)


def ode_wmat(setup: SequenceSetup, dims, weights, tol=None):
    """Channel matrix with the driven pulses integrated directly.

    walk_pulses carries the Fock columns of nonzero thermal weight of all
    four configurations, at per-step rtol tol and atol 1e-12; the
    field-free reference is the same walk with the field off, exact
    closed-form exponentials only. Returns (W, us) with us[c] the columns
    of the reference-relative propagator at those Fock states.
    """
    idx, p = _weighted_columns(dims, weights)
    eye = np.eye(int(np.prod(dims)), dtype=complex)
    u_full = walk_pulses(setup, dims, [eye[:, idx]] * 4, (setup.tau,), tol,
                         atol=1e-12)[-1, -1]
    u_ref = walk_pulses(dataclasses.replace(setup, gamma=0.0), dims,
                        [eye] * 4, (setup.tau,), tol)[-1, -1]
    us = np.conj(np.swapaxes(u_ref, 1, 2)) @ u_full
    return _thermal_wmat(us, p), list(us)
