"""Closed-form engine for the echoed, driven gate sequence (internal).

While the qubit labels are fixed (i.e. within one pulse), the Hamiltonian
splits into a static quadratic part H0 (bare phonons plus the
spin-conditioned tweezer curvature) and a linear drive. In the dressed
frame of H0 the drive stays linear in the ladder operators with
coefficients that are finite sums of complex exponentials, so the Magnus
series terminates at second order: every envelope segment contributes one
displacement factor exp(-i(v.a + conj(v).a^dag + phase)), with the moment
integrals evaluated in closed form.  The phase is the second-order
(commutator) Magnus term (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151
(2009)); ladder operators of different dressed modes commute, so only
same-mode piece pairs contribute: O(N) double moments per segment.

The channel only needs the propagator relative to the field-free
reference. Conjugating the late displacement factors through the
intervening static factors via their exact Heisenberg action on
xi = (a_1..a_N, a^dag_1..a^dag_N) cancels every static factor, leaving a
pure product of displacements. Two materializations are provided:
'gaussian' (scalar displacement composition, exact, no Hilbert space) and
column_wmat on the truncated Fock space, from per-mode d_m x d_m factors;
plus an independent check, ode_wmat, that integrates the driven pulses
with the package's ODE solver (evolve.hamiltonian_terms,
evolve._integrate) against the field-free reference of the same compiled
Hamiltonian. dense_wmat, with dense product-space propagators, is kept
as the test oracle of column_wmat.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.sparse as sp

# qubit configurations in basis order |00>, |01>, |10>, |11>; s = +1 for |1>
CONFIG_S = ((-1, -1), (-1, 1), (1, -1), (1, 1))


# ---------------------------------------------------------------------------
# closed-form oscillatory moments, elementwise over broadcast arrays

_SMALL = 1e-8  # |theta (t2 - t1)| below which the expansions replace 1/theta


def int0(th, t1, t2):
    """int_t1^t2 exp(i th t) dt"""
    th, t1, t2 = np.broadcast_arrays(th, t1, t2)
    small = np.abs(th * (t2 - t1)) < _SMALL
    out = np.asarray((np.exp(1j * (th * t2)) - np.exp(1j * (th * t1)))
                     / (1j * np.where(small, 1.0, th)))
    if small.any():
        th, t1, t2 = th[small], t1[small], t2[small]
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
    small = np.abs(thb * (t2 - t1)) < _SMALL
    out = np.asarray((int0(tha + thb, t1, t2)
                      - np.exp(1j * (thb * t1)) * int0(tha, t1, t2))
                     / (1j * np.where(small, 1.0, thb)))
    small = np.broadcast_to(small, out.shape)
    if small.any():
        # inner integral ~ (s - t1) e^{i thb (s+t1)/2}; drops O(thb^2)
        tha, thb, t1, t2 = (np.broadcast_to(x, out.shape)[small]
                            for x in (tha, thb, t1, t2))
        out[small] = int1(tha + 0.5 * thb, t1, t2, t1) \
            * np.exp(0.5j * thb * t1)
    return out


class Coef:
    """Coefficient functions c_k(t) = sum_p beta[k, p] exp(i theta[p] t).

    All coefficients k of one entry share the piece frequencies theta;
    leading axes of beta and theta batch independent entries (envelope
    segments).
    """

    __slots__ = ("beta", "theta")

    def __init__(self, beta, theta):
        self.beta = np.asarray(beta, complex)
        self.theta = np.asarray(theta, float)

    def m0(self, t1, t2):
        """int_t1^t2 c_k(t) dt for every k; t1, t2 broadcast against the
        batch axes."""
        i0 = int0(self.theta, np.asarray(t1)[..., None],
                  np.asarray(t2)[..., None])
        return (self.beta @ i0[..., None])[..., 0]


def double_moment(coef, t1, t2):
    """J[..., k, l] = int int_{s' < s} c_k(s) c_l(s') ds' ds over [t1, t2],
    for every pair of coefficients of each batch entry."""
    th = coef.theta
    t1 = np.asarray(t1)[..., None, None]
    t2 = np.asarray(t2)[..., None, None]
    ij = int_j(th[..., :, None], th[..., None, :], t1, t2)
    return coef.beta @ ij @ np.swapaxes(coef.beta, -1, -2)


# ---------------------------------------------------------------------------
# envelope segmentation

def env_pieces(kind, tr, t_a, tau):
    """One envelope segment as exp pieces; the pulse spans [t_a, t_a+tau]."""
    if kind == "flat":
        return [(1.0, 0.0)]
    k = np.pi / tr
    if kind == "up":
        # sin^2(pi (t - t_a) / (2 tr)) = 1/2 - cos(k (t - t_a))/2
        return [(0.5, 0.0),
                (-0.25 * np.exp(-1j * k * t_a), k),
                (-0.25 * np.exp(1j * k * t_a), -k)]
    te = t_a + tau
    return [(0.5, 0.0),
            (-0.25 * np.exp(1j * k * te), -k),
            (-0.25 * np.exp(-1j * k * te), k)]


def segments(t_a, tau, tr):
    if tr <= 0:
        return [("flat", t_a, t_a + tau)]
    return [("up", t_a, t_a + tr),
            ("flat", t_a + tr, t_a + tau - tr),
            ("down", t_a + tau - tr, t_a + tau)]


# ---------------------------------------------------------------------------
# dressed static frame

def normal_form(ws, k_mat):
    """Dressed frequencies and mixing of the static quadratic part.

    Diagonalizes diag(ws^2) + K; returns (wt ascending, O orthogonal with
    columns the dressed modes). Raises on an anti-trapped branch.
    """
    d = np.diag(np.asarray(ws, float) ** 2) + k_mat
    lam, o = np.linalg.eigh(d)
    if lam[0] <= 0:
        raise ValueError("anti-trapped dressed mode: eigenvalue %.3e"
                         % lam[0])
    return np.sqrt(lam), o


def xcom_pieces(ws, wt, o, bcom):
    """Exp-piece decomposition of the driven coordinate in the dressed frame.

    The Heisenberg evolution of x_drive(s) = sum_m bcom[m] x_m(s) under the
    static quadratic part mixes position and momentum of every bare mode;
    projecting back gives the coefficient pieces of a_1..a_N and
    a^dag_1..a^dag_N in the elapsed time s: (beta, theta) with beta[2N, 2N]
    and the shared frequencies theta = (-wt_0, wt_0, -wt_1, wt_1, ...).
    """
    n_modes = len(ws)
    sw = np.sqrt(np.asarray(ws, float))
    proj = np.asarray(bcom, float) * sw  # drive weight in y = x sqrt(w)
    cmo = (proj @ o) * o                 # cmo[n, k] = (proj . o_k) o[n, k]
    c1 = cmo / sw[:, None]
    c2 = cmo * sw[:, None] / wt
    plus, minus = 0.5 * (c1 + c2), 0.5 * (c1 - c2)
    beta = np.concatenate([np.stack([plus, minus], axis=-1),
                           np.stack([minus, plus], axis=-1)])
    theta = np.stack([-wt, wt], axis=-1).ravel()
    return beta.reshape(2 * n_modes, -1), theta


def static_heisenberg_map(ws, dressed, dt, t_a, t_b):
    """Heisenberg action S of one static factor on xi = (a_n, a_n^dag):
    s^dag xi s = S xi for s = R(t_b) exp(-i H0 dt) R(t_a)^dag, R the bare
    rotation exp(+i sum w_m (n_m + 1/2) t); dressed = normal_form(ws, K).

    dt and t_b broadcast against each other; the maps stack on their
    leading axes."""
    wt, o = dressed
    sw = np.sqrt(np.asarray(ws, float))
    dt, t_b = np.broadcast_arrays(np.asarray(dt, float),
                                  np.asarray(t_b, float))
    wdt = wt * dt[..., None, None, None]
    ct = np.cos(wdt)
    st = np.sin(wdt)
    # position/momentum response summed over dressed branches k:
    # oo[m, n, k] = o[m, k] o[n, k]
    oo = o[:, None, :] * o[None, :, :]
    ratio = (sw[:, None] / sw[None, :])[..., None]   # sw[m] / sw[n]
    prod = (sw[:, None] * sw[None, :])[..., None]
    c = np.sum(oo * ratio * ct, axis=-1)
    s1 = np.sum(oo * prod / wt * st, axis=-1)
    c2 = -np.sum(oo * wt / prod * st, axis=-1)
    s2 = np.sum(oo * np.swapaxes(ratio, 0, 1) * ct, axis=-1)
    a_blk = 0.5 * ((c + 1j * c2) - 1j * (s1 + 1j * s2))
    b_blk = 0.5 * ((c + 1j * c2) + 1j * (s1 + 1j * s2))
    n_modes = len(ws)
    mg = np.empty(dt.shape + (2 * n_modes, 2 * n_modes), dtype=complex)
    mg[..., :n_modes, :n_modes] = a_blk
    mg[..., :n_modes, n_modes:] = b_blk
    mg[..., n_modes:, :n_modes] = b_blk.conj()
    mg[..., n_modes:, n_modes:] = a_blk.conj()
    ws_arr = np.asarray(ws, float)
    wtb = ws_arr * t_b[..., None]
    lam_b = np.concatenate([np.exp(1j * wtb), np.exp(-1j * wtb)], axis=-1)
    lam_a = np.concatenate([np.exp(-1j * ws_arr * t_a),
                            np.exp(1j * ws_arr * t_a)])
    return (lam_b[..., :, None] * mg) * lam_a


# ---------------------------------------------------------------------------
# sequence bookkeeping

@dataclasses.dataclass(frozen=True)
class SequenceSetup:
    """Everything the engine needs for one gate run on a retained mode set.

    coupling(si, sj) returns the mode-basis curvature matrix for one spin
    configuration of the addressed pair; bcom the drive weights on the bare
    modes (COM normal coordinate by convention); ramp_time in seconds.
    """

    ws: tuple
    coupling: object
    bcom: tuple
    tau: float
    ramp_time: float
    mu: float
    gamma: float
    pulse_count: int = 4
    field_pulses: tuple = (0, 3)
    echo_schedule: tuple = ((0, 1), (0,), (1,))

    @property
    def n_modes(self) -> int:
        return len(self.ws)


def setup_from_config(config, modes) -> SequenceSetup:
    """Build a SequenceSetup from a GateConfig and a retained mode set."""
    from . import crystal as _crystal
    from . import drive as _drive

    ws = tuple(float(w) for w in modes.frequencies)
    w_tw = config.tweezer_frequency

    def coupling(si, sj):
        if w_tw == 0.0:
            return np.zeros((len(ws), len(ws)))
        pert = _crystal.TweezerPerturbation(w_tw, config.pair, (si, sj))
        return _crystal.mode_coupling_matrix(modes, pert)

    # drive couples the COM normal coordinate; require mode 0 to be COM-like
    b0 = modes.vectors[0, :]
    if np.abs(np.abs(b0) - np.abs(b0[0])).max() > 1e-9:
        raise ValueError("retained mode 0 must be the COM mode")
    bcom = tuple(1.0 if m == 0 else 0.0 for m in range(len(ws)))
    mu = _drive.resolve_drive_frequency(config, modes)
    gamma = _drive.gamma_from_field(config.field_amplitude, config.trap)
    field_pulses = tuple(p for p, on in enumerate(config.field_on_mask) if on)
    return SequenceSetup(
        ws=ws, coupling=coupling, bcom=bcom,
        tau=config.pulse_duration,
        ramp_time=config.ramp_fraction * config.pulse_duration,
        mu=mu, gamma=gamma, pulse_count=config.pulse_count,
        field_pulses=field_pulses, echo_schedule=config.echo_schedule)


def path_of(si, sj, echo_schedule, pulse_count):
    """Spin configuration seen by the tweezer during each pulse, given the
    boundary pi-pulse schedule."""
    s = [si, sj]
    path = [tuple(s)]
    for boundary in echo_schedule:
        for q in boundary:
            s[q] = -s[q]
        path.append(tuple(s))
    while len(path) < pulse_count:
        path.append(tuple(s))
    return path[:pulse_count]


def pulse_segment_coefs(setup: SequenceSetup, dressed, t_a):
    """(t1, t2, coef) for the driven segments of one pulse in the dressed
    frame (wt, o) = normal_form(ws, K), batched over the segments: coef
    rows are a_1..a_N, a^dag_1..a^dag_N, pieces (drive e, mode d, -/+ wt_d).

    Time is absolute; the dressed-frame pieces run in s = t - t_a, folded in
    as constant phases exp(-i theta t_a).
    """
    wt, o = dressed
    beta_x, theta_x = xcom_pieces(setup.ws, wt, o, setup.bcom)
    segs = [(kind, t1, t2)
            for kind, t1, t2 in segments(t_a, setup.tau, setup.ramp_time)
            if t2 > t1]
    # flat envelopes are padded with zero pieces to the ramps' three, so
    # every segment (and every pulse of a sequence) stacks on one axis
    n_env = 3 if setup.ramp_time > 0 else 1
    beta_e = np.zeros((len(segs), n_env), dtype=complex)
    theta_e = np.zeros((len(segs), n_env))
    for s, (kind, _, _) in enumerate(segs):
        pieces = env_pieces(kind, setup.ramp_time, t_a, setup.tau)
        for e, (b, th) in enumerate(pieces):
            beta_e[s, e], theta_e[s, e] = b, th
    # times 2 gamma cos(mu t): each envelope piece splits into +mu and -mu
    beta_b = np.repeat(beta_e * setup.gamma, 2, axis=1)
    theta_b = (theta_e[:, :, None]
               + np.array([setup.mu, -setup.mu])).reshape(len(segs), -1)
    beta = ((beta_b[:, None, :, None] * beta_x[None, :, None, :])
            * np.exp(-1j * theta_x * t_a))
    theta = theta_b[:, :, None] + theta_x
    return (np.array([t1 for _, t1, _ in segs]),
            np.array([t2 for _, _, t2 in segs]),
            Coef(beta.reshape(len(segs), len(beta_x), -1),
                 theta.reshape(len(segs), -1)))


def segment_generators(t1, t2, coef):
    """Displacement generators (v, phase) of a batch of segments laid out
    as by pulse_segment_coefs: the linear moment and the commutator phase
    sum_pq int_j[p, q] M[p, q] / 2i, M = A^T A^dag - (A^T A^dag)^T with
    A, A^dag the a- and a^dag-rows of beta.  Pieces of different dressed
    modes commute (Blanes et al. 2009), so M is block diagonal and only
    the N blocks of same-mode piece pairs are integrated."""
    s, n2, _ = coef.beta.shape
    n = n2 // 2
    # pieces (e, d, -/+) -> per dressed mode d the pieces (e, -/+)
    beta = np.moveaxis(coef.beta.reshape(s, n2, -1, n, 2), 3, 1)
    th = np.moveaxis(coef.theta.reshape(s, -1, n, 2), 2, 1).reshape(s, n, -1)
    t1b, t2b = (np.reshape(t, (-1, 1, 1, 1)) for t in (t1, t2))
    ij = int_j(th[..., :, None], th[..., None, :], t1b, t2b)
    beta = beta.reshape(s, n, n2, -1)
    m = np.swapaxes(beta[:, :, :n], -1, -2) @ beta[:, :, n:]
    phase = np.sum(ij * (m - np.swapaxes(m, -1, -2)), axis=(1, 2, 3))
    return coef.m0(t1, t2), np.real(-0.5j * phase)


def config_generators(setup: SequenceSetup, si, sj):
    """Generators of the reference-relative propagator for one qubit
    configuration, in time order.

    Late generators are conjugated through the intervening static factors:
    their coefficient vectors transform with the transpose of the
    accumulated Heisenberg map, which is exactly how the field-free
    reference cancels the statics.  The segments of all driven pulses are
    evaluated in one batch.
    """
    path = path_of(si, sj, setup.echo_schedule, setup.pulse_count)
    dressed = {cfg: normal_form(setup.ws, setup.coupling(*cfg))
               for cfg in set(path)}
    driven = []  # (t1, t2, coef, map of the statics before) per pulse
    t_map = None
    for p, cfg in enumerate(path):
        if p in setup.field_pulses and setup.gamma != 0.0:
            driven.append(pulse_segment_coefs(setup, dressed[cfg],
                                              p * setup.tau) + (t_map,))
        if p < len(path) - 1:
            s_p = static_heisenberg_map(setup.ws, dressed[cfg], setup.tau,
                                        p * setup.tau, (p + 1) * setup.tau)
            t_map = s_p if t_map is None else s_p @ t_map
    if not driven:
        return []
    t1s, t2s, coefs, maps = zip(*driven)
    v, phase = segment_generators(
        np.concatenate(t1s), np.concatenate(t2s),
        Coef(np.concatenate([c.beta for c in coefs]),
             np.concatenate([c.theta for c in coefs])))
    seg_maps = [m for m, t1 in zip(maps, t1s) for _ in t1]
    return [(vs if m is None else m.T @ vs, ph)
            for vs, ph, m in zip(v, phase, seg_maps)]


# ---------------------------------------------------------------------------
# scalar (gaussian) materialization

def gaussian_u_rel(gens, n_modes):
    """Compose displacement factors into U_rel = e^{i phase} D(alpha)."""
    alpha = np.zeros(n_modes, dtype=complex)
    phase = 0.0
    for v, ph in gens:
        beta = -1j * v[n_modes:]
        phase += -ph + float(np.sum(np.imag(beta * np.conj(alpha))))
        alpha = alpha + beta
    return alpha, phase


def thermal_overlap(alpha_c, phase_c, alpha_cp, phase_cp, nbars):
    """Thermal expectation of U_rel[c']^dag U_rel[c] over independent
    geometric occupations (untruncated)."""
    beta = alpha_c - alpha_cp
    ph = (phase_c - phase_cp
          - float(np.sum(np.imag(alpha_cp * np.conj(alpha_c)))))
    mag = math.exp(-float(np.sum((np.asarray(nbars, float) + 0.5)
                                 * np.abs(beta) ** 2)))
    return mag * np.exp(1j * ph)


def gaussian_wmat(setup: SequenceSetup, nbars):
    """4x4 channel matrix W[c, c'] = <U_c'^dag U_c> over the thermal state."""
    disp = []
    for si, sj in CONFIG_S:
        gens = config_generators(setup, si, sj)
        disp.append(gaussian_u_rel(gens, setup.n_modes))
    w = np.zeros((4, 4), dtype=complex)
    for c in range(4):
        for cp in range(4):
            w[c, cp] = thermal_overlap(disp[c][0], disp[c][1],
                                       disp[cp][0], disp[cp][1], nbars)
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
    us = [dense_u_rel(config_generators(setup, si, sj), dims)
          for si, sj in CONFIG_S]
    return _thermal_wmat([u[:, idx] for u in us], p), us


def sparse_ladders(dims):
    """Sparse (a_m, a_m^dag) operator lists on the product mode space."""
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


def mode_displacements(vad, dim):
    """exp(-i (vad a^dag + conj(vad) a)) on one mode truncated to dim
    levels, stacked over the axes of vad."""
    ad = np.diag(np.sqrt(np.arange(1, dim)), -1)
    vad = np.asarray(vad, complex)[..., None, None]
    return expm_herm(vad * ad + np.conj(vad) * ad.T)


def mode_factors(gens, dims):
    """(us, phase) with exp(-i phase) kron_m us[m] the displacement product
    on the truncated mode space: each generator is a sum of commuting
    single-mode terms, so it exponentiates mode by mode exactly."""
    n = len(dims)
    v = np.reshape([vs for vs, _ in gens], (-1, 2 * n))
    # enforce Hermitian pairing against roundoff of the mapping
    vad = 0.5 * (v[:, n:] + np.conj(v[:, :n]))
    us = [np.eye(d, dtype=complex) for d in dims]
    for m, d in enumerate(dims):
        for factor in mode_displacements(vad[:, m], d):
            us[m] = factor @ us[m]
    return us, sum(ph for _, ph in gens)


def column_wmat(setup: SequenceSetup, dims, weights):
    """Channel matrix over the Fock columns of nonzero thermal weight:
    <n|U_c'^dag U_c|n> = e^{i(phase_c' - phase_c)}
    prod_m (u_c'm^dag u_cm)[n_m, n_m] with mode_factors u, phase."""
    idx, p = _weighted_columns(dims, weights)
    factors, phases = zip(*(mode_factors(config_generators(setup, si, sj),
                                         dims) for si, sj in CONFIG_S))
    overlap = np.ones((4, 4, len(idx)), dtype=complex)
    for m, n_m in enumerate(np.unravel_index(idx, dims)):
        u = np.array([us[m] for us in factors])
        overlap *= np.einsum("djk,cjk->cdk", np.conj(u), u)[:, :, n_m]
    phases = np.array(phases)
    return np.exp(1j * (phases - phases[:, None])) * (overlap @ p)


# ---------------------------------------------------------------------------
# ideal-gate phases

def ideal_phases(setup: SequenceSetup):
    """Accumulated phase per qubit configuration of the reference-relative
    target gate: each driven pulse contributes -gamma^2 tau / (mu - w_com~)
    with w_com~ the shifted COM branch seen during that pulse."""
    branch = {cfg: normal_form(setup.ws, setup.coupling(*cfg))[0][0]
              for cfg in CONFIG_S}
    paths = [path_of(si, sj, setup.echo_schedule, setup.pulse_count)
             for si, sj in CONFIG_S]
    return np.array([sum(-setup.gamma ** 2 * setup.tau
                         / (setup.mu - branch[path[p]])
                         for p in setup.field_pulses) for path in paths],
                    dtype=float)


# ---------------------------------------------------------------------------
# mean-vector trajectory (full sequence, statics included)

def config_trajectory(setup: SequenceSetup, si, sj, m0, samples_per_pulse):
    """Bare-frame ladder expectation values along the full sequence.

    m0: initial (<a_1..a_N>, conj) vector of length 2N. Returns (times,
    means) with means[k] the length-N <a> vector at times[k].

    Uses the same split as the channel: the propagator up to any time t
    factors into the field-free reference times a pure displacement
    product whose generators are conjugated through the completed static
    factors. The mean is then S_ref(t) (m0 + d(t)) with d the accumulated
    displacement, exact for the partial segment as well since the dressed
    drive stays linear.
    """
    n = setup.n_modes
    path = path_of(si, sj, setup.echo_schedule, setup.pulse_count)
    m0 = np.asarray(m0, dtype=complex)
    times = [0.0]
    means = [m0[:n].copy()]
    t_map = None                       # statics before the current pulse
    s_ref = np.eye(2 * n, dtype=complex)  # statics of completed pulses

    def mapped_partial(seg_coefs, ts):
        """Mapped linear moments from the pulse start to each time in ts;
        a segment not begun by t integrates over zero length."""
        v = np.zeros((len(ts), 2 * n), dtype=complex)
        if seg_coefs is not None:
            t1, t2, coef = seg_coefs
            te = np.clip(ts[:, None], t1, t2)
            v = v + coef.m0(t1, te).sum(axis=1)
        if t_map is not None:
            v = v @ t_map
        return v

    alpha = np.zeros(n, dtype=complex)
    for p, cfg in enumerate(path):
        dressed = normal_form(setup.ws, setup.coupling(*cfg))
        t_a = p * setup.tau
        seg_coefs = None
        if p in setup.field_pulses and setup.gamma != 0.0:
            seg_coefs = pulse_segment_coefs(setup, dressed, t_a)
        ts = t_a + np.arange(1, samples_per_pulse + 1) * setup.tau \
            / samples_per_pulse
        # moments and static maps at every sample and at the pulse end,
        # each in one batch
        t_all = np.append(ts, t_a + setup.tau)
        w_all = mapped_partial(seg_coefs, t_all)
        s_all = static_heisenberg_map(setup.ws, dressed,
                                      np.append(ts - t_a, setup.tau), t_a,
                                      t_all)
        a_t = alpha + (-1j) * w_all[:-1, n:]
        d = np.concatenate([a_t, np.conj(a_t)], axis=-1)
        mt = ((s_all[:-1] @ s_ref) @ (m0 + d)[..., None])[..., 0]
        times.extend(ts.tolist())
        means.extend(mt[:, :n])
        alpha = alpha + (-1j) * w_all[-1, n:]
        s_p = s_all[-1]
        s_ref = s_p @ s_ref
        t_map = s_p if t_map is None else s_p @ t_map
    return np.array(times), np.array(means)


# ---------------------------------------------------------------------------
# direct integration backend

def field_free_propagators(setup: SequenceSetup, dims, h, t_a):
    """Bare-frame propagators R(t_a + tau) exp(-i H0 tau) R(t_a)^dag of a
    field-free pulse starting at t_a, one per block of the compiled
    Hamiltonian h (evolve.hamiltonian_terms): H0 = sum_m w_m n_m + h(0),
    R(t) = exp(i sum_m w_m n_m t), each block diagonalized once."""
    n_blocks = h.static.shape[0]
    e_bare = np.asarray(setup.ws, float) @ np.indices(dims).reshape(
        len(dims), -1)
    h_tw = h.stacked()(0.0).toarray().reshape(n_blocks, h.dim, n_blocks,
                                              h.dim)
    vals, vecs = np.linalg.eigh(np.einsum("aiaj->aij", h_tw)
                                + np.diag(e_bare))
    u = (vecs * np.exp(-1j * setup.tau * vals)[:, None, :]) \
        @ np.conj(np.swapaxes(vecs, 1, 2))
    return (np.exp(1j * e_bare * (t_a + setup.tau))[:, None] * u) \
        * np.exp(-1j * e_bare * t_a)


def ode_wmat(setup: SequenceSetup, dims, weights, rtol=1e-9, max_step=None):
    """Channel matrix with the driven pulses integrated directly.

    The four qubit configurations are the blocks of one matrix-valued ODE
    per driven pulse (evolve.hamiltonian_terms, block c following
    configuration c's spin path), which carries only the Fock columns of
    nonzero thermal weight; field-free pulses are applied in closed form.
    Returns (W, us) with us[c] the columns of the reference-relative
    propagator at those Fock states.
    """
    from . import evolve as _evolve

    idx, p = _weighted_columns(dims, weights)
    dim = int(np.prod(dims))
    paths = [path_of(si, sj, setup.echo_schedule, setup.pulse_count)
             for si, sj in CONFIG_S]
    if max_step is None:
        max_step = (2.0 * math.pi / setup.mu) / 20.0
    u_full = np.array([np.eye(dim, dtype=complex)[:, idx]] * 4)
    u_ref = np.array([np.eye(dim, dtype=complex)] * 4)
    for pulse in range(setup.pulse_count):
        t_a = pulse * setup.tau
        h = _evolve.hamiltonian_terms(setup, dims,
                                      [path[pulse] for path in paths])
        u_stat = field_free_propagators(setup, dims, h, t_a)
        u_ref = u_stat @ u_ref
        if pulse in setup.field_pulses and setup.gamma != 0.0:
            u_full = _evolve._integrate(
                h.stacked(t_a), u_full.reshape(4 * dim, -1), t_a,
                t_a + setup.tau, rtol, max_step,
                atol=1e-12)[:, -1].reshape(u_full.shape)
        else:
            u_full = u_stat @ u_full
    us = np.conj(np.swapaxes(u_ref, 1, 2)) @ u_full
    return _thermal_wmat(us, p), list(us)
