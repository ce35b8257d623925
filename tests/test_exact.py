"""Closed-form moment kernel of the engine against a scalar reference.

The reference below evaluates the oscillatory moments one piece pair at a
time, with the same small-angle expansions; the engine evaluates them as
arrays over the whole piece-pair outer product.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweezergate import _exact
from tweezergate import calibrate
from tweezergate import cli
from tweezergate import crystal
from tweezergate import drive
from tweezergate import evolve

# ---------------------------------------------------------------------------
# scalar reference


def int0_ref(th, t1, t2):
    """int_t1^t2 exp(i th t) dt"""
    x = th * (t2 - t1)
    if abs(x) < 1e-8:
        return (t2 - t1) * np.exp(1j * th * 0.5 * (t1 + t2))
    return (np.exp(1j * th * t2) - np.exp(1j * th * t1)) / (1j * th)


def int1_ref(th, t1, t2, tc):
    """int_t1^t2 (t-tc) exp(i th t) dt"""
    if abs(th * (t2 - t1)) < 1e-8:
        e = np.exp(1j * th * tc)
        a, b = t1 - tc, t2 - tc
        return e * (0.5 * (b * b - a * a) + 1j * th * (b ** 3 - a ** 3) / 3.0)
    e2, e1 = np.exp(1j * th * t2), np.exp(1j * th * t1)
    return ((t2 - tc) * e2 - (t1 - tc) * e1) / (1j * th) \
        - (e2 - e1) / (1j * th) ** 2


def intj_ref(tha, thb, t1, t2):
    """int_{t1}^{t2} ds e^{i tha s} int_{t1}^{s} ds' e^{i thb s'}"""
    if abs(thb * (t2 - t1)) < 1e-8:
        return int1_ref(tha + 0.5 * thb, t1, t2, t1) * np.exp(0.5j * thb * t1)
    return (int0_ref(tha + thb, t1, t2)
            - np.exp(1j * thb * t1) * int0_ref(tha, t1, t2)) / (1j * thb)


def intj_scale(tha, thb, t1, t2):
    """Magnitude of the terms intj_ref combines.  Array and scalar complex
    products may round one ulp apart, and the difference formula cancels
    as theta (t2 - t1) approaches the 1e-8 threshold, so two correct
    evaluations agree relative to this scale, not to the result."""
    scale = abs(intj_ref(tha, thb, t1, t2))
    if abs(thb * (t2 - t1)) >= 1e-8:
        scale += (abs(int0_ref(tha + thb, t1, t2))
                  + abs(int0_ref(tha, t1, t2))) / abs(thb)
    return scale


def double_moment_ref(ck, cl, t1, t2):
    """Double moment of two piece lists [(beta, theta)] and the scale of
    its rounding error."""
    value = sum(bk * bl * intj_ref(thk, thl, t1, t2)
                for bk, thk in ck for bl, thl in cl)
    scale = sum(abs(bk * bl) * intj_scale(thk, thl, t1, t2)
                for bk, thk in ck for bl, thl in cl)
    return value, scale


def segment_pieces_ref(setup, k_mat, t_a):
    """[(t1, t2, pieces of a_n, pieces of a_n^dag)] for the driven segments
    of one pulse, each coefficient a list of (beta, theta)."""
    n = setup.n_modes
    wt, o = _exact.normal_form(setup.ws, k_mat)
    sw = np.sqrt(np.asarray(setup.ws, float))
    proj = np.asarray(setup.bcom, float) * sw
    pa = [[] for _ in range(n)]
    pad = [[] for _ in range(n)]
    for m in range(n):
        for k in range(n):
            cmk = float(proj @ o[:, k])
            c1 = cmk * o[m, k] / sw[m]
            c2 = cmk * o[m, k] * sw[m] / wt[k]
            pa[m] += [(0.5 * (c1 + c2), -wt[k]), (0.5 * (c1 - c2), wt[k])]
            pad[m] += [(0.5 * (c1 - c2), -wt[k]), (0.5 * (c1 + c2), wt[k])]
    out = []
    for kind, t1, t2 in _exact.segments(t_a, setup.tau, setup.ramp_time):
        if t2 <= t1:
            continue
        env = _exact.env_pieces(kind, setup.ramp_time, t_a, setup.tau)
        base = [(be * setup.gamma, the + thh) for be, the in env
                for thh in (setup.mu, -setup.mu)]

        def pieces(px):
            return [(bb * bx * np.exp(-1j * thx * t_a), thb + thx)
                    for bb, thb in base for bx, thx in px]

        out.append((t1, t2, [pieces(p) for p in pa],
                    [pieces(p) for p in pad]))
    return out


def config_generators_ref(setup, si, sj):
    path = _exact.path_of(si, sj, setup.echo_schedule, setup.pulse_count)
    gens = []
    t_map = None
    for p, cfg in enumerate(path):
        k_mat = setup.coupling(*cfg)
        if p in setup.field_pulses and setup.gamma != 0.0:
            for t1, t2, ca, cad in segment_pieces_ref(setup, k_mat,
                                                      p * setup.tau):
                v = np.array([sum(b * int0_ref(th, t1, t2) for b, th in c)
                              for c in ca + cad])
                phase = 0.0
                for a, ad in zip(ca, cad):
                    jkl, _ = double_moment_ref(a, ad, t1, t2)
                    jlk, _ = double_moment_ref(ad, a, t1, t2)
                    phase += np.real(-0.5j * (jkl - jlk))
                gens.append((v if t_map is None else t_map.T @ v, phase))
        if p < len(path) - 1:
            s_p = _exact.static_heisenberg_map(
                setup.ws, _exact.normal_form(setup.ws, k_mat), setup.tau,
                p * setup.tau, (p + 1) * setup.tau)
            t_map = s_p if t_map is None else s_p @ t_map
    return gens


def full_j_phase(t1, t2, coef):
    """Commutator phase of each segment read off the full (2N)^2 second
    moment matrix: the same-mode diagonals J[k, N+k] and J[N+k, k]."""
    n = coef.beta.shape[-2] // 2
    j = _exact.double_moment(coef, t1, t2)
    jkl = np.diagonal(j[..., :n, n:], axis1=-2, axis2=-1)
    jlk = np.diagonal(j[..., n:, :n], axis1=-2, axis2=-1)
    return np.sum(np.real(-0.5j * (jkl - jlk)), axis=-1)


def full_j_phase_scale(t1, t2, coef):
    """Magnitude of the terms full_j_phase sums: every piece pair's int_j
    scale (see intj_scale) times its coefficient products."""
    th = coef.theta
    tha, thb = th[..., :, None], th[..., None, :]
    t1, t2 = t1[:, None, None], t2[:, None, None]
    big = np.abs(thb * (t2 - t1)) >= 1e-8
    scale = np.abs(_exact.int_j(tha, thb, t1, t2)) + np.where(
        big, (np.abs(_exact.int0(tha + thb, t1, t2))
              + np.abs(_exact.int0(tha, t1, t2)))
        / np.abs(np.where(big, thb, 1.0)), 0.0)
    n = coef.beta.shape[-2] // 2
    a, ad = np.abs(coef.beta[:, :n]), np.abs(coef.beta[:, n:])
    m = np.swapaxes(a, -1, -2) @ ad + np.swapaxes(ad, -1, -2) @ a
    return 0.5 * np.sum(scale * m, axis=(-2, -1))


def static_heisenberg_map_ref(ws, k_mat, dt, t_a, t_b):
    n_modes = len(ws)
    wt, o = _exact.normal_form(ws, k_mat)
    sw = np.sqrt(np.asarray(ws, float))
    ct = np.cos(wt * dt)
    st_ = np.sin(wt * dt)
    c = np.zeros((n_modes, n_modes))
    s1 = np.zeros((n_modes, n_modes))
    c2 = np.zeros((n_modes, n_modes))
    s2 = np.zeros((n_modes, n_modes))
    for m in range(n_modes):
        for n in range(n_modes):
            oo = o[m, :] * o[n, :]
            c[m, n] = np.sum(oo * (sw[m] / sw[n]) * ct)
            s1[m, n] = np.sum(oo * (sw[m] * sw[n]) / wt * st_)
            c2[m, n] = -np.sum(oo * wt / (sw[m] * sw[n]) * st_)
            s2[m, n] = np.sum(oo * (sw[n] / sw[m]) * ct)
    a_blk = 0.5 * ((c + 1j * c2) - 1j * (s1 + 1j * s2))
    b_blk = 0.5 * ((c + 1j * c2) + 1j * (s1 + 1j * s2))
    mg = np.block([[a_blk, b_blk], [b_blk.conj(), a_blk.conj()]])
    ws_arr = np.asarray(ws, float)
    lam_b = np.concatenate([np.exp(1j * ws_arr * t_b),
                            np.exp(-1j * ws_arr * t_b)])
    lam_a = np.concatenate([np.exp(-1j * ws_arr * t_a),
                            np.exp(1j * ws_arr * t_a)])
    return (lam_b[:, None] * mg) * lam_a[None, :]


def preset_setup(name):
    inputs = cli.build_inputs(cli.load_document(name))
    cfg = inputs.gate_config()
    modes = evolve.retained_modes(cfg, inputs.space)
    return _exact.setup_from_config(cfg, modes), inputs


# ---------------------------------------------------------------------------
# random moments

# theta * (t2 - t1): exactly zero, across the 1e-8 expansion threshold, and
# generic; either sign
_PHASE = st.one_of(
    st.just(0.0),
    st.floats(-11.0, -5.0).map(lambda e: 10.0 ** e),
    st.floats(0.5, 2.0).map(lambda f: f * 1e-8),
    st.floats(-5.0, 3.0).map(lambda e: 10.0 ** e),
).flatmap(lambda r: st.sampled_from((r, -r)))
_T1 = st.floats(0.0, 1e-3)
_DT = st.floats(1e-7, 1e-3)
# exactly zero or at least 1e-100 in magnitude: a product of two tinier
# coefficients is subnormal, where no double meets a relative bound
_BETA = st.one_of(
    st.just(0j),
    st.complex_numbers(min_magnitude=1e-100, max_magnitude=1.0,
                       allow_nan=False, allow_infinity=False))


def assert_rel(got, want, scale=None, rtol=1e-12):
    """|got - want| <= rtol * scale elementwise; scale defaults to |want|."""
    got, want = np.asarray(got), np.asarray(want)
    scale = np.abs(want) if scale is None else np.asarray(scale)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rtol * scale), \
        np.max(np.abs(got - want) / np.maximum(scale, 1e-300))


@settings(max_examples=300, deadline=None)
@given(t1=_T1, dt=_DT, phases=st.lists(_PHASE, min_size=1, max_size=8),
       tc_frac=st.floats(0.0, 1.0))
def test_single_moments_match_scalar(t1, dt, phases, tc_frac):
    t2 = t1 + dt
    tc = t1 + tc_frac * dt
    th = np.array(phases) / dt
    assert_rel(_exact.int0(th, t1, t2), [int0_ref(x, t1, t2) for x in th])
    assert_rel(_exact.int1(th, t1, t2, tc),
               [int1_ref(x, t1, t2, tc) for x in th])


@settings(max_examples=300, deadline=None)
@given(t1=_T1, dt=_DT, phases=st.lists(_PHASE, min_size=1, max_size=8))
def test_int_j_matches_scalar_on_outer_product(t1, dt, phases):
    t2 = t1 + dt
    th = np.array(phases) / dt
    got = _exact.int_j(th[:, None], th[None, :], t1, t2)
    want = [[intj_ref(a, b, t1, t2) for b in th] for a in th]
    assert_rel(got, want, [[intj_scale(a, b, t1, t2) for b in th]
                           for a in th])


@settings(max_examples=200, deadline=None)
@given(t1=_T1, dt=_DT,
       pieces=st.lists(st.tuples(_PHASE, _BETA, _BETA), min_size=1,
                       max_size=8))
def test_double_moment_matches_scalar(t1, dt, pieces):
    t2 = t1 + dt
    th = np.array([p[0] for p in pieces]) / dt
    beta = np.array([[p[1] for p in pieces], [p[2] for p in pieces]])
    coef = _exact.Coef(beta, th)
    lists = [list(zip(row, th)) for row in beta]
    m0 = coef.m0(np.array(t1), np.array(t2))
    for k in range(2):
        terms = [b * int0_ref(x, t1, t2) for b, x in lists[k]]
        assert abs(m0[k] - sum(terms)) <= 1e-12 * sum(abs(t) for t in terms)
    j = _exact.double_moment(coef, t1, t2)
    assert j.shape == (2, 2)
    for k in range(2):
        for l in range(2):
            want, scale = double_moment_ref(lists[k], lists[l], t1, t2)
            assert abs(j[k, l] - want) <= 1e-12 * scale


def test_batched_segments_match_single():
    # a batch of segments equals each segment evaluated alone
    rng = np.random.default_rng(3)
    th = rng.normal(size=(3, 5)) * 1e5
    th[1, 2] = 0.0
    beta = rng.normal(size=(3, 2, 5)) + 1j * rng.normal(size=(3, 2, 5))
    t1 = np.array([0.0, 1e-5, 3e-5])
    t2 = np.array([1e-5, 3e-5, 3.5e-5])
    j = _exact.double_moment(_exact.Coef(beta, th), t1, t2)
    m0 = _exact.Coef(beta, th).m0(t1, t2)
    for s in range(3):
        one = _exact.Coef(beta[s], th[s])
        np.testing.assert_allclose(j[s], _exact.double_moment(
            one, t1[s], t2[s]), rtol=1e-13)
        np.testing.assert_allclose(m0[s], one.m0(t1[s], t2[s]), rtol=1e-13)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), data=st.data(),
       ratio=st.floats(0.02, 0.3), detuning_khz=st.floats(-5.0, -0.3),
       ramp=st.sampled_from((0.0, 0.016, 0.25)))
def test_block_phase_matches_full_j(n, data, ratio, detuning_khz, ramp):
    # the per-dressed-mode phase equals the one read off the full J, on
    # every driven pulse of every configuration, with all modes retained
    pair = (0, 1) if n == 1 else tuple(data.draw(
        st.permutations(range(n)))[:2])
    trap = crystal.TrapSpec(max(n, 2), calibrate.YB171_MASS_KG,
                            calibrate.DEFAULT_COM_FREQUENCY)
    cfg = drive.GateConfig(
        trap=trap, pair=pair, field_amplitude=2.69e-4,
        tweezer_frequency=ratio * trap.axial_frequency,
        detuning=2 * np.pi * 1e3 * detuning_khz, ramp_fraction=ramp)
    setup = _exact.setup_from_config(
        cfg, crystal.normal_modes(trap).restrict(range(n)))
    for si, sj in _exact.CONFIG_S:
        path = _exact.path_of(si, sj, setup.echo_schedule,
                              setup.pulse_count)
        for p in setup.field_pulses:
            dressed = _exact.normal_form(setup.ws, setup.coupling(*path[p]))
            t1, t2, coef = _exact.pulse_segment_coefs(setup, dressed,
                                                      p * setup.tau)
            _, phase = _exact.segment_generators(t1, t2, coef)
            assert_rel(phase, full_j_phase(t1, t2, coef),
                       full_j_phase_scale(t1, t2, coef))


# ---------------------------------------------------------------------------
# engine against the scalar reference


def test_gaussian_wmat_matches_scalar_reference_table1():
    setup, inputs = preset_setup("table1")
    assert setup.n_modes == 4
    for nbars in (inputs.thermal.nbar, (0.5, 0.2, 0.1, 0.05)):
        w, _ = _exact.gaussian_wmat(setup, nbars)
        disp = [_exact.gaussian_u_rel(config_generators_ref(setup, si, sj),
                                      setup.n_modes)
                for si, sj in _exact.CONFIG_S]
        w_ref = np.array([[_exact.thermal_overlap(*disp[c], *disp[cp],
                                                  nbars)
                           for cp in range(4)] for c in range(4)])
        np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-13)


def test_generators_match_scalar_reference_fig2():
    setup, _ = preset_setup("fig2")
    for si, sj in _exact.CONFIG_S:
        gens = _exact.config_generators(setup, si, sj)
        ref = config_generators_ref(setup, si, sj)
        assert len(gens) == len(ref)
        for (v, ph), (v_ref, ph_ref) in zip(gens, ref):
            np.testing.assert_allclose(v, v_ref, rtol=1e-12, atol=1e-15)
            assert ph == pytest.approx(ph_ref, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("name", ["fig2", "fig3_twomode", "table1"])
def test_static_heisenberg_map_matches_loops(name):
    setup, _ = preset_setup(name)
    for si, sj in _exact.CONFIG_S:
        k_mat = setup.coupling(si, sj)
        got = _exact.static_heisenberg_map(
            setup.ws, _exact.normal_form(setup.ws, k_mat), 1.3e-4, 2e-5,
            1.5e-4)
        want = static_heisenberg_map_ref(setup.ws, k_mat, 1.3e-4, 2e-5,
                                         1.5e-4)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("name", ["fig2", "fig3_twomode", "table1"])
def test_static_heisenberg_map_batches_offsets(name):
    # one diagonalization serves all sample offsets of a pulse
    setup, _ = preset_setup(name)
    t_a = 2 * setup.tau
    dts = np.append(np.arange(1, 201) * setup.tau / 200, setup.tau)
    for si, sj in _exact.CONFIG_S:
        dressed = _exact.normal_form(setup.ws, setup.coupling(si, sj))
        got = _exact.static_heisenberg_map(setup.ws, dressed, dts, t_a,
                                           t_a + dts)
        assert got.shape == (len(dts), 2 * setup.n_modes, 2 * setup.n_modes)
        for dt, s_dt in zip(dts[::23], got[::23]):
            want = _exact.static_heisenberg_map(setup.ws, dressed, dt, t_a,
                                                t_a + dt)
            np.testing.assert_allclose(s_dt, want, rtol=0, atol=1e-13)
