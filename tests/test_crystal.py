"""Chain equilibrium and normal-mode oracles.

Frozen numbers come from independent derivations: closed-form force
balance for N=2, direct potential minimization for N in {3,4,5}, and
characteristic-polynomial roots for the small-N spectra.
"""
import numpy as np
import pytest
import scipy.constants as const
import scipy.optimize

from oracles import axial_hessian, perturbative_mode_frequencies
from tweezergate import crystal
from tweezergate.crystal import (
    CrystalModes,
    TrapSpec,
    TweezerPerturbation,
    coulomb_length,
    drive_frequency_correction,
    equilibrium_positions,
    normal_modes,
    shifted_mode_frequencies,
)

W = 2 * np.pi * 1e6
M_ION = 171.0 * const.atomic_mass


def trap(n, w=W):
    return TrapSpec(n_ions=n, ion_mass=M_ION, axial_frequency=w)


def chain_potential(u):
    v = 0.5 * np.sum(u ** 2)
    n = len(u)
    for i in range(n):
        for j in range(i + 1, n):
            v += 1.0 / abs(u[i] - u[j])
    return v


def minimize_oracle(n):
    """Independent equilibrium: direct Nelder-Mead + polish of the potential."""
    u0 = np.linspace(-1, 1, n) * (0.5 * n ** 0.56)
    res = scipy.optimize.minimize(chain_potential, u0, method="Nelder-Mead",
                                  options={"xatol": 1e-12, "fatol": 1e-14,
                                           "maxiter": 20000})
    res = scipy.optimize.minimize(chain_potential, res.x, method="BFGS",
                                  options={"gtol": 1e-12})
    u = np.sort(res.x)
    return u - np.mean(u)


def potential_gradient_ref(u):
    """Force balance one ion pair at a time."""
    g = u.copy()
    n = len(u)
    for i in range(n):
        for j in range(n):
            if j != i:
                d = u[i] - u[j]
                g[i] -= np.sign(d) / d ** 2
    return g


def dimensionless_hessian_ref(u):
    """Hessian one ion pair at a time."""
    n = len(u)
    a = np.eye(n)
    for i in range(n):
        s = 0.0
        for j in range(n):
            if j != i:
                d3 = abs(u[i] - u[j]) ** 3
                a[i, j] = -2.0 / d3
                s += 2.0 / d3
        a[i, i] = 1.0 + s
    return a


class TestVectorizedChain:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 50])
    def test_gradient_and_hessian_match_loops(self, n):
        # at the equilibrium and at a perturbed, unsorted configuration
        rng = np.random.default_rng(n)
        u_eq = equilibrium_positions(trap(n))
        for u in (u_eq, rng.permutation(u_eq + 0.05 * rng.normal(size=n))):
            np.testing.assert_allclose(crystal._potential_gradient(u),
                                       potential_gradient_ref(u),
                                       rtol=0, atol=1e-13)
            np.testing.assert_allclose(crystal._dimensionless_hessian(u),
                                       dimensionless_hessian_ref(u),
                                       rtol=1e-13, atol=0)

    def test_modes_solved_once_per_trap(self):
        # equal TrapSpecs share one result, which nobody can modify
        a = normal_modes(trap(5))
        assert normal_modes(trap(5)) is a
        for arr in (a.positions, a.frequencies, a.vectors):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        assert normal_modes(trap(5, 1.1 * W)) is not a


class TestEquilibrium:
    def test_single_ion_at_center(self):
        assert equilibrium_positions(trap(1)) == pytest.approx([0.0])

    def test_two_ions_closed_form(self):
        # force balance 2u = 1/(2u)^2 -> u = (1/2)^(2/3)
        u = equilibrium_positions(trap(2))
        ref = 0.5 ** (2.0 / 3.0)
        assert u == pytest.approx([-ref, ref], abs=1e-12)

    def test_three_ions(self):
        u = equilibrium_positions(trap(3))
        # outer ion: closed-form root of u = 1/u^2 + 1/(2u)^2 -> (5/4)^(1/3)
        ref = (5.0 / 4.0) ** (1.0 / 3.0)
        assert u == pytest.approx([-ref, 0.0, ref], abs=1e-12)
        assert ref == pytest.approx(1.0772, abs=5e-5)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_minimization_oracle(self, n):
        u = equilibrium_positions(trap(n))
        ref = minimize_oracle(n)
        assert u == pytest.approx(ref, abs=1e-7)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_force_residual_and_symmetry(self, n):
        u = equilibrium_positions(trap(n))
        g = u.copy()
        for i in range(n):
            for j in range(n):
                if j != i:
                    d = u[i] - u[j]
                    g[i] -= np.sign(d) / d ** 2
        assert np.max(np.abs(g)) < 1e-12
        assert u == pytest.approx(-u[::-1], abs=1e-10)
        assert np.all(np.diff(u) > 0)

    def test_four_ion_positions_frozen(self):
        u = equilibrium_positions(trap(4))
        assert u[2] == pytest.approx(0.45438, abs=5e-6)
        assert u[3] == pytest.approx(1.43680, abs=5e-6)


class TestHessian:
    def test_single_ion(self):
        a = axial_hessian(trap(1), np.zeros(1))
        assert a[0, 0] == pytest.approx(W ** 2)
        assert a.shape == (1, 1)

    def test_two_ions_analytic(self):
        t = trap(2)
        a = axial_hessian(t, equilibrium_positions(t))
        np.testing.assert_allclose(a / W ** 2, [[2.0, -1.0], [-1.0, 2.0]],
                                   atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_row_sums_and_symmetry(self, n):
        t = trap(n)
        a = axial_hessian(t, equilibrium_positions(t))
        np.testing.assert_allclose(a, a.T, atol=1e-14 * W ** 2)
        assert a.sum(axis=1) == pytest.approx(np.full(n, W ** 2), rel=1e-12)

    def test_coincident_positions_rejected(self):
        with pytest.raises(ValueError, match="singular|coincident"):
            axial_hessian(trap(2), np.array([0.3, 0.3]))


class TestNormalModes:
    def test_two_ion_spectrum_and_vectors(self):
        m = normal_modes(trap(2))
        assert m.frequencies / W == pytest.approx([1.0, np.sqrt(3.0)], rel=1e-12)
        s = 1.0 / np.sqrt(2.0)
        assert m.vectors[0] == pytest.approx([s, s])
        assert np.abs(m.vectors[1]) == pytest.approx([s, s])

    def test_three_ion_spectrum(self):
        # characteristic polynomial roots: 1, 3, 29/5 in units w_z^2
        m = normal_modes(trap(3))
        ref = np.sqrt([1.0, 3.0, 29.0 / 5.0])
        assert m.frequencies / W == pytest.approx(ref, rel=1e-10)

    def test_four_ion_spectrum_frozen(self):
        lam = (normal_modes(trap(4)).frequencies / W) ** 2
        assert lam == pytest.approx([1.0, 3.0, 5.8099373, 9.3083502], abs=2e-6)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_com_mode_uniform(self, n):
        m = normal_modes(trap(n))
        assert m.frequencies[0] == pytest.approx(W, rel=1e-9)
        assert m.vectors[0] ** 2 == pytest.approx(np.full(n, 1.0 / n), abs=1e-10)

    @pytest.mark.parametrize("n", list(range(1, 9)))
    def test_orthonormal_and_reconstructs(self, n):
        t = trap(n)
        m = normal_modes(t)
        np.testing.assert_allclose(m.vectors @ m.vectors.T, np.eye(n), atol=1e-10)
        a = axial_hessian(t, m.positions)
        rebuilt = (m.vectors.T * m.frequencies ** 2) @ m.vectors
        assert np.linalg.norm(rebuilt - a) < 1e-10 * np.linalg.norm(a)


class TestShiftedModes:
    def test_mixed_config_com_shift_vanishes(self):
        for n, pair in [(2, (0, 1)), (3, (0, 2)), (4, (1, 2))]:
            m = normal_modes(trap(n))
            p = TweezerPerturbation(0.2 * W, pair, (1, -1))
            w = perturbative_mode_frequencies(m, p)
            # b^2 is 1/N on every site, so opposite signs cancel exactly
            assert w[0] == pytest.approx(W, rel=1e-14)

    def test_two_ion_plus_plus_closed_form(self):
        m = normal_modes(trap(2))
        wt = 0.25 * W
        p = TweezerPerturbation(wt, (0, 1), (1, 1))
        w = perturbative_mode_frequencies(m, p)
        assert w[0] == pytest.approx(np.sqrt(W ** 2 + wt ** 2), rel=1e-12)

    def test_two_ion_exact_eigenvalues(self):
        # site Hessian [[2 + t, -1], [-1, 2 - t]] has eigenvalues 2 +- sqrt(1 + t^2)
        m = normal_modes(trap(2))
        wt = 0.25 * W
        t = (wt / W) ** 2
        p = TweezerPerturbation(wt, (0, 1), (1, -1))
        w = shifted_mode_frequencies(m, p)
        ref = W * np.sqrt([2.0 - np.sqrt(1 + t * t), 2.0 + np.sqrt(1 + t * t)])
        assert w == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_perturbative_vs_exact_quartic(self, n):
        # disagreement bounded by C * w_tw^4 / w^3 with C stable across N;
        # mixed signs keep the site perturbation traceless so the discrepancy
        # is purely the off-diagonal mode mixing
        m = normal_modes(trap(n))
        cs = []
        for ratio in (0.05, 0.08):
            wt = ratio * W
            p = TweezerPerturbation(wt, (0, 1), (1, -1))
            we = shifted_mode_frequencies(m, p)
            wp = perturbative_mode_frequencies(m, p)
            cs.append(np.max(np.abs(we - wp)) * W ** 3 / wt ** 4)
        assert max(cs) < 0.3
        # quartic scaling: the fitted constant is ratio-independent
        assert cs[0] == pytest.approx(cs[1], rel=0.01)

    def test_com_shift_halves_when_n_doubles(self):
        # first order in (w_tw/w)^2 the (+,+) COM shift scales as 2/N
        wt = 0.1 * W
        shifts = []
        for n in (2, 4):
            m = normal_modes(trap(n))
            p = TweezerPerturbation(wt, (0, 1), (1, 1))
            w = perturbative_mode_frequencies(m, p)
            shifts.append(w[0] - W)
        assert shifts[0] == pytest.approx(2.0 * shifts[1], rel=5e-3)

    def test_unstable_mode_named(self):
        m = normal_modes(trap(2))
        p = TweezerPerturbation(1.5 * W, (0, 1), (-1, -1))
        with pytest.raises(ValueError, match="mode"):
            shifted_mode_frequencies(m, p)
        with pytest.raises(ValueError, match="mode"):
            perturbative_mode_frequencies(m, p)

    def test_restricted_mode_set(self):
        # COM-only restriction: mixed-config curvature cancels exactly, so
        # the single retained branch stays at the bare COM frequency
        m = normal_modes(trap(2))
        p = TweezerPerturbation(0.25 * W, (0, 1), (1, -1))
        com_only = m.restrict((0,))
        w = shifted_mode_frequencies(com_only, p)
        assert w.shape == (1,)
        assert w[0] == pytest.approx(W, rel=1e-14)
        # full restriction reproduces the unrestricted spectrum
        w_full = shifted_mode_frequencies(m.restrict((0, 1)), p)
        np.testing.assert_allclose(
            w_full, shifted_mode_frequencies(m, p), rtol=1e-14)


class TestDriveCorrection:
    def test_zero_tweezer_zero_offset(self):
        p = TweezerPerturbation(0.0, (0, 1), (1, -1))
        assert drive_frequency_correction(trap(4), p) == pytest.approx(0.0, abs=1e-6)

    def test_four_ion_offsets_at_caption_tweezer(self):
        # exact mixed-branch shift plus the 1 kHz detuning bookkeeping
        delta = -2 * np.pi * 1e3
        wt = 2 * np.pi * 257e3
        ref_hz = {(0, 1): 1212.0, (0, 2): 1325.0, (0, 3): 1488.0, (1, 2): 1162.0}
        for pair, ref in ref_hz.items():
            p = TweezerPerturbation(wt, pair)
            off = drive_frequency_correction(trap(4), p, delta=delta) / (2 * np.pi)
            assert off == pytest.approx(ref, rel=0.10)

    def test_four_ion_offsets_at_body_text_tweezer(self):
        # at 254 kHz all four offsets land within 10 Hz of the tabulated values
        delta = -2 * np.pi * 1e3
        wt = 2 * np.pi * 254e3
        ref_hz = {(0, 1): 1212.0, (0, 2): 1325.0, (0, 3): 1488.0, (1, 2): 1162.0}
        for pair, ref in ref_hz.items():
            p = TweezerPerturbation(wt, pair)
            off = drive_frequency_correction(trap(4), p, delta=delta) / (2 * np.pi)
            assert abs(off - ref) < 10.0

    def test_offset_quadratic_in_tweezer(self):
        delta = 0.0
        offs = []
        for wt in (2 * np.pi * 50e3, 2 * np.pi * 100e3):
            p = TweezerPerturbation(wt, (0, 1))
            offs.append(drive_frequency_correction(trap(4), p, delta=delta))
        ratio = offs[1] / offs[0]
        assert ratio > 3.9  # quadratic or higher in w_tw


class TestTypes:
    def test_trap_validation(self):
        with pytest.raises(ValueError):
            TrapSpec(n_ions=0, ion_mass=M_ION, axial_frequency=W)
        with pytest.raises(ValueError):
            TrapSpec(n_ions=2, ion_mass=-1.0, axial_frequency=W)
        with pytest.raises(ValueError):
            TrapSpec(n_ions=2, ion_mass=M_ION, axial_frequency=0.0)

    def test_perturbation_validation(self):
        with pytest.raises(ValueError):
            TweezerPerturbation(0.1 * W, (1, 1))
        with pytest.raises(ValueError):
            TweezerPerturbation(0.1 * W, (0, 1), (2, -1))

    def test_pair_out_of_range(self):
        m = normal_modes(trap(2))
        p = TweezerPerturbation(0.1 * W, (0, 5))
        with pytest.raises(ValueError, match="range"):
            shifted_mode_frequencies(m, p)

    def test_coulomb_length_scale(self):
        # 171 amu at 2 pi x 1 MHz: a few microns
        l = coulomb_length(trap(2))
        assert 1e-6 < l < 1e-5
