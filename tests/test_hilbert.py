"""Composite-space bookkeeping: ladders, thermal weights, embeddings."""
import math

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import ladder_operators, mode_number_diagonals, qubit_basis_state
from tweezergate import hilbert
from tweezergate.hilbert import (
    SpaceSpec,
    ThermalEnsemble,
    embed,
    equal_temperature_ensemble,
    matched_temperature_nbar,
    thermal_weights,
)


class TestLadders:
    def test_cutoff_one_matrices(self):
        a, ad = ladder_operators(1)
        np.testing.assert_allclose(a.toarray(), [[0, 1], [0, 0]])
        np.testing.assert_allclose(ad.toarray(), [[0, 0], [1, 0]])

    @pytest.mark.parametrize("cutoff", [1, 2, 5, 17])
    def test_commutator_truncation_signature(self, cutoff):
        # identity except the last diagonal entry, which truncation flips
        # to -cutoff
        a, ad = ladder_operators(cutoff)
        comm = (a @ ad - ad @ a).toarray()
        expected = np.eye(cutoff + 1)
        expected[-1, -1] = -cutoff
        np.testing.assert_allclose(comm, expected, atol=1e-12)

    @pytest.mark.parametrize("cutoff", [3, 8])
    def test_number_operator(self, cutoff):
        a, ad = ladder_operators(cutoff)
        n = (ad @ a).toarray()
        np.testing.assert_allclose(n, np.diag(np.arange(cutoff + 1.0)),
                                   atol=1e-12)

    def test_matrix_element_sqrt_n(self):
        a, _ = ladder_operators(6)
        dense = a.toarray()
        for n in range(1, 7):
            assert dense[n - 1, n] == pytest.approx(math.sqrt(n))

    def test_rejects_cutoff_zero(self):
        with pytest.raises(ValueError):
            ladder_operators(0)


class TestThermalWeights:
    def test_normalized(self):
        for nbar in (0.0, 0.3, 1.0, 4.0):
            w = thermal_weights(nbar, 12)
            assert w.sum() == pytest.approx(1.0, abs=1e-14)
            assert (w >= 0).all()

    def test_vacuum_limit(self):
        w = thermal_weights(0.0, 5)
        np.testing.assert_allclose(w, [1, 0, 0, 0, 0, 0])

    def test_geometric_ratio(self):
        nbar = 1.0
        w = thermal_weights(nbar, 30)
        # before renormalization p_0 = 1/(nbar+1) = 1/2; with a deep cutoff
        # the renormalization is negligible
        assert w[0] == pytest.approx(0.5, rel=1e-8)
        ratios = w[1:] / w[:-1]
        np.testing.assert_allclose(ratios, nbar / (nbar + 1.0), rtol=1e-12)

    def test_mean_occupation_converges(self):
        nbar = 0.8
        w = thermal_weights(nbar, 60)
        mean = (np.arange(61) * w).sum()
        assert mean == pytest.approx(nbar, rel=1e-9)

    @pytest.mark.parametrize("nbar,cutoff", [(1.0, 10), (0.5, 6), (2.0, 14)])
    def test_tail_bound(self, nbar, cutoff):
        tail = (nbar / (nbar + 1.0)) ** (cutoff + 1)
        w_deep = thermal_weights(nbar, 400)
        lost = w_deep[cutoff + 1:].sum()
        assert lost == pytest.approx(tail, rel=1e-10)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            thermal_weights(-0.1, 5)


class TestMatchedTemperature:
    def test_unit_ratio_identity(self):
        assert matched_temperature_nbar(0.7, 1.0) == pytest.approx(0.7)

    def test_stretch_mode_values(self):
        # same temperature, sqrt(3) x higher frequency: occupation drops
        assert matched_temperature_nbar(1.0, math.sqrt(3.0)) == pytest.approx(
            0.43066, abs=5e-5)
        assert matched_temperature_nbar(0.6, math.sqrt(3.0)) == pytest.approx(
            0.22383, abs=5e-5)

    def test_zero_reference(self):
        assert matched_temperature_nbar(0.0, 2.0) == 0.0

    def test_tiny_reference_underflows_to_zero(self):
        # exp(beta ratio) exceeds the float range: the occupation is 0,
        # not an OverflowError
        assert matched_temperature_nbar(3.4e-272, math.sqrt(3.0)) == 0.0
        assert 0.0 < matched_temperature_nbar(1e-300, 1.0) < 1e-299

    def test_monotone_in_ratio(self):
        vals = [matched_temperature_nbar(1.0, r) for r in (1.0, 1.5, 2.0, 3.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestSpaceSpec:
    def test_dims(self):
        space = SpaceSpec(2, (14, 10))
        assert space.qubit_dim == 4
        assert space.mode_dims == (15, 11)
        assert space.mode_dim == 165
        assert space.dim == 660

    def test_no_modes(self):
        space = SpaceSpec(1, ())
        assert space.dim == 2

    def test_basis_index_order(self):
        # qubit-major, then modes lexicographic
        space = SpaceSpec(2, (2, 1))
        assert space.basis_index("00", (0, 0)) == 0
        assert space.basis_index("00", (0, 1)) == 1
        assert space.basis_index("00", (1, 0)) == 2
        assert space.basis_index("01", (0, 0)) == 6
        assert space.basis_index("10", (0, 0)) == 12
        assert space.basis_index("11", (2, 1)) == space.dim - 1

    def test_rejects_overflow_occupation(self):
        space = SpaceSpec(1, (3,))
        with pytest.raises(ValueError):
            space.basis_index("0", (4,))

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            SpaceSpec(1, (0,))


class TestEmbed:
    def test_sigma_z_first_qubit_sign_convention(self):
        # two-qubit block order |00>,|01>,|10>,|11> with sigma_z|1> = +|1>
        space = SpaceSpec(2, ())
        z0 = embed(hilbert.SIGMA_Z, ("qubit", 0), space).toarray()
        np.testing.assert_allclose(z0, np.diag([-1, -1, 1, 1]).astype(complex))
        z1 = embed(hilbert.SIGMA_Z, ("qubit", 1), space).toarray()
        np.testing.assert_allclose(z1, np.diag([-1, 1, -1, 1]).astype(complex))

    def test_identity_embeds_to_identity(self):
        space = SpaceSpec(2, (2, 2))
        for target in (("qubit", 1), ("mode", 0)):
            d = 2 if target[0] == "qubit" else 3
            op = embed(np.eye(d), target, space)
            np.testing.assert_allclose(op.toarray(), np.eye(space.dim))

    def test_mode_position_operator_shape_and_sparsity(self):
        space = SpaceSpec(2, (2, 2))
        a, ad = ladder_operators(2)
        x = embed(a + ad, ("mode", 0), space)
        assert x.shape == (36, 36)
        assert sp.issparse(x)
        # x couples n -> n+-1 on one mode only: 4 qubit blocks x 3 states of
        # the spectator mode x 4 nonzero ladder elements
        assert x.nnz == 48

    def test_disjoint_factors_commute(self):
        space = SpaceSpec(2, (3, 2))
        rng = np.random.default_rng(7)
        za = embed(hilbert.SIGMA_Y, ("qubit", 0), space)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        zb = embed(h, ("mode", 0), space)
        comm = (za @ zb - zb @ za)
        assert abs(comm).max() < 1e-12

    def test_hermiticity_preserved(self):
        space = SpaceSpec(1, (4,))
        a, ad = ladder_operators(4)
        for op in (a + ad, 1j * (a - ad), (ad @ a).astype(complex)):
            big = embed(op, ("mode", 0), space)
            diff = (big - big.conj().T)
            assert abs(diff).max() < 1e-12 if diff.nnz else True

    def test_rejects_bad_targets(self):
        space = SpaceSpec(1, (2,))
        with pytest.raises(IndexError):
            embed(np.eye(2), ("qubit", 1), space)
        with pytest.raises(IndexError):
            embed(np.eye(3), ("mode", 1), space)
        with pytest.raises(ValueError):
            embed(np.eye(3), ("qubit", 0), space)
        with pytest.raises(ValueError):
            embed(np.eye(2), ("spin", 0), space)


class TestEnsemble:
    def test_product_weights(self):
        ens = ThermalEnsemble((1.0, 0.5), (3, 2))
        w = ens.weights()
        assert w.shape == (12,)
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        w0 = thermal_weights(1.0, 3)
        w1 = thermal_weights(0.5, 2)
        np.testing.assert_allclose(w, np.kron(w0, w1), rtol=1e-14)

    def test_tail_weight_single_mode(self):
        ens = ThermalEnsemble((1.0,), (10,))
        assert ens.tail_weight() == pytest.approx(0.5 ** 11, rel=1e-10)

    def test_tail_weight_vacuum(self):
        ens = ThermalEnsemble((0.0, 0.0), (3, 3))
        assert ens.tail_weight() == 0.0

    def test_equal_temperature_builder(self):
        freqs = [1.0, math.sqrt(3.0)]
        ens = equal_temperature_ensemble(1.0, freqs, (14, 10))
        assert ens.nbar[0] == 1.0
        assert ens.nbar[1] == pytest.approx(0.43066, abs=5e-5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ThermalEnsemble((1.0,), (3, 3))


class TestBasisStates:
    def test_vacuum_default(self):
        space = SpaceSpec(2, (2,))
        psi = qubit_basis_state(space, "01")
        assert psi[space.basis_index("01", (0,))] == 1.0
        assert np.linalg.norm(psi) == 1.0

    def test_number_diagonals(self):
        space = SpaceSpec(1, (2, 1))
        diags = mode_number_diagonals(space)
        a0, ad0 = ladder_operators(2)
        n0 = embed(ad0 @ a0, ("mode", 0), space).diagonal().real
        np.testing.assert_allclose(diags[0], n0)
        a1, ad1 = ladder_operators(1)
        n1 = embed(ad1 @ a1, ("mode", 1), space).diagonal().real
        np.testing.assert_allclose(diags[1], n1)
