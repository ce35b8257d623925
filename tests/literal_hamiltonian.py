"""The literal interaction-picture Hamiltonian H(t) on the composite
(pair qubits) x (retained modes) space, built term by term from the
embedded ladder operators.

This is the reference the compiled per-configuration Hamiltonian
(evolve.hamiltonian_terms) and the ODE backend's field-free propagator
are checked against; the package itself never materializes it.
"""
import numpy as np
import scipy.sparse as sp

from oracles import ladder_operators
from tweezergate import crystal, hilbert


def _mode_space(space: hilbert.SpaceSpec) -> hilbert.SpaceSpec:
    return hilbert.SpaceSpec(0, space.mode_cutoffs)


def _mode_ladders(space: hilbert.SpaceSpec):
    msp = _mode_space(space)
    ladders = []
    for m, cut in enumerate(space.mode_cutoffs):
        a, ad = ladder_operators(cut)
        ladders.append((hilbert.embed(a, ("mode", m), msp),
                        hilbert.embed(ad, ("mode", m), msp)))
    return ladders


def tweezer_hamiltonian(modes: crystal.CrystalModes, pair, tweezer_frequency,
                        space: hilbert.SpaceSpec):
    """Interaction-picture spin-dependent tweezer coupling as a factory t ->
    sparse operator on the composite (pair qubits) x (retained modes) space.

    Implements, per addressed ion, sigma_z times
    sum_mn w_tw^2 b_m b_n / (4 sqrt(w_m w_n)) x_m(t) x_n(t) with
    x_m(t) = a_m e^{-i w_m t} + h.c.; cross-mode (m != n) terms included.
    Mode 0 of the space corresponds to row 0 of modes, and so on.
    """
    n_modes = modes.vectors.shape[0]
    if space.n_modes != n_modes:
        raise ValueError("space must carry one mode per retained crystal "
                         "mode")
    if space.n_qubits != 2:
        raise ValueError("composite space must hold the two addressed qubits")
    i, j = pair
    if not (0 <= i < modes.n_ions and 0 <= j < modes.n_ions and i != j):
        raise ValueError("pair index out of range for crystal")
    freqs = modes.frequencies
    ladders = _mode_ladders(space)
    mode_dim = space.mode_dim
    # sigma_z on each addressed qubit, as diagonal 4x4 blocks
    z_i = sp.kron(sp.csr_matrix(hilbert.SIGMA_Z), sp.identity(2),
                  format="csr")
    z_j = sp.kron(sp.identity(2), sp.csr_matrix(hilbert.SIGMA_Z),
                  format="csr")
    coef = {}
    for ion, zop in ((i, z_i), (j, z_j)):
        b = modes.vectors[:, ion]
        k = tweezer_frequency ** 2 * np.outer(b, b)
        coef[ion] = k / (4.0 * np.sqrt(np.outer(freqs, freqs)))

    def factory(t: float) -> sp.csr_matrix:
        xs = [a * np.exp(-1j * w * t) + ad * np.exp(1j * w * t)
              for (a, ad), w in zip(ladders, freqs)]
        h = sp.csr_matrix((4 * mode_dim, 4 * mode_dim), dtype=complex)
        for ion, zop in ((i, z_i), (j, z_j)):
            q = sp.csr_matrix((mode_dim, mode_dim), dtype=complex)
            for m in range(n_modes):
                for n in range(n_modes):
                    q = q + coef[ion][m, n] * (xs[m] @ xs[n])
            h = h + sp.kron(zop, q, format="csr")
        return h.tocsr()

    return factory


def field_hamiltonian(gamma: float, drive_frequency: float,
                      space: hilbert.SpaceSpec, com_frequency: float):
    """Interaction-picture homogeneous-field coupling as a factory t ->
    sparse operator: 2 gamma cos(mu t) (a_com e^{-i w_com t} + h.c.),
    identity on qubits and on every non-COM mode. The COM normal coordinate
    is mode 0 of the space."""
    if space.n_modes < 1:
        raise ValueError("space carries no COM mode")
    a, ad = ladder_operators(space.mode_cutoffs[0])
    msp = _mode_space(space)
    a_full = hilbert.embed(a, ("mode", 0), msp)
    ad_full = hilbert.embed(ad, ("mode", 0), msp)
    iq = sp.identity(space.qubit_dim, format="csr")

    def factory(t: float) -> sp.csr_matrix:
        amp = 2.0 * gamma * np.cos(drive_frequency * t)
        x = a_full * np.exp(-1j * com_frequency * t) + \
            ad_full * np.exp(1j * com_frequency * t)
        return sp.kron(iq, amp * x, format="csr")

    return factory
