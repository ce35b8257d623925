"""Literal constructions the package never needs but the tests check it
against: ladder operators and basis states on the composite space, the
axial Hessian, a plain DOP853 propagation of an explicit H(t), the
two-qubit Pauli basis, and the channel of a composite-space propagator
by literal partial trace.
"""
import numpy as np
import scipy.sparse as sp

from tweezergate import evolve, hilbert, metric

_PAULI_ORDER = ("1", "x", "y", "z")
_SIGMA_1 = (np.eye(2, dtype=complex), hilbert.SIGMA_X, hilbert.SIGMA_Y,
            hilbert.SIGMA_Z)


def ladder_operators(cutoff: int):
    """(lowering, raising) on a Fock space truncated at occupation cutoff.

    Matrices have dimension cutoff + 1 and <n-1|a|n> = sqrt(n).
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    a = sp.diags(np.sqrt(np.arange(1, cutoff + 1)), 1, format="csr")
    return a, a.conj().T.tocsr()


def mode_number_diagonals(space: hilbert.SpaceSpec) -> list:
    """Occupation of each mode along the composite diagonal."""
    im = np.arange(space.dim) % space.mode_dim
    out = []
    for m, d in enumerate(space.mode_dims):
        stride = int(np.prod(space.mode_dims[m + 1:]))
        out.append(((im // stride) % d).astype(float))
    return out


def qubit_basis_state(space: hilbert.SpaceSpec, qubits: str,
                      occupations=None) -> np.ndarray:
    """Unit vector |qubits> (x) |occupations> (occupations default to
    vacuum)."""
    if occupations is None:
        occupations = (0,) * space.n_modes
    psi = np.zeros(space.dim, dtype=complex)
    psi[space.basis_index(qubits, occupations)] = 1.0
    return psi


def axial_hessian(trap, positions) -> np.ndarray:
    """Axial Hessian about dimensionless positions, SI entries (rad/s)^2,
    written out pair by pair: A_ij = -2/|u_i - u_j|^3 off the diagonal and
    1 + sum_j 2/|u_i - u_j|^3 on it, times w_z^2."""
    u = np.asarray(positions, float)
    n = len(u)
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] = 1.0
        for j in range(n):
            if j == i:
                continue
            gap = abs(u[i] - u[j])
            if gap < 1e-12:
                raise ValueError("coincident ion positions: Coulomb "
                                 "singularity")
            a[i, j] = -2.0 / gap ** 3
            a[i, i] += 2.0 / gap ** 3
    return trap.axial_frequency ** 2 * a


def propagate(hamiltonian, state, t0, t1, tol=1e-9, max_step=None):
    """Integrate i d|psi>/dt = H(t)|psi> from t0 to t1 with the package's
    DOP853 stepper.

    hamiltonian: callable t -> operator (sparse or dense array) acting on
    state vectors. t1 < t0 integrates backwards.
    """
    return evolve._integrate(lambda t: -1j * hamiltonian(t), state, t0, t1,
                             tol, max_step)[:, -1]


def propagator(hamiltonian, dim, t0, t1, tol=1e-9, max_step=None):
    """Propagator matrix on a dim-dimensional space: the columns are
    propagate() of the basis states, integrated as one matrix-valued ODE
    so all columns share the adaptive time grid."""
    u = evolve._integrate(lambda t: -1j * hamiltonian(t), np.eye(dim), t0,
                          t1, tol, max_step)
    return u[:, -1].reshape(dim, dim)


def paulis16():
    """The 16 two-qubit Pauli operators in lexicographic order, with
    hilbert's sigma_z convention."""
    return np.array([np.kron(a, b) for a in _SIGMA_1 for b in _SIGMA_1])


def pauli_labels():
    return tuple(a + b for a in _PAULI_ORDER for b in _PAULI_ORDER)


def channel_from_propagator(u, config, thermal: hilbert.ThermalEnsemble,
                            space: hilbert.SpaceSpec
                            ) -> metric.QuantumChannel:
    """Channel by literal partial trace of a composite-space propagator:
    E(sigma_l) = sum_n p_n tr_mot(U [sigma_l kron |n><n|] U^dag).

    Independent of any structure in U; the reconstruction backends must
    reproduce it whenever U is the gate propagator.
    """
    if space.n_qubits != 2:
        raise ValueError("channel reconstruction needs a two-qubit space")
    if tuple(thermal.cutoffs) != space.mode_cutoffs:
        raise ValueError("thermal ensemble cutoffs must match the space")
    u = np.asarray(u, dtype=complex)
    if u.shape != (space.dim, space.dim):
        raise ValueError("propagator does not match the space dimension")
    p = thermal.weights()
    v = u.reshape(4, space.mode_dim, 4, space.mode_dim)
    # T[c, q, c', q'] = sum_n p_n tr_mot(U(|c><c'| kron |n><n|)U^dag)[q, q']
    t = np.einsum("qmcf,rmdf,f->cqdr", v, np.conj(v), p, optimize=True)
    images = np.einsum("lcd,cqdr->lqr", paulis16(), t)
    # restriction of T to qubit-diagonal blocks; equals W when U is
    # qubit-diagonal
    w = np.array([[t[c, c, cp, cp] for cp in range(4)] for c in range(4)])
    return metric.QuantumChannel(images=images, overlaps=w,
                                 nbar=thermal.nbar,
                                 cutoffs=space.mode_cutoffs, config=config,
                                 backend="propagator")
