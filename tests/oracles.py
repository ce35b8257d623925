"""Literal constructions the package never needs but the tests check it
against: ladder operators and basis states on the composite space, the
axial Hessian, the perturbative tweezer-shifted spectrum, the sin^2 pulse
envelope, a plain DOP853 propagation of an explicit H(t), the two-qubit
Pauli basis, and the channel in its general Pauli-image form: the images
of a composite-space propagator by literal partial trace, the 16-term
fidelity sum over them and their Choi matrix.
"""
import math

import numpy as np
import scipy.sparse as sp

from tweezergate import evolve, hilbert, metric

_PAULI_ORDER = ("1", "x", "y", "z")
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
# sigma_z|1> = +|1> with basis order (|0>, |1>)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
_SIGMA_1 = (np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z)


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


def perturbative_mode_frequencies(modes, pert) -> np.ndarray:
    """Tweezer-shifted mode frequencies, ascending, keeping only the
    diagonal of the mode-basis coupling:
    w_m -> sqrt(w_m^2 + w_tw^2 (b_mi^2 s_i + b_mj^2 s_j))."""
    i, j = pert.pair
    si, sj = pert.spin_config
    w2 = modes.frequencies ** 2 + pert.tweezer_frequency ** 2 * (
        si * modes.vectors[:, i] ** 2 + sj * modes.vectors[:, j] ** 2)
    if np.min(w2) <= 0:
        m = int(np.argmin(w2))
        raise ValueError(
            "anti-trapped mode %d: squared frequency %.3e" % (m, w2[m]))
    return np.sort(np.sqrt(w2))


def ramp_envelope(t: float, tau: float, ramp_time: float) -> float:
    """sin^2 rise over ramp_time, flat top, mirrored fall, for a pulse
    spanning [0, tau]; 0 outside it."""
    edge = min(t, tau - t)  # time to the nearer pulse edge
    if edge < 0.0:
        return 0.0
    if ramp_time == 0.0:
        return 1.0
    return math.sin(0.5 * math.pi * min(edge / ramp_time, 1.0)) ** 2


def propagate(hamiltonian, state, t0, t1, tol=1e-9, max_step=np.inf):
    """Integrate i d|psi>/dt = H(t)|psi> forward from t0 to t1 with the
    package's DOP853 stepper.

    hamiltonian: callable t -> operator (sparse or dense array) acting on
    state vectors.
    """
    return evolve._integrate(lambda t: -1j * hamiltonian(t), state, t0, t1,
                             tol, max_step)[:, -1]


def propagator(hamiltonian, dim, t0, t1, tol=1e-9, max_step=np.inf):
    """Propagator matrix on a dim-dimensional space: the columns are
    propagate() of the basis states, integrated as one matrix-valued ODE
    so all columns share the adaptive time grid."""
    u = evolve._integrate(lambda t: -1j * hamiltonian(t), np.eye(dim), t0,
                          t1, tol, max_step)
    return u[:, -1].reshape(dim, dim)


def paulis16():
    """The 16 two-qubit Pauli operators in lexicographic order, with the
    package's sigma_z convention (SIGMA_Z)."""
    return np.array([np.kron(a, b) for a in _SIGMA_1 for b in _SIGMA_1])


def pauli_labels():
    return tuple(a + b for a in _PAULI_ORDER for b in _PAULI_ORDER)


def _partial_trace(u, thermal: hilbert.ThermalEnsemble,
                   space: hilbert.SpaceSpec) -> np.ndarray:
    """T[c, q, c', q'] = sum_n p_n tr_mot(U(|c><c'| kron |n><n|)U^dag)[q, q']
    of a composite-space propagator."""
    if space.n_qubits != 2:
        raise ValueError("channel reconstruction needs a two-qubit space")
    if tuple(thermal.cutoffs) != space.mode_cutoffs:
        raise ValueError("thermal ensemble cutoffs must match the space")
    u = np.asarray(u, dtype=complex)
    if u.shape != (space.dim, space.dim):
        raise ValueError("propagator does not match the space dimension")
    p = thermal.weights()
    v = u.reshape(4, space.mode_dim, 4, space.mode_dim)
    return np.einsum("qmcf,rmdf,f->cqdr", v, np.conj(v), p, optimize=True)


def propagator_images(u, thermal: hilbert.ThermalEnsemble,
                      space: hilbert.SpaceSpec) -> np.ndarray:
    """The 16 Pauli images E(sigma_l) = sum_n p_n tr_mot(U [sigma_l kron
    |n><n|] U^dag) of any composite-space propagator, by literal partial
    trace."""
    return np.einsum("lcd,cqdr->lqr", paulis16(),
                     _partial_trace(u, thermal, space))


def channel_from_propagator(u, thermal: hilbert.ThermalEnsemble,
                            space: hilbert.SpaceSpec
                            ) -> metric.QuantumChannel:
    """Channel of a qubit-diagonal composite-space propagator by literal
    partial trace: W[c, c'] = sum_n p_n tr_mot(U(|c><c'| kron |n><n|)
    U^dag)[c, c'].

    Independent of any structure in the blocks U_c; the reconstruction
    backends must reproduce it whenever U is the gate propagator.  A
    propagator that mixes qubit configurations raises, since its channel
    is not of the form W * rho (propagator_images covers that case).
    """
    t = _partial_trace(u, thermal, space)
    v = np.asarray(u).reshape(4, space.mode_dim, 4, space.mode_dim)
    if any(np.max(np.abs(v[c, :, cp])) > 1e-12
           for c in range(4) for cp in range(4) if c != cp):
        raise ValueError("propagator is not qubit-diagonal")
    return metric.QuantumChannel(
        [[t[c, c, cp, cp] for cp in range(4)] for c in range(4)])


def pauli_fidelity(images, u) -> float:
    """Average gate fidelity of the channel sigma_l -> images[l] against
    the unitary u, the 16-term sum
    F = (sum_l tr[U sigma_l^dag U^dag E(sigma_l)] + 16) / 80."""
    u = np.asarray(u, dtype=complex)
    tot = sum(np.trace(u @ sig.conj().T @ u.conj().T @ img)
              for sig, img in zip(paulis16(), images))
    return float((tot.real + 16.0) / 80.0)


def choi_matrix(images) -> np.ndarray:
    """16x16 Choi matrix sum_ij E(|i><j|) kron |i><j| of the channel
    sigma_l -> images[l]: positive semidefinite for a completely positive
    channel, rank one exactly when it is unitary on the qubits."""
    # E(|i><j|) = sum_l conj(sigma_l[i, j]) E(sigma_l) / 4 is the block at
    # rows 4a + i, columns 4b + j
    choi = np.einsum("lij,lab->aibj", np.conj(paulis16()), images)
    return choi.reshape(16, 16) / 4.0
