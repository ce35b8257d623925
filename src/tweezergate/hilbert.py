"""Composite qubit (x) multimode Fock spaces.

Basis ordering: qubit factors first (qubit 0 most significant, so two-qubit
basis states run |00>, |01>, |10>, |11>), then modes in listed order with
lexicographic occupations. sigma_z|1> = +|1>.

Only the addressed qubit pair lives in the space; spectator qubits evolve
trivially under the tweezer/field Hamiltonian and factor out exactly.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np


@dataclasses.dataclass(frozen=True)
class SpaceSpec:
    """Composite space layout: qubit count and per-mode Fock truncations.

    mode_cutoffs holds n_max per mode; each mode contributes n_max + 1
    basis states.
    """

    n_qubits: int
    mode_cutoffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "mode_cutoffs", tuple(self.mode_cutoffs))
        if self.n_qubits < 0:
            raise ValueError("n_qubits must be >= 0")
        if any(c < 1 for c in self.mode_cutoffs):
            raise ValueError("every mode cutoff must be >= 1")

    @property
    def n_modes(self) -> int:
        return len(self.mode_cutoffs)

    @property
    def mode_dims(self) -> tuple:
        return tuple(c + 1 for c in self.mode_cutoffs)

    @property
    def qubit_dim(self) -> int:
        return 2 ** self.n_qubits

    @property
    def mode_dim(self) -> int:
        return int(np.prod(self.mode_dims)) if self.mode_cutoffs else 1

    @property
    def dim(self) -> int:
        return self.qubit_dim * self.mode_dim

    def basis_index(self, qubits: str, occupations=()) -> int:
        """Flat index of |qubits> (x) |n_0, n_1, ...>."""
        if len(qubits) != self.n_qubits:
            raise ValueError("qubit label length mismatch")
        iq = int(qubits, 2) if qubits else 0
        im = 0
        occ = tuple(occupations)
        if len(occ) != self.n_modes:
            raise ValueError("occupation list length mismatch")
        for n, d in zip(occ, self.mode_dims):
            if not 0 <= n < d:
                raise ValueError("occupation beyond cutoff")
            im = im * d + n
        return iq * self.mode_dim + im


@dataclasses.dataclass(frozen=True)
class ThermalEnsemble:
    """Independent thermal occupation per mode, truncated and renormalized.

    mode_weights(m) gives the occupation probabilities of mode m;
    weights() their Kronecker product, the probability vector over
    retained Fock product states in lexicographic order (prod_m d_m
    entries, for the ode backend and the dense oracles); tail_weight() the
    geometric-series mass lost to the truncation before renormalization.
    """

    nbar: tuple
    cutoffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "nbar", tuple(float(n) for n in self.nbar))
        object.__setattr__(self, "cutoffs", tuple(self.cutoffs))
        if len(self.nbar) != len(self.cutoffs):
            raise ValueError("nbar and cutoffs length mismatch")
        if any(n < 0 for n in self.nbar):
            raise ValueError("nbar must be >= 0")

    def mode_weights(self, m: int) -> np.ndarray:
        return thermal_weights(self.nbar[m], self.cutoffs[m])

    def weights(self) -> np.ndarray:
        w = np.ones(1)
        for m in range(len(self.nbar)):
            w = np.kron(w, self.mode_weights(m))
        return w

    def tail_weight(self) -> float:
        kept = 1.0
        for n, c in zip(self.nbar, self.cutoffs):
            if n > 0:
                kept *= 1.0 - (n / (n + 1.0)) ** (c + 1)
        return 1.0 - kept


def thermal_weights(nbar: float, cutoff: int) -> np.ndarray:
    """Geometric occupation probabilities renormalized over 0..cutoff."""
    if nbar < 0:
        raise ValueError("nbar must be >= 0")
    if nbar == 0:
        p = np.zeros(cutoff + 1)
        p[0] = 1.0
        return p
    n = np.arange(cutoff + 1)
    p = (nbar / (nbar + 1.0)) ** n / (nbar + 1.0)
    return p / p.sum()


def matched_temperature_nbar(nbar_ref: float, frequency_ratio: float) -> float:
    """Occupation of a mode at frequency_ratio times the reference mode,
    at the temperature that gives the reference mode nbar_ref."""
    if nbar_ref == 0:
        return 0.0
    beta = math.log(1.0 + 1.0 / nbar_ref)
    try:
        return 1.0 / (math.expm1(beta * frequency_ratio))
    except OverflowError:
        # occupation ~ exp(-beta ratio), below the smallest normal float
        return 0.0


def equal_temperature_ensemble(nbar_com: float, frequencies,
                               cutoffs) -> ThermalEnsemble:
    """ThermalEnsemble with all modes at the temperature fixed by the COM
    occupation nbar_com; frequencies in any common unit, COM first."""
    freqs = np.asarray(frequencies, float)
    nb = [nbar_com] + [matched_temperature_nbar(nbar_com, f / freqs[0])
                       for f in freqs[1:]]
    return ThermalEnsemble(tuple(nb), tuple(cutoffs))


def embed(op, target, space: SpaceSpec):
    """Lift a single-factor operator to the composite space.

    target: ("qubit", k) or ("mode", m). Sparse (CSR) output; identity on
    every other factor.
    """
    import scipy.sparse as sp  # only the tests' literal Hamiltonian embeds
    kind, idx = target
    op = sp.csr_matrix(op)
    mats = []
    if kind == "qubit":
        if not 0 <= idx < space.n_qubits:
            raise IndexError("qubit index out of range")
        if op.shape != (2, 2):
            raise ValueError("qubit operator must be 2x2")
        for k in range(space.n_qubits):
            mats.append(op if k == idx else sp.identity(2, format="csr"))
        for d in space.mode_dims:
            mats.append(sp.identity(d, format="csr"))
    elif kind == "mode":
        if not 0 <= idx < space.n_modes:
            raise IndexError("mode index out of range")
        if op.shape != (space.mode_dims[idx],) * 2:
            raise ValueError("mode operator dimension mismatch")
        mats.append(sp.identity(space.qubit_dim, format="csr"))
        for m, d in enumerate(space.mode_dims):
            mats.append(op if m == idx else sp.identity(d, format="csr"))
    else:
        raise ValueError("target kind must be 'qubit' or 'mode'")
    out = mats[0]
    for m in mats[1:]:
        out = sp.kron(out, m, format="csr")
    return out.tocsr()

