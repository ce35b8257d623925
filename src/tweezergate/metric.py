"""Gate quality metrics: channel reconstruction and fidelity.

The echoed gate acts on the two addressed qubits; the motion is traced
out after the sequence.  A channel is represented by the images of the
16 two-qubit Pauli operators (lexicographic {1, x, y, z} x {1, x, y, z},
first factor = first qubit of the pair), one read-only 16 x 4 x 4 stack.
For the qubit-diagonal evolution of this gate the stack is the Pauli
stack times a single 4x4 overlap matrix W[c, c'] = <U_c'^dag U_c>_thermal
elementwise, which the backends in _exact compute.

Average process fidelity follows the standard two-qubit formula
F = (sum_l tr[U sigma_l^dag U^dag E(sigma_l)] + d^2) / (d^2 (d + 1))
with d = 4, as one contraction of the Pauli stack with the image stack.
The reference gate is built from the same per-pulse dressed-mode phase
accumulation the exact engine uses, with the global phase removed.
"""

import cmath
import dataclasses
import json
import math

import numpy as np

from . import _exact
from . import drive
from . import evolve
from . import hilbert

_SIGMA_1 = (np.eye(2, dtype=complex), hilbert.SIGMA_X, hilbert.SIGMA_Y,
            hilbert.SIGMA_Z)
_PAULI_STACK = np.array([np.kron(a, b) for a in _SIGMA_1 for b in _SIGMA_1])
_PAULI_STACK.flags.writeable = False

BACKENDS = ("gaussian", "fock", "column", "ode")
# backends that sum over the truncated Fock states, and the thermal weight
# they may lose beyond the cutoffs
TRUNCATED_BACKENDS = ("fock", "column", "ode")
TAIL_LIMIT = 1e-4


@dataclasses.dataclass(frozen=True)
class QuantumChannel:
    """Two-qubit channel as Pauli images, with the thermal context that
    produced it.

    images is the read-only 16 x 4 x 4 stack of E(sigma_l); overlaps is
    the 4x4 matrix W[c, c'] = <U_c'^dag U_c> over the thermal ensemble
    (qubit configurations ordered 00, 01, 10, 11); for the qubit-diagonal
    gate evolution images[l] = sigma_l * W elementwise.
    """

    images: np.ndarray
    overlaps: np.ndarray
    nbar: tuple
    cutoffs: tuple
    config: drive.GateConfig
    backend: str

    def __post_init__(self):
        imgs = np.array(self.images, dtype=complex)
        if imgs.shape != (16, 4, 4):
            raise ValueError("a channel needs 16 images of shape 4x4")
        imgs.flags.writeable = False
        object.__setattr__(self, "images", imgs)
        object.__setattr__(self, "overlaps",
                           np.asarray(self.overlaps, dtype=complex))
        if self.overlaps.shape != (4, 4):
            raise ValueError("overlaps must be 4x4")
        object.__setattr__(self, "nbar", tuple(float(n) for n in self.nbar))
        object.__setattr__(self, "cutoffs", tuple(self.cutoffs))
        tr = complex(np.trace(imgs[0]))
        if abs(tr - 4.0) > 1e-6:
            raise ValueError(f"identity image has trace {tr:.8f}, "
                             "expected 4 (trace preservation)")
        lo = float(np.linalg.eigvalsh(self.choi_matrix())[0])
        if lo < -1e-6:
            raise ValueError(f"channel is not completely positive: smallest "
                             f"Choi eigenvalue {lo:.3e}")

    def choi_matrix(self) -> np.ndarray:
        """16x16 Choi matrix sum_ij E(|i><j|) kron |i><j|.

        Positive semidefinite within tolerance for a physical channel and
        rank one exactly when the channel is unitary on the qubits.
        """
        # E(|i><j|) = sum_l conj(sigma_l[i, j]) E(sigma_l) / 4 is the
        # block at rows 4a + i, columns 4b + j
        choi = np.einsum("lij,lab->aibj", np.conj(_PAULI_STACK), self.images)
        return choi.reshape(16, 16) / 4.0


@dataclasses.dataclass(frozen=True)
class IdealGate:
    """Reference two-qubit gate: diagonal in the qubit basis with the
    accumulated per-configuration phases, global phase removed
    (phases[0] = 0)."""

    phases: np.ndarray

    def __post_init__(self):
        ph = np.asarray(self.phases, dtype=float)
        if ph.shape != (4,):
            raise ValueError("phases must have one entry per qubit "
                             "configuration")
        if abs(ph[0]) > 1e-12:
            raise ValueError("global phase must be removed (phases[0] = 0)")
        object.__setattr__(self, "phases", ph)

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(np.exp(1j * self.phases))

    @property
    def conditional_phase(self) -> float:
        return _wrap_angle(self.phases[0] + self.phases[3]
                           - self.phases[1] - self.phases[2])


@dataclasses.dataclass(frozen=True)
class FidelityReport:
    """Fidelity of one simulated gate against its reference, with the
    conditional phase, the local invariants of the achieved gate, and a
    snapshot of every input parameter."""

    fidelity: float
    conditional_phase: float
    g1: complex
    g2: float
    parameters: dict

    def __post_init__(self):
        if not -1e-9 <= self.fidelity <= 1.0 + 1e-9:
            raise ValueError(f"fidelity {self.fidelity} outside [0, 1]")

    def as_dict(self) -> dict:
        out = {
            "fidelity": float(self.fidelity),
            "infidelity": float(1.0 - self.fidelity),
            "conditional_phase_rad": float(self.conditional_phase),
            "g1_re": float(self.g1.real),
            "g1_im": float(self.g1.imag),
            "g2": float(self.g2),
        }
        out.update(self.parameters)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "FidelityReport":
        """Inverse of as_dict."""
        p = dict(d)
        p.pop("infidelity", None)
        return cls(fidelity=p.pop("fidelity"),
                   conditional_phase=p.pop("conditional_phase_rad"),
                   g1=complex(p.pop("g1_re"), p.pop("g1_im")),
                   g2=p.pop("g2"), parameters=p)

    def to_json(self, path=None) -> str:
        text = json.dumps(self.as_dict(), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text


def _wrap_angle(phi: float) -> float:
    """Wrap to (-pi, pi]."""
    out = math.fmod(phi + math.pi, 2.0 * math.pi)
    if out <= 0.0:
        out += 2.0 * math.pi
    return out - math.pi


def _channel_setup(config: drive.GateConfig, thermal: hilbert.ThermalEnsemble,
                   space: hilbert.SpaceSpec, backend, max_step):
    if max_step is not None and backend != "ode":
        raise ValueError("max_step applies only to the ode backend")
    if space.n_qubits != 2:
        raise ValueError("channel reconstruction needs a two-qubit space")
    if tuple(thermal.cutoffs) != space.mode_cutoffs:
        raise ValueError("thermal ensemble cutoffs must match the space")
    tail = thermal.tail_weight()
    if backend in TRUNCATED_BACKENDS and tail > TAIL_LIMIT:
        raise ValueError(
            f"thermal ensemble loses weight {tail:.3e} to truncation "
            f"(limit {TAIL_LIMIT:.0e}); increase the mode cutoffs")
    modes = evolve.retained_modes(config, space)
    return _exact.setup_from_config(config, modes)


def reconstruct_channel(config: drive.GateConfig,
                        thermal: hilbert.ThermalEnsemble,
                        space: hilbert.SpaceSpec,
                        backend: str = "fock",
                        tol: float = 1e-9,
                        max_step=None) -> QuantumChannel:
    """Thermal-averaged channel of the full echoed sequence.

    Backends agree on the physics and differ in method and cost: "fock"
    and "column" are one method, the truncated Fock-space channel composed
    from per-mode factors and summed against the per-mode thermal weights
    (_exact.column_wmat); "ode" integrates the driven pulses numerically;
    "gaussian" evaluates the closed displacement form (its thermal average
    is over the untruncated ensemble, so it differs from the Fock-space
    backends at the size of the truncated tail). The truncated backends
    raise when the thermal weight beyond the cutoffs exceeds TAIL_LIMIT;
    no cutoff enters "gaussian", so it has no such limit. tol (DOP853's
    per-step relative tolerance, atol 1e-12; not a bound on W) and
    max_step are the "ode" integrator's; max_step with another backend
    raises.
    """
    setup = _channel_setup(config, thermal, space, backend, max_step)
    return _channel(setup, config, thermal, space, backend, tol, max_step)


def _channel(setup, config, thermal, space, backend, tol, max_step):
    if backend == "gaussian":
        w, _ = _exact.gaussian_wmat(setup, thermal.nbar)
    elif backend in ("fock", "column"):
        w = _exact.column_wmat(setup, space.mode_dims,
                               [thermal.mode_weights(m)
                                for m in range(space.n_modes)])
    elif backend == "ode":
        w, _ = _exact.ode_wmat(setup, space.mode_dims, thermal.weights(),
                               rtol=tol, max_step=max_step)
    else:
        raise ValueError(f"unknown backend {backend!r}; "
                         f"choose from {BACKENDS}")
    return QuantumChannel(images=_PAULI_STACK * w, overlaps=w,
                          nbar=thermal.nbar, cutoffs=space.mode_cutoffs,
                          config=config, backend=backend)


def ideal_gate(config: drive.GateConfig, modes) -> IdealGate:
    """Reference gate for a configuration: each driven pulse adds
    -gamma^2 tau / (mu - w~_com(c)) to configuration c's phase, with
    w~_com the tweezer-dressed COM branch seen during that pulse."""
    return _ideal_gate(_exact.setup_from_config(config, modes))


def _ideal_gate(setup) -> IdealGate:
    theta = _exact.ideal_phases(setup)
    return IdealGate(phases=theta - theta[0])


def conditional_phase(gate) -> float:
    """Conditional phase arg(u00) + arg(u11) - arg(u01) - arg(u10) of a
    diagonal two-qubit gate, wrapped to (-pi, pi].

    Accepts an IdealGate or a 4x4 matrix; rejects matrices with relative
    off-diagonal mass above 1e-6.
    """
    if isinstance(gate, IdealGate):
        return gate.conditional_phase
    u = np.asarray(gate, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError("gate must be a 4x4 matrix")
    d = np.diag(u)
    off = math.sqrt(max(np.sum(np.abs(u) ** 2) - np.sum(np.abs(d) ** 2), 0.0))
    norm = math.sqrt(float(np.sum(np.abs(u) ** 2)))
    if norm == 0.0 or off > 1e-6 * norm:
        raise ValueError("gate is not diagonal in the qubit basis; "
                         "conditional phase undefined")
    if np.any(np.abs(d) < 1e-12):
        raise ValueError("diagonal entry vanishes; conditional phase "
                         "undefined")
    return _wrap_angle(cmath.phase(d[0]) + cmath.phase(d[3])
                       - cmath.phase(d[1]) - cmath.phase(d[2]))


def conditional_phase_from_channel(channel: QuantumChannel) -> float:
    """Conditional phase of the achieved gate, read off the overlap
    phases (thermal averaging perturbs the phases only at second order
    in the residual displacements)."""
    w = channel.overlaps
    if min(abs(w[0, 1]), abs(w[3, 2])) < 1e-9:
        raise ValueError("overlaps too small to define relative phases")
    return _wrap_angle(cmath.phase(w[0, 1]) + cmath.phase(w[3, 2]))


def extract_diagonal_gate(channel: QuantumChannel) -> np.ndarray:
    """Best diagonal unitary describing the channel: relative phases of
    the overlap matrix first column, global phase removed."""
    col = channel.overlaps[:, 0]
    if np.any(np.abs(col) < 1e-9):
        raise ValueError("overlaps too small to define relative phases")
    d = col / np.abs(col)
    return np.diag(d / d[0])


_MAGIC = np.array([[1.0, 0.0, 0.0, 1.0j],
                   [0.0, 1.0j, 1.0, 0.0],
                   [0.0, 1.0j, -1.0, 0.0],
                   [1.0, 0.0, 0.0, -1.0j]], dtype=complex) / math.sqrt(2.0)


def local_invariants(gate):
    """Local invariants (G1 complex, G2 real) of a two-qubit unitary.

    Computed in the magic (Bell) basis: with m = (Q^dag U Q)^T (Q^dag U Q),
    G1 = tr(m)^2 / (16 det U) and G2 = (tr(m)^2 - tr(m^2)) / (4 det U).
    Invariant under single-qubit rotations on either side; the identity
    maps to (1, 3) and a controlled-Z to (0, 1).
    """
    u = gate.matrix if isinstance(gate, IdealGate) else np.asarray(
        gate, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError("gate must be a 4x4 matrix")
    if np.max(np.abs(u @ u.conj().T - np.eye(4))) > 1e-8:
        raise ValueError("gate must be unitary")
    ub = _MAGIC.conj().T @ u @ _MAGIC
    m = ub.T @ ub
    det = np.linalg.det(u)
    tr = np.trace(m)
    g1 = tr ** 2 / (16.0 * det)
    g2 = (tr ** 2 - np.trace(m @ m)) / (4.0 * det)
    if abs(g2.imag) > 1e-9:
        raise ValueError("G2 acquired an imaginary part; input is not "
                         "unitary enough")
    return complex(g1), float(g2.real)


def process_fidelity(channel: QuantumChannel, ideal) -> float:
    """Average gate fidelity of a channel against a reference unitary:
    F = (sum_l tr[U sigma_l^dag U^dag E(sigma_l)] + 16) / 80."""
    u = ideal.matrix if isinstance(ideal, IdealGate) else np.asarray(
        ideal, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError("reference gate must be a 4x4 matrix")
    if np.max(np.abs(u @ u.conj().T - np.eye(4))) > 1e-8:
        raise ValueError("reference gate must be unitary")
    tot = np.vdot(_PAULI_STACK, u.conj().T @ channel.images @ u)
    if abs(tot.imag) > 1e-8:
        raise ValueError("fidelity sum acquired an imaginary part; "
                         "channel images are inconsistent")
    return float((tot.real + 16.0) / 80.0)


def _parameter_snapshot(config: drive.GateConfig, setup, nbar, cutoffs,
                        backend: str) -> dict:
    return dict(
        config.record(),
        tweezer_ratio=float(config.tweezer_frequency
                            / config.trap.axial_frequency),
        drive_frequency_rad_s=float(setup.mu),
        gamma_rad_s=float(setup.gamma),
        pulse_duration_s=float(config.pulse_duration),
        nbar=[float(n) for n in nbar],
        mode_cutoffs=[int(c) for c in cutoffs],
        backend=backend)


def fidelity_report(config: drive.GateConfig,
                    thermal: hilbert.ThermalEnsemble,
                    space: hilbert.SpaceSpec,
                    backend: str = "fock",
                    tol: float = 1e-9,
                    max_step=None) -> FidelityReport:
    """Reconstruct the channel, compare against the reference gate, and
    package the scores with a full parameter snapshot; all three read one
    SequenceSetup. tol and max_step as in reconstruct_channel."""
    setup = _channel_setup(config, thermal, space, backend, max_step)
    channel = _channel(setup, config, thermal, space, backend, tol, max_step)
    ref = _ideal_gate(setup)
    fid = process_fidelity(channel, ref)
    phi = conditional_phase_from_channel(channel)
    g1, g2 = local_invariants(extract_diagonal_gate(channel))
    params = _parameter_snapshot(config, setup, thermal.nbar,
                                 space.mode_cutoffs, backend)
    params["reference_conditional_phase_rad"] = float(ref.conditional_phase)
    return FidelityReport(fidelity=fid, conditional_phase=phi,
                          g1=g1, g2=g2, parameters=params)
