"""Gate quality metrics: channel reconstruction and fidelity.

The echoed gate acts on the two addressed qubits and only adds
configuration-dependent phases and displacements; the motion is traced
out after the sequence.  So the gate is diagonal in the qubit basis, and
its thermal channel is fixed by the 4x4 overlap matrix
W[c, c'] = <U_c'^dag U_c>_thermal that the backends in _exact compute.
Average process fidelity is the standard two-qubit formula
F = (sum_l tr[U sigma_l^dag U^dag E(sigma_l)] + d^2) / (d^2 (d + 1))
with d = 4, read off W.  The reference gate is built from the same
per-pulse dressed-mode phase accumulation the exact engine uses, with the
global phase removed.
"""

import cmath
import dataclasses
import math

import numpy as np

from . import _exact
from . import drive
from . import evolve
from . import hilbert

BACKENDS = ("gaussian", "fock", "column", "ode")
# backends that sum over the truncated Fock states, and the thermal weight
# they may lose beyond the cutoffs
TRUNCATED_BACKENDS = ("fock", "column", "ode")
TAIL_LIMIT = 1e-4


@dataclasses.dataclass(frozen=True)
class QuantumChannel:
    """Two-qubit channel of the qubit-diagonal gate: E(rho) = W * rho.

    overlaps is the read-only 4x4 matrix W[c, c'] = <U_c'^dag U_c> over
    the thermal ensemble (qubit configurations ordered 00, 01, 10, 11).
    The Choi matrix sum_cc' W[c, c'] |cc><c'c'| has the nonzero spectrum
    of W, so complete positivity is W >= 0; trace preservation is tr W = 4.
    """

    overlaps: np.ndarray

    def __post_init__(self):
        w = np.array(self.overlaps, dtype=complex)
        if w.shape != (4, 4):
            raise ValueError("overlaps must be 4x4")
        w.flags.writeable = False
        object.__setattr__(self, "overlaps", w)
        if np.max(np.abs(w - w.conj().T)) > 1e-6:
            raise ValueError("overlaps must be Hermitian")
        tr = complex(np.trace(w))
        if abs(tr - 4.0) > 1e-6:
            raise ValueError(f"overlaps have trace {tr:.8f}, "
                             "expected 4 (trace preservation)")
        lo = float(np.linalg.eigvalsh(w)[0])
        if lo < -1e-6:
            raise ValueError(f"channel is not completely positive: smallest "
                             f"eigenvalue of the overlaps {lo:.3e}")


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
    """Fidelity of one simulated gate against its reference, with a
    snapshot of every input parameter. conditional_phase is the
    overlap-pair estimate (conditional_phase_from_channel); g1 and g2 are
    the local invariants of the first-column gate (extract_diagonal_gate),
    whose phase differs from that estimate by about 1.6e-4 rad at fig2."""

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


def _wrap_angle(phi: float) -> float:
    """Wrap to (-pi, pi]."""
    out = math.fmod(phi + math.pi, 2.0 * math.pi)
    if out <= 0.0:
        out += 2.0 * math.pi
    return out - math.pi


def check_backend(backend: str, thermal: hilbert.ThermalEnsemble):
    """Raise ValueError for a backend outside BACKENDS, and for one of
    TRUNCATED_BACKENDS when the thermal weight beyond the cutoffs exceeds
    TAIL_LIMIT; no cutoff enters "gaussian"."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; "
                         f"choose from {BACKENDS}")
    tail = thermal.tail_weight()
    if backend in TRUNCATED_BACKENDS and tail > TAIL_LIMIT:
        raise ValueError(
            f"thermal ensemble loses weight {tail:.3e} to truncation at "
            f"mode_cutoffs {thermal.cutoffs} (limit {TAIL_LIMIT:.0e}); "
            "increase the mode cutoffs")


def _channel_setup(config: drive.GateConfig, thermal: hilbert.ThermalEnsemble,
                   space: hilbert.SpaceSpec, backend, tol):
    evolve._check_backend_tol(backend, tol)
    if space.n_qubits != 2:
        raise ValueError("channel reconstruction needs a two-qubit space")
    if tuple(thermal.cutoffs) != space.mode_cutoffs:
        raise ValueError("thermal ensemble cutoffs must match the space")
    check_backend(backend, thermal)
    modes = evolve.retained_modes(config, space)
    return _exact.setup_from_config(config, modes)


def reconstruct_channel(config: drive.GateConfig,
                        thermal: hilbert.ThermalEnsemble,
                        space: hilbert.SpaceSpec,
                        backend: str = "fock",
                        tol: float | None = None) -> QuantumChannel:
    """Thermal-averaged channel of the full echoed sequence.

    Backends agree on the physics and differ in method and cost: "fock"
    and "column" are one method, the truncated Fock-space channel composed
    from per-mode factors and summed against the per-mode thermal weights
    (_exact.column_wmat); "ode" integrates the driven pulses numerically;
    "gaussian" evaluates the closed displacement form (its thermal average
    is over the untruncated ensemble, so it differs from the Fock-space
    backends at the size of the truncated tail). The truncated backends
    raise when the thermal weight beyond the cutoffs exceeds TAIL_LIMIT
    (check_backend). tol is the "ode"
    integrator's (DOP853's per-step relative tolerance, default
    evolve._TOL_DEFAULT, atol 1e-12; not a bound on W); tol with another
    backend raises.
    """
    setup = _channel_setup(config, thermal, space, backend, tol)
    return _channel(setup, thermal, space, backend, tol)


def _channel(setup, thermal, space, backend, tol):
    if backend == "gaussian":
        w, _ = _exact.gaussian_wmat(setup, thermal.nbar)
    elif backend in ("fock", "column"):
        w = _exact.column_wmat(setup, space.mode_dims,
                               [thermal.mode_weights(m)
                                for m in range(space.n_modes)])
    else:  # "ode", the one other name check_backend lets through
        w, _ = _exact.ode_wmat(setup, space.mode_dims, thermal.weights(),
                               tol=tol)
    return QuantumChannel(w)


def ideal_gate(config: drive.GateConfig, modes) -> IdealGate:
    """Reference gate for a configuration: each driven pulse adds
    -gamma^2 tau / (mu - w~_com(c)) to configuration c's phase, with
    w~_com the tweezer-dressed COM branch seen during that pulse."""
    return _ideal_gate(_exact.setup_from_config(config, modes))


def _ideal_gate(setup) -> IdealGate:
    theta = _exact.ideal_phases(setup)
    return IdealGate(phases=theta - theta[0])


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
    u = np.asarray(gate, dtype=complex)
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
    """Average gate fidelity of a channel against a diagonal reference
    unitary U = diag(u): F = (u^dag W u / 4 + 1) / 5.  A reference with
    off-diagonal entries raises; it is never projected onto its diagonal."""
    u = ideal.matrix if isinstance(ideal, IdealGate) else np.asarray(
        ideal, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError("reference gate must be a 4x4 matrix")
    if np.max(np.abs(u @ u.conj().T - np.eye(4))) > 1e-8:
        raise ValueError("reference gate must be unitary")
    d = np.diag(u)
    if np.max(np.abs(u - np.diag(d))) > 1e-12:
        raise ValueError("reference gate must be diagonal in the qubit "
                         "basis")
    # an elementwise sum is more often exactly rounded than u* @ W @ u
    return float((np.sum(np.outer(d.conj(), d) * channel.overlaps).real
                  / 4.0 + 1.0) / 5.0)


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
                    tol: float | None = None) -> FidelityReport:
    """Reconstruct the channel, compare against the reference gate, and
    package the scores with a full parameter snapshot; all three read one
    SequenceSetup. tol as in reconstruct_channel."""
    setup = _channel_setup(config, thermal, space, backend, tol)
    channel = _channel(setup, thermal, space, backend, tol)
    ref = _ideal_gate(setup)
    fid = process_fidelity(channel, ref)
    phi = conditional_phase_from_channel(channel)
    g1, g2 = local_invariants(extract_diagonal_gate(channel))
    params = _parameter_snapshot(config, setup, thermal.nbar,
                                 space.mode_cutoffs, backend)
    params["reference_conditional_phase_rad"] = float(ref.conditional_phase)
    return FidelityReport(fidelity=fid, conditional_phase=phi,
                          g1=g1, g2=g2, parameters=params)
