"""Parameter design and reproduction drivers.

Two calibration sources set the drive field: the analytic coupling rule
gamma = |delta| sqrt(pi)/2 and the field of a target conditional phase,
which is closed form because that phase is exactly linear in E0^2.  The
two disagree at the documented operating point (by about a factor of
five in field), so the rule emits a consistency warning quoting both
numbers rather than silently preferring one.

Sweeps and the four-ion study share one point runner: one fidelity
report per (spec, value) task, deterministically and with per-point
error carrying, optionally in a process pool, and with finished points
cached on disk keyed by a canonical parameter hash so interrupted runs
resume.  The four-ion study reproduces the per-pair corrected drive
frequencies and infidelities of the full-crystal gate.
"""

import atexit
import concurrent.futures
import dataclasses
import hashlib
import json
import math
import os
import warnings

import numpy as np

from . import crystal
from . import drive
from . import hilbert
from . import metric

AMU_KG = 1.66053906660e-27
YB171_MASS_KG = 171 * AMU_KG
DEFAULT_COM_FREQUENCY = 2.0 * math.pi * 1.0e6

SWEEP_AXES = ("tweezer_frequency", "detuning", "nbar", "field_amplitude")
FIELD_RULES = ("pi_over_4_coupling", "target_conditional_phase")

PAIR_LABELS = ((1, 2), (1, 3), (1, 4), (2, 3))


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """One-dimensional parameter sweep around a fixed gate configuration.

    axis names the swept GateConfig field ("nbar" sweeps the COM thermal
    occupation instead, with the other retained modes following at equal
    temperature).  targets annotate fidelity thresholds for downstream
    summaries; they do not affect the computation.
    """

    axis: str
    grid: tuple
    config: drive.GateConfig
    cutoffs: tuple
    nbar_com: float = 0.0
    backend: str = "gaussian"
    targets: tuple = (0.99, 0.999)

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}")
        grid = tuple(float(v) for v in self.grid)
        if not grid:
            raise ValueError("grid must not be empty")
        d = np.diff(grid)
        if len(grid) > 1 and not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("grid must be strictly monotone")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "cutoffs", tuple(self.cutoffs))
        object.__setattr__(self, "targets",
                           tuple(float(t) for t in self.targets))
        if self.nbar_com < 0:
            raise ValueError("nbar_com must be >= 0")
        if any(not 0.0 < t <= 1.0 for t in self.targets):
            raise ValueError("targets must lie in (0, 1]")


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """Result at one grid value: a report, or the error that point hit."""

    axis_value: float
    report: metric.FidelityReport | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.report is not None


@dataclasses.dataclass(frozen=True)
class PairStudy:
    """One addressed pair of the four-ion study.

    pair uses 1-based chain positions as reported; drive_frequency is the
    corrected drive (angular rad/s) and offset_hz = (w_com - mu)/2pi.
    """

    pair: tuple
    drive_frequency: float
    offset_hz: float
    fidelity: float
    report: metric.FidelityReport

    @property
    def infidelity_x1e4(self) -> float:
        return (1.0 - self.fidelity) * 1.0e4


def _raw_conditional_phase(field_amplitude, delta, trap, tweezer_frequency,
                           pair, n_modes) -> float:
    """Unwrapped conditional phase of the reference gate; exactly linear
    in the squared field amplitude."""
    cfg = drive.GateConfig(trap=trap, pair=pair,
                           tweezer_frequency=tweezer_frequency,
                           field_amplitude=field_amplitude, detuning=delta)
    modes = crystal.normal_modes(trap).restrict(range(n_modes))
    ph = metric.ideal_gate(cfg, modes).phases
    return float(ph[0] + ph[3] - ph[1] - ph[2])


def field_for_gate_condition(delta: float, trap: crystal.TrapSpec,
                             rule: str, phi=None,
                             tweezer_frequency: float = 0.0,
                             pair=(0, 1), n_modes: int = 1) -> float:
    """Field amplitude E0 for a gate condition.

    rule "pi_over_4_coupling" applies gamma = |delta| sqrt(pi)/2 and
    warns about its inconsistency with the conditional-phase target it
    nominally serves.  rule "target_conditional_phase" returns the field
    whose reference-gate conditional phase is phi: that phase is exactly
    linear in E0^2, so one evaluation at a reference field fixes it.
    """
    if delta == 0:
        raise ValueError("delta must be nonzero")
    if rule == "pi_over_4_coupling":
        gamma = abs(delta) * math.sqrt(math.pi) / 2.0
        e0 = gamma / drive.gamma_from_field(1.0, trap)
        msg = (f"gamma = |delta| sqrt(pi)/2 gives E0 = {e0:.4e} V/m")
        if tweezer_frequency > 0:
            phi_rule = _raw_conditional_phase(e0, delta, trap,
                                              tweezer_frequency, pair,
                                              n_modes)
            # the phase is exactly proportional to E0^2
            e0_phase = e0 * math.sqrt(math.pi / 4.0 / abs(phi_rule))
            msg += (f", which drives the conditional phase to "
                    f"{phi_rule:.3f} rad; a pi/4 conditional phase at "
                    f"these parameters needs E0 = {e0_phase:.4e} V/m "
                    f"instead")
        warnings.warn(msg + "; the two calibrations are inconsistent",
                      UserWarning, stacklevel=2)
        return e0
    if rule == "target_conditional_phase":
        if phi is None:
            raise ValueError("target_conditional_phase needs phi")
        if phi == 0.0:
            return 0.0
        e_ref = 1.0e-3
        phi_ref = _raw_conditional_phase(e_ref, delta, trap,
                                         tweezer_frequency, pair, n_modes)
        if phi_ref == 0.0 or (phi_ref > 0) != (phi > 0):
            raise ValueError(
                f"conditional phase target {phi:.4f} rad is not bracketed: "
                f"phase is 0 at E0 = 0 and {phi_ref:.4e} at E0 = "
                f"{e_ref:.1e} V/m (same-sign target required)")
        return e_ref * math.sqrt(phi / phi_ref)
    raise ValueError(f"unknown rule {rule!r}; choose from {FIELD_RULES}")


def corrected_drive_frequency(trap: crystal.TrapSpec, pair,
                              tweezer_frequency: float,
                              delta: float) -> float:
    """Drive frequency mu = (exact mixed-configuration COM branch over the
    full crystal) + delta for an addressed pair (0-based indices)."""
    return crystal.resonant_drive_frequency(
        crystal.normal_modes(trap), tweezer_frequency, pair, delta)


# Version of the numbers behind a cached report; part of the cache key, so
# raise it whenever a change moves any backend's results. 2: the ODE
# backend integrates the four qubit configurations as one stacked system.
# 3: the column backend composes per-mode factors. 4: per-dressed-mode phase.
# 5: fock runs on the per-mode factors; the ODE reference comes from the
# compiled Hamiltonian. 6: the fidelity is read from the overlap matrix W.
ENGINE_VERSION = 6


def config_hash(config: drive.GateConfig, nbar, cutoffs,
                backend: str) -> str:
    """Canonical hash of one fidelity evaluation's full parameter set and
    the engine version."""
    mu = config.drive_frequency
    payload = dict(
        config.record(),
        engine_version=ENGINE_VERSION,
        charge_c=float(config.trap.charge),
        drive_frequency_rad_s=None if mu is None else float(mu),
        nbar=[float(n) for n in nbar],
        cutoffs=[int(c) for c in cutoffs],
        backend=backend)
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _point_inputs(spec: SweepSpec, value: float):
    """Resolved (config, thermal ensemble) for one grid value."""
    cfg = spec.config
    nbar_com = spec.nbar_com
    if spec.axis == "nbar":
        nbar_com = value
    else:
        cfg = dataclasses.replace(cfg, **{spec.axis: value})
    thermal = hilbert.equal_temperature_ensemble(
        nbar_com, crystal.normal_modes(cfg.trap).frequencies[
            :len(spec.cutoffs)], spec.cutoffs)
    return cfg, thermal


def _evaluate_point(spec: SweepSpec, value: float) -> dict:
    cfg, thermal = _point_inputs(spec, value)
    space = hilbert.SpaceSpec(2, spec.cutoffs)
    rep = metric.fidelity_report(cfg, thermal, space, backend=spec.backend)
    return rep.as_dict()


def _point_worker(args):
    idx, spec, value = args
    try:
        return idx, _evaluate_point(spec, value), None
    except Exception as exc:
        return idx, None, f"{type(exc).__name__}: {exc}"


def _read_cached(path: str):
    """Report stored at path, or None when the entry is missing or
    unreadable (a truncated or foreign file is a cache miss)."""
    try:
        with open(path) as fh:
            return metric.FidelityReport.from_dict(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None


def _write_cached(path: str, payload: dict):
    """Store one finished point atomically: a temporary file in the cache
    directory, renamed over the entry, so readers never see a partial one."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "w")
    try:
        with fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def check_jobs(jobs: int):
    """Raise ValueError unless at least one worker is asked for."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")


_pool = None  # (workers, executor); starting one costs more than a point


def _shared_pool(workers: int):
    """The process's pool, rebuilt for another worker count or a dead worker."""
    global _pool
    if _pool is None or _pool[0] != workers or _pool[1]._broken:
        _drop_pool()
        _pool = (workers, concurrent.futures.ProcessPoolExecutor(workers))
    return _pool[1]


@atexit.register
def _drop_pool():
    """Shut the pool down: cancel what has not started, wait for the rest."""
    global _pool
    if _pool is not None:
        _pool[1].shutdown(cancel_futures=True)
        _pool = None


def _run_points(tasks, jobs: int, cache_dir) -> list:
    """One SweepPoint per (spec, value) task, in task order, as run_sweep
    describes; the shared pool has min(jobs, uncached points) workers."""
    check_jobs(jobs)
    points = [None] * len(tasks)
    paths = {}  # uncached task index -> cache path, or None without a cache
    for idx, (spec, value) in enumerate(tasks):
        path = None
        if cache_dir is not None:
            try:
                cfg, thermal = _point_inputs(spec, value)
                key = config_hash(cfg, thermal.nbar, spec.cutoffs,
                                  spec.backend)
            except Exception as exc:
                points[idx] = SweepPoint(axis_value=value,
                                         error=f"{type(exc).__name__}: {exc}")
                continue
            path = os.path.join(cache_dir, key + ".json")
            report = _read_cached(path)
            if report is not None:
                points[idx] = SweepPoint(axis_value=value, report=report)
                continue
        paths[idx] = path

    def finish(idx, payload, err):
        value = tasks[idx][1]
        if payload is None:
            points[idx] = SweepPoint(axis_value=value, error=err)
            return
        if paths[idx] is not None:
            _write_cached(paths[idx], payload)
        points[idx] = SweepPoint(
            axis_value=value, report=metric.FidelityReport.from_dict(payload))

    pending = [(idx, *tasks[idx]) for idx in paths]
    if jobs > 1 and len(pending) > 1:
        pool = _shared_pool(min(jobs, len(pending)))
        try:
            futures = {pool.submit(_point_worker, args): args[0]
                       for args in pending}
            for fut in concurrent.futures.as_completed(futures):
                try:
                    result = fut.result()
                except concurrent.futures.BrokenExecutor as exc:
                    result = (futures[fut], None,
                              f"{type(exc).__name__}: {exc}")
                finish(*result)
        except BaseException:  # no point of this call runs in the next
            _drop_pool()
            raise
    else:
        for args in pending:
            finish(*_point_worker(args))
    return points


def run_sweep(spec: SweepSpec, jobs: int = 1, cache_dir=None) -> list:
    """Evaluate the sweep, one SweepPoint per grid value, in grid order.

    Points run independently (in a process pool when jobs > 1); a failing
    point carries its error without aborting the rest, and so does every
    point left without a result when a worker process dies.  With cache_dir
    set, each point is stored as JSON keyed by its parameter hash as soon
    as it finishes, and later runs reuse it, so interrupted sweeps resume.
    """
    return _run_points([(spec, value) for value in spec.grid], jobs,
                       cache_dir)


def threshold_crossings(points, targets):
    """First axis value at which the fidelity reaches each target and
    stays measurable: the smallest grid value with F >= target."""
    return {t: next((p.axis_value for p in points
                     if p.ok and p.report.fidelity >= t), None)
            for t in targets}


def default_four_ion_trap() -> crystal.TrapSpec:
    return crystal.TrapSpec(4, YB171_MASS_KG, DEFAULT_COM_FREQUENCY)


def check_pair_study(config: drive.GateConfig, cutoffs):
    """Raise ValueError unless config's trap has four ions, cutoffs retain
    all modes, and every config field with a default keeps it: the study
    runs the default sequence at each pair's corrected drive frequency."""
    if config.trap.n_ions != 4:
        raise ValueError("the pair study expects a four-ion crystal")
    if len(cutoffs) != config.trap.n_ions:
        raise ValueError("the pair study retains all four axial modes")
    # a boundary flips a multiset of qubits, listed in any order
    config = dataclasses.replace(config, echo_schedule=[
        sorted(b) for b in config.echo_schedule])
    changed = [f.name for f in dataclasses.fields(config)
               if f.default is not dataclasses.MISSING
               and getattr(config, f.name) != f.default]
    if changed:
        raise ValueError(
            f"the pair study runs the default sequence at each pair's "
            f"corrected drive frequency; it cannot apply {', '.join(changed)}")


def four_ion_table(tweezer_frequency: float, delta_base: float,
                   trap=None, field_amplitude: float = 2.69e-4,
                   cutoffs=(14, 6, 6, 6), nbar_com: float = 0.0,
                   backend: str = "column", jobs: int = 1,
                   cache_dir=None) -> list:
    """Gate study for every addressed pair of a four-ion crystal.

    Each pair gets its corrected drive frequency from the full-crystal
    mixed-configuration branch, then runs the gate with the full tweezer
    coupling and all retained modes.  Pairs are labeled with 1-based
    chain positions, qubit 0 on the first listed ion.  The ordered mirror
    (n-1-i, n-1-j) of 0-based (i, j) gives the same row; (n-1-j, n-1-i),
    which moves qubit 0 to the other ion, does not.

    The pairs go through the sweeps' point runner: with jobs > 1 the
    uncached pairs share the process's pool of at most jobs workers, and
    cache_dir caches them as in run_sweep.  A pair whose evaluation
    raised, or whose worker process died, raises RuntimeError naming the
    pair.
    """
    if trap is None:
        trap = default_four_ion_trap()
    base = drive.GateConfig(trap=trap, pair=(0, 1),
                            tweezer_frequency=tweezer_frequency,
                            field_amplitude=field_amplitude,
                            detuning=delta_base)
    check_pair_study(base, cutoffs)
    specs = []
    for i, j in PAIR_LABELS:
        pair = (i - 1, j - 1)
        mu = corrected_drive_frequency(trap, pair, tweezer_frequency,
                                       delta_base)
        cfg = dataclasses.replace(base, pair=pair, drive_frequency=mu)
        specs.append(SweepSpec(axis="tweezer_frequency",
                               grid=(tweezer_frequency,), config=cfg,
                               cutoffs=cutoffs, nbar_com=nbar_com,
                               backend=backend))
    points = _run_points([(s, s.grid[0]) for s in specs], jobs, cache_dir)
    table = []
    for label, spec, point in zip(PAIR_LABELS, specs, points):
        if not point.ok:
            raise RuntimeError(f"pair {label} failed: {point.error}")
        mu = spec.config.drive_frequency
        table.append(PairStudy(
            pair=label, drive_frequency=mu,
            offset_hz=(trap.axial_frequency - mu) / (2.0 * math.pi),
            fidelity=point.report.fidelity, report=point.report))
    return table

