"""Command-line front end.

Subcommands emit plot-ready CSV and JSON files from a structured config
document (a preset name or a JSON file path).  Every physical quantity
in a config carries an explicit unit suffix; unknown keys are rejected.
Every output embeds the resolved configuration and its hash, and
re-running a command with the same config writes byte-identical files.

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

import argparse
import csv
import dataclasses
import functools
import hashlib
import importlib.resources
import json
import math
import os
import sys

import numpy as np

from . import calibrate
from . import crystal
from . import drive
from . import evolve
from . import hilbert
from . import metric

TWO_PI = 2.0 * math.pi

PRESETS = ("fig2", "fig3_delta1kHz", "fig3_delta2kHz", "fig3_twomode",
           "table1")

# swept config key -> (GateConfig axis, factor from config units)
SWEEP_AXES = {
    "tweezer_frequency_hz": ("tweezer_frequency", TWO_PI),
    "detuning_hz": ("detuning", TWO_PI),
    "nbar": ("nbar", 1.0),
    "field_amplitude_v_per_m": ("field_amplitude", 1.0),
}

# GateConfig's sequence defaults under its field names, as JSON values
_DEFAULTS = {
    "drive_frequency_hz": None,
    **json.loads(json.dumps({
        f.name: f.default for f in dataclasses.fields(drive.GateConfig)
        if f.name in ("pulse_count", "field_on_mask", "echo_schedule",
                      "ramp_fraction")})),
    "nbar_com": 0.0,
    "backend": "gaussian",
    "samples_per_pulse": 200,
    "sweep_axis": None,
    "sweep_grid": None,
    "targets": [0.99, 0.999],
    "out_dir": None,
}
_REQUIRED = ("n_ions", "ion_mass_amu", "axial_frequency_hz", "pair",
             "tweezer_frequency_hz", "field_amplitude_v_per_m",
             "detuning_hz", "mode_cutoffs")


class ConfigError(Exception):
    """Invalid configuration document or command arguments."""


def load_document(source: str) -> dict:
    """Read a config document from a preset name or a JSON file path."""
    if os.path.exists(source):
        path = source
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config {source}: invalid JSON: {exc}")
    elif source in PRESETS:
        res = importlib.resources.files("tweezergate").joinpath(
            "presets", source + ".json")
        doc = json.loads(res.read_text())
    else:
        raise ConfigError(f"config {source!r} is neither a file nor a "
                          f"preset; presets: {', '.join(PRESETS)}")
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return doc


def resolve_document(doc: dict) -> dict:
    """Fill defaults and reject unknown keys."""
    known = set(_DEFAULTS) | set(_REQUIRED)
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(k for k in _REQUIRED if k not in doc)
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")
    out = dict(_DEFAULTS)
    out.update(doc)
    return out


@dataclasses.dataclass
class RunInputs:
    """Validated objects a command needs, plus the resolved document;
    gate_config and sweep_spec raise the library's ValueError on bad input."""

    doc: dict
    trap: crystal.TrapSpec
    pair0: tuple | None
    space: hilbert.SpaceSpec
    thermal: hilbert.ThermalEnsemble
    backend: str

    def gate_config(self) -> drive.GateConfig:
        d = self.doc
        if self.pair0 is None:
            raise ConfigError("gate dynamics need at least two ions; "
                              "only the modes command accepts n_ions = 1")
        mu = d["drive_frequency_hz"]
        return drive.GateConfig(
            trap=self.trap, pair=self.pair0,
            tweezer_frequency=TWO_PI * d["tweezer_frequency_hz"],
            field_amplitude=d["field_amplitude_v_per_m"],
            detuning=TWO_PI * d["detuning_hz"],
            drive_frequency=None if mu is None else TWO_PI * mu,
            pulse_count=d["pulse_count"],
            field_on_mask=d["field_on_mask"],
            echo_schedule=d["echo_schedule"],
            ramp_fraction=d["ramp_fraction"])

    def sweep_spec(self) -> calibrate.SweepSpec:
        d = self.doc
        if d["sweep_axis"] is None or d["sweep_grid"] is None:
            raise ConfigError("sweep needs sweep_axis and sweep_grid")
        if d["sweep_axis"] not in SWEEP_AXES:
            raise ConfigError(f"sweep_axis must be one of "
                              f"{tuple(SWEEP_AXES)}")
        axis, factor = SWEEP_AXES[d["sweep_axis"]]
        return calibrate.SweepSpec(
            axis=axis, grid=tuple(factor * float(v) for v in d["sweep_grid"]),
            config=self.gate_config(), cutoffs=self.space.mode_cutoffs,
            nbar_com=d["nbar_com"], backend=self.backend,
            targets=tuple(d["targets"]))

    def config_hash(self) -> str:
        blob = json.dumps(self.doc, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


def build_inputs(doc: dict) -> RunInputs:
    """Construct and validate the physics objects for a document."""
    d = resolve_document(doc)
    try:
        n = int(d["n_ions"])
        trap = crystal.TrapSpec(n, d["ion_mass_amu"] * calibrate.AMU_KG,
                                TWO_PI * d["axial_frequency_hz"])
        pair = tuple(int(i) for i in d["pair"])
        if n == 1:
            pair0 = None  # modes-only crystal, no addressed pair
        else:
            if len(pair) != 2 or not all(1 <= i <= n for i in pair) \
                    or pair[0] == pair[1]:
                raise ValueError("pair must be two distinct 1-based ion "
                                 "positions")
            pair0 = (pair[0] - 1, pair[1] - 1)
        cutoffs = tuple(int(c) for c in d["mode_cutoffs"])
        if len(cutoffs) > n:
            raise ValueError(f"mode_cutoffs lists {len(cutoffs)} modes, but "
                             f"the {n}-ion crystal has {n}")
        space = hilbert.SpaceSpec(2, cutoffs)
        thermal = hilbert.equal_temperature_ensemble(
            float(d["nbar_com"]),
            crystal.normal_modes(trap).frequencies[:len(cutoffs)], cutoffs)
        backend = d["backend"]
        metric.check_backend(backend, thermal)
        evolve.check_samples_per_pulse(d["samples_per_pulse"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc))
    return RunInputs(doc=d, trap=trap, pair0=pair0, space=space,
                     thermal=thermal, backend=backend)


def _fmt(x) -> str:
    return f"{x:.12e}"


def _write_csv(path, header, rows, config_hash):
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_json(path, payload):
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_modes(inputs: RunInputs, out_dir: str, jobs: int,
              tol) -> list:
    modes = crystal.normal_modes(inputs.trap)
    # the positions are dimensionless (units of the Coulomb length)
    positions = crystal.coulomb_length(inputs.trap) * modes.positions
    h = inputs.config_hash()
    n = inputs.trap.n_ions
    pos_path = os.path.join(out_dir, "positions.csv")
    _write_csv(pos_path, ["ion", "position_m"],
               [[i + 1, _fmt(positions[i])] for i in range(n)], h)
    mode_rows = []
    com = modes.frequencies[0]
    for m in range(n):
        row = [m, _fmt(modes.frequencies[m] / TWO_PI),
               _fmt(modes.frequencies[m] / com)]
        row += [_fmt(modes.vectors[m, i]) for i in range(n)]
        mode_rows.append(row)
    modes_path = os.path.join(out_dir, "modes.csv")
    _write_csv(modes_path, ["mode", "frequency_hz", "freq_ratio_to_com"]
               + [f"b{i + 1}" for i in range(n)], mode_rows, h)
    return [pos_path, modes_path]


def cmd_phasespace(inputs: RunInputs, out_dir: str, jobs: int,
                   tol) -> list:
    cfg = inputs.gate_config()
    d = inputs.doc
    occupations = (0,) * inputs.space.n_modes
    results = {}
    for label in ("00", "01", "10", "11"):
        try:
            _, traj = evolve.run_gate(
                cfg, label, occupations, inputs.space,
                backend=inputs.backend,
                samples_per_pulse=d["samples_per_pulse"], tol=tol)
        except Exception as exc:
            raise RuntimeError(f"propagation failed for qubit state "
                               f"|{label}>: {exc}")
        results[label] = traj
    h = inputs.config_hash()
    files = {}
    maxima = {}
    finals = {}
    for label, traj in results.items():
        name = f"phasespace_{label}.csv"
        path = os.path.join(out_dir, name)
        traj.to_csv(path, comment=f"config_hash={h}")
        files[label] = name
        maxima[label] = float(np.max(np.abs(traj.alpha)))
        finals[label] = float(abs(traj.alpha[-1]))
    manifest = {
        "config_hash": h,
        "config": inputs.doc,
        "files": files,
        "max_abs_alpha": maxima,
        "final_abs_alpha": finals,
        "suppression_ratio_01_over_11":
            maxima["01"] / max(maxima["11"], 1e-300),
    }
    man_path = os.path.join(out_dir, "manifest.json")
    _write_json(man_path, manifest)
    return [man_path] + [os.path.join(out_dir, f)
                         for f in files.values()]


def cmd_gate(inputs: RunInputs, out_dir: str, jobs: int, tol) -> list:
    rep = metric.fidelity_report(
        inputs.gate_config(), inputs.thermal, inputs.space,
        backend=inputs.backend, tol=tol)
    payload = {
        "config_hash": inputs.config_hash(),
        "config": inputs.doc,
        "report": rep.as_dict(),
    }
    path = os.path.join(out_dir, "gate_report.json")
    _write_json(path, payload)
    return [path]


def cmd_sweep(inputs: RunInputs, out_dir: str, jobs: int, tol) -> list:
    spec = inputs.sweep_spec()
    points = calibrate.run_sweep(spec, jobs=jobs)
    axis_key = inputs.doc["sweep_axis"]
    _, factor = SWEEP_AXES[axis_key]
    h = inputs.config_hash()
    rows = []
    for p in points:
        val = _fmt(p.axis_value / factor)
        if p.ok:
            rows.append([val, _fmt(p.report.fidelity),
                         _fmt(p.report.conditional_phase),
                         _fmt((1.0 - p.report.fidelity) * 1e4), ""])
        else:
            rows.append([val, "", "", "", p.error])
    csv_path = os.path.join(out_dir, "sweep.csv")
    _write_csv(csv_path, [axis_key, "fidelity", "conditional_phase_rad",
                          "infidelity_x1e4", "error"], rows, h)
    crossings = calibrate.threshold_crossings(points, spec.targets)
    summary = {
        "config_hash": h,
        "config": inputs.doc,
        "axis": axis_key,
        "n_points": len(points),
        "n_errors": sum(0 if p.ok else 1 for p in points),
        "crossings": {str(t): (None if v is None else v / factor)
                      for t, v in crossings.items()},
    }
    sum_path = os.path.join(out_dir, "sweep_summary.json")
    _write_json(sum_path, summary)
    return [csv_path, sum_path]


def cmd_table4(inputs: RunInputs, out_dir: str, jobs: int, tol) -> list:
    cfg = inputs.gate_config()
    table = calibrate.four_ion_table(
        cfg.tweezer_frequency, cfg.detuning, trap=inputs.trap,
        field_amplitude=cfg.field_amplitude,
        cutoffs=inputs.space.mode_cutoffs, nbar_com=inputs.doc["nbar_com"],
        backend=inputs.backend, jobs=jobs)
    h = inputs.config_hash()
    rows = [[f"({st.pair[0]},{st.pair[1]})", _fmt(st.infidelity_x1e4),
             _fmt(st.offset_hz / 1e3)] for st in table]
    csv_path = os.path.join(out_dir, "table4.csv")
    _write_csv(csv_path, ["pair", "infidelity_x1e4",
                          "omega_com_minus_mu_khz"], rows, h)
    payload = {
        "config_hash": h,
        "config": inputs.doc,
        "rows": [{
            "pair": list(st.pair),
            "fidelity": st.fidelity,
            "infidelity_x1e4": st.infidelity_x1e4,
            "drive_frequency_rad_s": st.drive_frequency,
            "omega_com_minus_mu_khz": st.offset_hz / 1e3,
        } for st in table],
        "conventions": {
            "pair_indexing": "1-based chain positions, qubit 0 on the first "
                             "ion; (n-1-i, n-1-j) gives the same row, "
                             "(n-1-j, n-1-i) does not",
            "offset_definition": "(omega_com - mu) / 2pi in kHz, "
                                 "positive when the drive sits below "
                                 "the bare COM frequency",
            "drive_frequency": "mu = (exact mixed-spin-configuration "
                               "COM branch over all modes) + detuning; "
                               "detuning is negative",
            "conditional_phase": "arg(u00) + arg(u11) - arg(u01) "
                                 "- arg(u10)",
            "modes": "all four axial modes retained; thermal "
                     "occupation at equal temperature fixed by "
                     "nbar_com",
        },
    }
    json_path = os.path.join(out_dir, "table4.json")
    _write_json(json_path, payload)
    return [csv_path, json_path]


# name: (function, help line, the options it reads besides --config and
# --out-dir: --tol where it can run the ode backend, --jobs where it runs
# points in a process pool)
_COMMANDS = {
    "modes": (cmd_modes, "normal-mode table and equilibrium positions", ()),
    "phasespace": (cmd_phasespace, "COM phase-space trajectory per initial "
                   "qubit state", ("tol",)),
    "gate": (cmd_gate, "single gate fidelity report", ("tol",)),
    "sweep": (cmd_sweep, "fidelity sweep over one parameter axis",
              ("jobs",)),
    "table4": (cmd_table4, "four-ion study over all addressed pairs",
               ("jobs",)),
}
# the commands that read each option, as in "gate and phasespace"
_READERS = {option: " and ".join(sorted(
    name for name, (*_, reads) in _COMMANDS.items() if option in reads))
    for option in ("tol", "jobs")}


@functools.cache  # built once per process, on first use
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tweezergate",
        description="Tweezer-programmable phase gate simulations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", required=True,
                        help="preset name or JSON config path")
        sp.add_argument("--out-dir", default=None,
                        help="output directory (default: config out_dir "
                             "or the working directory)")
        sp.add_argument("--jobs", type=int, default=None,
                        help=f"{_READERS['jobs']} worker processes "
                             "(default 1)")
        sp.add_argument("--tol", type=float, default=None,
                        help="integration tolerance for the ode backend "
                             f"({_READERS['tol']} only)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage or the help
        return exc.code
    run, _, reads = _COMMANDS[args.command]
    try:
        doc = load_document(args.config)
        inputs = build_inputs(doc)
        out_dir = args.out_dir or inputs.doc["out_dir"] or "."
        try:  # the library's option rules, their messages naming the option
            if args.jobs is not None:
                calibrate.check_jobs(args.jobs)
                if "jobs" not in reads:
                    raise ConfigError(
                        f"--jobs applies only to {_READERS['jobs']}")
            if args.tol is not None:
                evolve._check_tol(args.tol)
                if "tol" not in reads:
                    raise ConfigError(
                        f"--tol applies only to {_READERS['tol']}")
                evolve._check_backend_tol(inputs.backend, args.tol)
        except ValueError as exc:
            raise ConfigError(f"--{exc}")
        if args.command == "phasespace" and inputs.backend not in (
                "gaussian", "ode"):
            raise ConfigError(f"phasespace has no {inputs.backend} "
                              "trajectory; use the gaussian or ode backend")
        # the library's physics checks of each command, before any file
        if args.command != "modes":
            config = inputs.gate_config()
        if args.command == "sweep":
            inputs.sweep_spec()
        if args.command == "table4":
            calibrate.check_pair_study(config, inputs.space.mode_cutoffs)
    except (ConfigError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(out_dir, exist_ok=True)
        files = run(inputs, out_dir, args.jobs or 1, args.tol)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for f in files:
        print(f"wrote {f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
