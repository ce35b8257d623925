"""Spans around the package's public functions, recorded from outside.

Each listed function is replaced at its module attribute by a wrapper
that appends a span (name, start, end, parent span, op id) to an
in-memory list.  Calls inside the package resolve these names through
the module globals or through `module.function`, so nested calls are
seen too.  Self time is a span's duration minus that of its child
spans.  Nothing in the package itself is changed.
"""

import functools
import importlib
import json
import time

# layer -> (module, traced public functions)
LAYERS = {
    "crystal": ("tweezergate.crystal",
                ("normal_modes", "drive_frequency_correction")),
    "hilbert": ("tweezergate.hilbert", ("embed",)),
    "drive": ("tweezergate.drive",
              ("envelope", "resolve_drive_frequency")),
    "exact": ("tweezergate._exact",
              ("setup_from_config", "static_heisenberg_map",
               "config_trajectory", "config_generators", "double_moment",
               "gaussian_wmat", "dense_wmat", "column_wmat", "ode_wmat")),
    "evolve": ("tweezergate.evolve", ("run_gate", "hamiltonian_terms")),
    "metric": ("tweezergate.metric",
               ("reconstruct_channel", "ideal_gate", "process_fidelity",
                "local_invariants", "fidelity_report")),
    "calibrate": ("tweezergate.calibrate",
                  ("run_sweep", "four_ion_table",
                   "corrected_drive_frequency")),
    "cli": ("tweezergate.cli", ("main",)),
}


def traced_names():
    return [f"{layer}.{fn}" for layer, (_, fns) in LAYERS.items()
            for fn in fns]


class Tap:
    """Keeps the last return value of one module function."""

    def __init__(self, module_name: str, fn_name: str):
        self._mod = importlib.import_module(module_name)
        self._name = fn_name
        self._orig = getattr(self._mod, fn_name)
        self.last = None

        @functools.wraps(self._orig)
        def tapped(*args, **kwargs):
            self.last = self._orig(*args, **kwargs)
            return self.last

        setattr(self._mod, fn_name, tapped)

    def close(self):
        setattr(self._mod, self._name, self._orig)


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.op_id = 0
        self.active = False  # spans are kept only while an op runs
        self._stack = []
        self._saved = []

    def __enter__(self):
        for layer, (module_name, fns) in LAYERS.items():
            mod = importlib.import_module(module_name)
            for fn in fns:
                orig = getattr(mod, fn)
                self._saved.append((mod, fn, orig))
                setattr(mod, fn, self._wrap(f"{layer}.{fn}", orig))
        return self

    def __exit__(self, *exc):
        for mod, fn, orig in reversed(self._saved):
            setattr(mod, fn, orig)
        self._saved.clear()
        return False

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    self.op_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def self_times(self) -> dict:
        """name -> (calls, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {name: [0, 0.0] for name in traced_names()}
        for (name, t0, t1, _, _), c in zip(self.spans, child):
            out[name][0] += 1
            out[name][1] += (t1 - t0) - c
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path: str):
        names = traced_names()
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "op"],
                "names": names,
                "spans": [[index[n], t0, t1, p, op]
                          for n, t0, t1, p, op in self.spans],
            }, fh, separators=(",", ":"))
            fh.write("\n")
