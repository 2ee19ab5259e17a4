"""Outside-in layer spans: kerrqed's public functions wrapped at the module
where each is looked up, so no file of the package changes.

Spans are kept in memory as (name, start, end, parent index) and reduced to
per-layer numbers when a sweep ends.  A layer's self time is its span's
duration minus the durations of its direct child spans.  A wrapped function
that is never called, or no longer exists, reports 0 calls.
"""

from __future__ import annotations

import importlib
import statistics
import time
import warnings
from collections import Counter

# (module where the name is looked up, attribute, span name)
WRAPPED = (
    ("kerrqed.cli", "run", "cli.run"),
    ("kerrqed.cli", "mixed_model_shifts", "dispersive.point"),
    ("kerrqed.cli", "cpt_shifts", "dispersive.point"),
    ("kerrqed.cli", "integrate_trajectory", "readout.integrate_trajectory"),
    ("kerrqed.dispersive", "build_mixed_spin_boson", "models.build_mixed_spin_boson"),
    ("kerrqed.dispersive", "build_cpt_hamiltonian", "models.build_cpt_hamiltonian"),
    ("kerrqed.dispersive", "eigendecompose", "qspace.eigendecompose"),
    ("kerrqed.dispersive", "label_dressed_states", "dispersive.label_dressed_states"),
    ("kerrqed.dispersive", "extract_shifts", "dispersive.extract_shifts"),
    ("kerrqed.qspace", "require_hermitian", "qspace.require_hermitian"),
    ("kerrqed.readout", "calibrate_drive", "readout.calibrate_drive"),
    ("kerrqed.readout", "steady_state_amplitude", "readout.steady_state_amplitude"),
    ("kerrqed.readout", "snr_and_error", "readout.snr_and_error"),
    ("kerrqed.dephasing", "z_trajectory", "dephasing.z_trajectory"),
    ("kerrqed.dephasing", "gamma_ode", "dephasing.gamma_ode"),
)

# Per-layer metrics (name, unit) in the order BENCHMARK.json lists them.
# Counts come from the first traced sweep, whose inputs depend only on the
# seed, so they repeat exactly; times are medians over the traced sweeps.
COUNT_METRICS = (
    ("dispersive.label_dressed_states.calls", "count"),
    ("dispersive.label_dressed_states.assigned_ratio", "ratio"),
    ("dispersive.eigvec_use_ratio", "ratio"),
    ("dispersive.extract_shifts.calls", "count"),
    ("models.build_mixed_spin_boson.calls", "count"),
    ("models.build_cpt_hamiltonian.calls", "count"),
    ("qspace.eigendecompose.calls", "count"),
    ("qspace.eigendecompose.bytes_in", "B"),
    ("qspace.require_hermitian.calls", "count"),
    ("readout.calibrate_drive.calls", "count"),
    ("readout.steady_state_amplitude.calls", "count"),
    ("readout.steady_state_amplitude.per_calibration", "count"),
    ("readout.integrate_trajectory.rk4_steps", "count"),
    ("dephasing.z_trajectory.calls", "count"),
    ("dephasing.z_trajectory.rk4_steps", "count"),
    ("dephasing.gamma_ode.calls", "count"),
    ("dephasing.gamma_ode.converged_ratio", "ratio"),
)
TIME_METRICS = (
    ("dispersive.label_dressed_states.self_s", "s"),
    ("dispersive.extract_shifts.self_s", "s"),
    ("dispersive.point.self_s", "s"),
    ("models.build_mixed_spin_boson.self_s", "s"),
    ("models.build_cpt_hamiltonian.self_s", "s"),
    ("qspace.eigendecompose.self_s", "s"),
    ("qspace.require_hermitian.self_s", "s"),
    ("readout.calibrate_drive.self_s", "s"),
    ("readout.steady_state_amplitude.self_s", "s"),
    ("readout.integrate_trajectory.self_s", "s"),
    ("readout.integrate_trajectory.rk4_steps_per_s", "1/s"),
    ("readout.snr_and_error.self_s", "s"),
    ("dephasing.z_trajectory.self_s", "s"),
    ("dephasing.z_trajectory.rk4_steps_per_s", "1/s"),
    ("dephasing.gamma_ode.self_s", "s"),
    ("cli.run.self_s", "s"),
)
RUN_METRICS = (("trace.overhead_frac", "frac"), ("trace.coverage_frac", "frac"))
PER_LAYER = COUNT_METRICS + TIME_METRICS + RUN_METRICS


def _ratio(num, den):
    return num / den if den else 0.0


def _count_labels(counts, args, kwargs, out):
    counts["labels_assigned"] += len(out.labels)
    counts["labels_requested"] += len(out.labels) + len(out.unassigned)
    counts["eigvecs_computed"] += out.eigensystem.vectors.shape[1]


def _count_eig_bytes(counts, args, kwargs, out):
    H = args[0] if args else kwargs["H"]
    counts["eig_bytes_in"] += getattr(H, "matrix", H).nbytes


def _count_z_steps(counts, args, kwargs, out):
    counts["z_rk4_steps"] += len(out.times) - 1


def _count_readout_steps(counts, args, kwargs, out):
    counts["readout_rk4_steps"] += 2 * (len(out.times) - 1)


COUNTERS = {
    "dispersive.label_dressed_states": _count_labels,
    "qspace.eigendecompose": _count_eig_bytes,
    "dephasing.z_trajectory": _count_z_steps,
    "readout.integrate_trajectory": _count_readout_steps,
}


class Tracer:
    """Installs span-recording wrappers for the duration of a `with` block."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._saved = []

    def __enter__(self):
        self.spans, self.counts, self._stack = [], Counter(), []
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            fn = original
            if name == "dephasing.gamma_ode":
                fn = self._record_convergence(fn)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(fn, name, COUNTERS.get(name)))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []
        return False

    def _wrap(self, fn, name, count):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count is not None:
                count(counts, args, kwargs, out)
            return out

        return traced

    def _record_convergence(self, fn):
        counts = self.counts

        def gamma_ode(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = fn(*args, **kwargs)
            counts["gamma_unconverged"] += any(
                "steady-state" in str(w.message) for w in caught
            )
            return out

        return gamma_ode

    def sweep_summary(self, wall_s):
        """Per-layer numbers of the spans recorded since the last `with`."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        top = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if parent < 0:
                top += end - start
        c = self.counts
        out = {f"{name}.calls": calls[name] for _, _, name in WRAPPED}
        out.update({f"{name}.self_s": float(self_s[name]) for _, _, name in WRAPPED})
        out.update({
            "dispersive.label_dressed_states.assigned_ratio":
                _ratio(c["labels_assigned"], c["labels_requested"]),
            "dispersive.eigvec_use_ratio": _ratio(c["labels_assigned"], c["eigvecs_computed"]),
            "qspace.eigendecompose.bytes_in": c["eig_bytes_in"],
            "readout.steady_state_amplitude.per_calibration":
                _ratio(calls["readout.steady_state_amplitude"], calls["readout.calibrate_drive"]),
            "readout.integrate_trajectory.rk4_steps": c["readout_rk4_steps"],
            "readout.integrate_trajectory.rk4_steps_per_s":
                _ratio(c["readout_rk4_steps"], self_s["readout.integrate_trajectory"]),
            "dephasing.z_trajectory.rk4_steps": c["z_rk4_steps"],
            "dephasing.z_trajectory.rk4_steps_per_s":
                _ratio(c["z_rk4_steps"], self_s["dephasing.z_trajectory"]),
            "dephasing.gamma_ode.converged_ratio": _ratio(
                calls["dephasing.gamma_ode"] - c["gamma_unconverged"], calls["dephasing.gamma_ode"]
            ),
            "trace.coverage_frac": _ratio(top, wall_s),
        })
        return out


def per_layer_metrics(summaries, traced_s_per_point, untraced_s_per_point):
    """Reduce per-sweep summaries to the PER_LAYER metrics with units."""
    first = summaries[0]
    values = {name: first[name] for name, _ in COUNT_METRICS}
    for name, _ in TIME_METRICS + (("trace.coverage_frac", "frac"),):
        values[name] = statistics.median(s[name] for s in summaries)
    values["trace.overhead_frac"] = (
        statistics.median(traced_s_per_point) / statistics.median(untraced_s_per_point) - 1.0
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
