"""Per-layer tracing of zvortex from outside its source tree.

``Tracer.install`` replaces the public functions of each zvortex module
(plus ``ZField.partials``, ``GridReport.write_csv`` and the CLI command
callbacks) by timing wrappers, in every zvortex namespace that holds a
reference to them, so calls made inside a module are seen too.
``uninstall`` puts the originals back.

Every wrapped call is aggregated per name (calls, total and self time);
self time is a call's duration minus the time its wrapped children cover.
Spans (name, start, end, parent, operation id) are kept in memory only for
calls at the top two levels of the wrapped stack, so hot leaves such as
``eval_psi`` cost a counter update, not a list entry. Names that a later
version of the program no longer defines are skipped, and their metrics
read 0.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("wavecore", "schrodinger_field", "vortex", "energy", "ensemble", "cli")

# Functions wrapped per module. ``energy.unit_step`` is left out on purpose:
# it is called once per eigenvalue per lookup and costs less than a
# wrapper, so its time stays in the self time of ``level_index``.
WRAPPED = {
    "wavecore": ("eval_psi", "partials_uv", "check_cauchy_riemann", "dpsi_dc",
                 "d2psi_dc2", "laplace_residual", "contour_integral",
                 "cauchy_formula", "normalizability"),
    "schrodinger_field": ("ZField.partials", "psi_partials", "complex_residual",
                          "real_residual", "imag_residual", "evaluate_grid",
                          "GridReport.write_csv", "exponential_field",
                          "sum_field", "constant_field"),
    "vortex": ("k_from_potential", "real_solution", "imag_solution",
               "trajectory", "collapse_time", "collapse_bit",
               "zero_vortex_lifetime", "normalization_constant",
               "vortex_ratio", "gradient_map_segment", "segment_involution",
               "segment_involution_inverse", "squared_map"),
    "energy": ("energy_of_potential", "level_index", "potential_of_energy",
               "select_level", "quantized_k", "quantized_solution", "delta_k",
               "k_jump_trace"),
    "ensemble": ("_arrival_times", "simulate", "steady_state_counts",
                 "expected_emissions", "equalization_check"),
}
CLI_COMMANDS = ("verify", "trajectory", "ladder", "ensemble", "geometry")
RESIDUALS = ("schrodinger_field.real_residual", "schrodinger_field.imag_residual",
             "schrodinger_field.complex_residual")
SPAN_DEPTH = 2


def _size(x) -> int:
    return int(np.size(x))


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counters = defaultdict(float)
        self.spans: list[tuple] = []
        self.top_ns = 0
        self.op_id = None
        self._stack: list[list] = []  # [name, span index or None, child ns]
        self._saved: list[tuple] = []
        self._hooks = {
            "wavecore.eval_psi": self._count_evals,
            "schrodinger_field.evaluate_grid": self._count_grid,
            "vortex.trajectory": self._count_result("vortex.trajectory.points"),
            "energy.k_jump_trace": self._count_result("energy.trace_steps"),
            "ensemble.simulate": self._count_simulate,
        }
        for name in RESIDUALS:
            self._hooks[name] = self._count_residual

    # -- counting hooks: (args, kwargs, result) after the call returns

    def _count_evals(self, args, kwargs, result):
        self.counters["wavecore.evals"] += _size(args[0] if args else kwargs["z"])

    def _count_contour(self, fn):
        sig = inspect.signature(fn)

        def hook(args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.counters["wavecore.evals"] += bound.arguments["n_points"]
        return hook

    def _count_grid(self, args, kwargs, result):
        self.counters["schrodinger_field.points"] += len(result.points)

    def _count_residual(self, args, kwargs, result):
        if all(frame[0] != "schrodinger_field.evaluate_grid" for frame in self._stack):
            self.counters["schrodinger_field.points"] += _size(result)

    def _count_result(self, key):
        def hook(args, kwargs, result):
            self.counters[key] += len(result)
        return hook

    def _count_simulate(self, args, kwargs, result):
        self.counters["ensemble.events"] += result.report.produced
        self.counters["ensemble.bits_emitted"] += result.report.emitted

    # -- wrapping

    def _wrap(self, name, fn):
        if name in ("wavecore.contour_integral", "wavecore.cauchy_formula"):
            hook = self._count_contour(fn)
        else:
            hook = self._hooks.get(name)
        clock = time.perf_counter_ns
        stack = self._stack
        calls, total, self_t = self.calls, self.total_ns, self.self_ns
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            span = None
            if len(stack) < SPAN_DEPTH:
                span = len(spans)
                spans.append(None)
            frame = [name, span, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][2] += dur
                else:
                    self.top_ns += dur
                calls[name] += 1
                total[name] += dur
                self_t[name] += dur - frame[2]
                if span is not None:
                    spans[span] = (span, parent, name, t0, t1, self.op_id)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every listed function in every zvortex namespace."""
        from zvortex import cli as cli_mod
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "zvortex" or n.startswith("zvortex."))]
        replace = {}
        for layer, names in WRAPPED.items():
            mod = sys.modules[f"zvortex.{layer}"]
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                fn = vars(owner).get(attr) if owner is not None else None
                if fn is None:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                if owner_name:
                    self._saved.append((owner, attr, fn))
                    setattr(owner, attr, wrapped)
                else:
                    replace[id(fn)] = (fn, wrapped)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for cmd in CLI_COMMANDS:
            command = cli_mod.cli.commands.get(cmd)
            if command is None:
                continue
            self._saved.append((command, "callback", command.callback))
            command.callback = self._wrap(f"cli.{cmd}", command.callback)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- results

    def layer_self_ns(self, layer: str) -> int:
        prefix = layer + "."
        return sum(v for k, v in self.self_ns.items() if k.startswith(prefix))

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    sid, parent, name, t0, t1, op = span
                    fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                         "start_ns": t0, "end_ns": t1, "op": op}))
                    fh.write("\n")


def per_layer_metrics(tr: Tracer, rounds: int, traced_total_s: float,
                      overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-round per-layer figures from a tracer that ran ``rounds`` rounds.

    ``traced_total_s`` is the wall time of those rounds; the self times of
    all layers plus ``trace.unwrapped_s`` add up to ``trace.wall_s``.
    """
    per = 1.0 / rounds

    def s(*names):
        return sum(tr.self_ns.get(n, 0) for n in names) * 1e-9 * per

    def calls(name):
        return tr.calls.get(name, 0) * per

    def count(key):
        return tr.counters.get(key, 0.0) * per

    def ratio(a, b):
        return a / b if b else 0.0

    layer_s = {layer: tr.layer_self_ns(layer) * 1e-9 * per for layer in LAYERS}
    wrapped_s = tr.top_ns * 1e-9 * per
    traced_wall_s = traced_total_s * per
    cli_out = count("cli.output_bytes")
    m = {
        "wavecore.eval_psi.calls": (calls("wavecore.eval_psi"), "count"),
        "wavecore.evals": (count("wavecore.evals"), "count"),
        "wavecore.self_s": (layer_s["wavecore"], "s"),
        "wavecore.check_cauchy_riemann.self_s": (s("wavecore.check_cauchy_riemann"), "s"),
        "wavecore.laplace_residual.self_s": (s("wavecore.laplace_residual"), "s"),
        "wavecore.contour.self_s": (s("wavecore.contour_integral",
                                      "wavecore.cauchy_formula"), "s"),
        "wavecore.ns_per_eval": (ratio(layer_s["wavecore"] * 1e9,
                                       count("wavecore.evals")), "ns"),
        "schrodinger_field.points": (count("schrodinger_field.points"), "count"),
        "schrodinger_field.partials.calls": (calls("schrodinger_field.partials"), "count"),
        "schrodinger_field.points_per_partials": (
            ratio(count("schrodinger_field.points"),
                  calls("schrodinger_field.partials")), "ratio"),
        "schrodinger_field.self_s": (layer_s["schrodinger_field"], "s"),
        "schrodinger_field.partials.self_s": (s("schrodinger_field.partials"), "s"),
        "schrodinger_field.residual.self_s": (s(*RESIDUALS), "s"),
        "schrodinger_field.evaluate_grid.self_s": (s("schrodinger_field.evaluate_grid"), "s"),
        "schrodinger_field.write_csv.self_s": (s("schrodinger_field.write_csv"), "s"),
        "schrodinger_field.write_csv.bytes": (count("schrodinger_field.write_csv.bytes"), "B"),
        "vortex.self_s": (layer_s["vortex"], "s"),
        "vortex.trajectory.points": (count("vortex.trajectory.points"), "count"),
        "vortex.trajectory.self_s": (s("vortex.trajectory"), "s"),
        "vortex.geometry.self_s": (s("vortex.gradient_map_segment",
                                     "vortex.segment_involution",
                                     "vortex.squared_map"), "s"),
        "vortex.squared_map.calls": (calls("vortex.squared_map"), "count"),
        "energy.self_s": (layer_s["energy"], "s"),
        "energy.trace_steps": (count("energy.trace_steps"), "count"),
        "energy.level_index.calls": (calls("energy.level_index"), "count"),
        "energy.steps_per_level_index": (ratio(count("energy.trace_steps"),
                                               calls("energy.level_index")), "ratio"),
        "energy.level_index.self_s": (s("energy.level_index"), "s"),
        "energy.k_jump_trace.self_s": (s("energy.k_jump_trace"), "s"),
        "ensemble.self_s": (layer_s["ensemble"], "s"),
        "ensemble.events": (count("ensemble.events"), "count"),
        "ensemble.bits_emitted": (count("ensemble.bits_emitted"), "count"),
        "ensemble.arrivals.self_s": (s("ensemble._arrival_times"), "s"),
        "ensemble.simulate.self_s": (s("ensemble.simulate"), "s"),
        "ensemble.ns_per_event": (ratio(layer_s["ensemble"] * 1e9,
                                        count("ensemble.events")), "ns"),
        "cli.self_s": (layer_s["cli"], "s"),
        **{f"cli.{c}.self_s": (s(f"cli.{c}"), "s") for c in CLI_COMMANDS},
        "cli.output_bytes": (cli_out, "B"),
        "cli.output_mb_per_s": (ratio(cli_out / 1e6, layer_s["cli"]), "MB/s"),
        "trace.wall_s": (traced_wall_s, "s"),
        "trace.wrapped_s": (wrapped_s, "s"),
        "trace.unwrapped_s": (traced_wall_s - wrapped_s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return m
