"""Per-layer spans for the traced run, installed from outside the program.

Each span wraps one public function or method of vnsim: module-level
functions are replaced in every vnsim module that binds them (callers such
as `vlasov_pic` import `fdtd_step` by name), methods are replaced on their
class.  A span records calls, inclusive seconds `s`, `self_s` (minus the
time of spans opened inside it) and the counts its `post` hook adds; spans
are aggregated in memory and read once when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Span:
    name: str       # metric prefix, <module>.<function> or <module>.<Class>.<method>
    owner: str      # vnsim submodule or submodule.Class holding the attribute
    attr: str
    pre: Callable | None = None    # (*args) -> snapshot taken before the call
    post: Callable | None = None   # (stats, result, snapshot, *args) -> None


def _points(st, result, _before, *args, **kwargs):
    st["points"] += np.size(result)


def _first_derivs_points(st, result, _before, *args, **kwargs):
    st["points"] += np.size(result[0])


def _push_points(st, result, _before, *args, **kwargs):
    st["points"] += int(np.prod(result.x.shape[:-1]))


def _evaluate_f_counts(st, result, _before, *args, **kwargs):
    st["points"] += np.size(result)
    st["hits"] += int(np.count_nonzero(result > 0.0))


def _append_bytes(st, _result, _before, hist, t, phi, *args, **kwargs):
    st["bytes"] += np.dtype(hist.dtype).itemsize * np.size(phi)


def _fdtd_counts(st, grid, _before, *args, **kwargs):
    # computed from array sizes: read phi_p, phi_0, mu, write the new level
    st["node_updates"] += grid.phi_p.size
    st["bytes_computed"] += 4 * grid.phi_p.nbytes


def _ensure_extent_counts(st, _result, n_half_before, grid, *args, **kwargs):
    st["grows"] += int(grid.n_half != n_half_before)
    st["final_nodes"] = max(st["final_nodes"], grid.n_nodes ** 3)


def _maps_nodes(st, _result, _before, grid, *args, **kwargs):
    st["nodes"] += max(grid.n_nodes - 4, 0) ** 3


def _deposit_particles(st, _result, _before, ens, *args, **kwargs):
    st["particles"] += ens.n


def _init_particles(st, state, _before, *args, **kwargs):
    st["particles"] = state.ensemble.n


def _checkpoint_bytes(st, _result, _before, path, *args, **kwargs):
    st["bytes"] += os.path.getsize(path)


SPANS = [
    Span("profiles.InitialData.f_value", "profiles.InitialData", "f_value",
         post=_points),
    Span("characteristics.push", "characteristics", "push", post=_push_points),
    Span("characteristics.backward_trace", "characteristics", "backward_trace"),
    Span("wavefield.GridFieldHistory.first_derivs", "wavefield.GridFieldHistory",
         "first_derivs", post=_first_derivs_points),
    Span("wavefield.GridFieldHistory.phi", "wavefield.GridFieldHistory", "phi",
         post=_points),
    Span("wavefield.GridFieldHistory.append", "wavefield.GridFieldHistory",
         "append", post=_append_bytes),
    Span("wavefield.fdtd_step", "wavefield", "fdtd_step", post=_fdtd_counts),
    Span("wavefield.FieldGrid.ensure_extent", "wavefield.FieldGrid",
         "ensure_extent", pre=lambda grid, *a, **k: grid.n_half,
         post=_ensure_extent_counts),
    Span("wavefield.field_derivatives", "wavefield", "field_derivatives"),
    Span("vlasov_pic.sample_particles", "vlasov_pic", "sample_particles"),
    Span("vlasov_pic.deposit_mu", "vlasov_pic", "deposit_mu",
         post=_deposit_particles),
    Span("vlasov_pic.update_weights", "vlasov_pic", "update_weights"),
    Span("vlasov_pic.evaluate_f", "vlasov_pic", "evaluate_f",
         post=_evaluate_f_counts),
    Span("vlasov_pic.init_coupled_state", "vlasov_pic", "init_coupled_state",
         post=_init_particles),
    Span("vlasov_pic.step", "vlasov_pic", "step"),
    Span("diagnostics.semilag_profile", "diagnostics", "semilag_profile"),
    Span("diagnostics.max_momentum_spread", "diagnostics", "max_momentum_spread"),
    Span("diagnostics.grid_derivative_maps", "diagnostics", "grid_derivative_maps",
         post=_maps_nodes),
    Span("cli.record", "cli", "_record_row"),
    Span("cli.has_nan", "cli", "_has_nan"),
    Span("cli.save_checkpoint", "cli", "save_checkpoint", post=_checkpoint_bytes),
    Span("cli.write_output", "cli", "_write_output"),
    Span("cli.write_summary", "cli", "_write_summary"),
]

SETUP_SPAN = "vlasov_pic.init_coupled_state"

# Per-layer metrics reported by a traced run, as (name, unit).  A name is
# <span>.<stat>; `hit_ratio` is hits / points and `rk_steps` counts the
# pushes made inside the span.  The `trace.*` metrics describe the traced
# run itself: its run_s, the share of it covered by top-level spans, and the
# overhead against untraced runs of the same invocation.
PER_LAYER = [
    ("characteristics.push.self_s", "s"),
    ("characteristics.push.calls", "count"),
    ("characteristics.push.points", "count"),
    ("wavefield.GridFieldHistory.first_derivs.self_s", "s"),
    ("wavefield.GridFieldHistory.first_derivs.points", "count"),
    ("diagnostics.semilag_profile.s", "s"),
    ("diagnostics.semilag_profile.self_s", "s"),
    ("diagnostics.semilag_profile.calls", "count"),
    ("characteristics.backward_trace.s", "s"),
    ("characteristics.backward_trace.rk_steps", "count"),
    ("vlasov_pic.evaluate_f.self_s", "s"),
    ("vlasov_pic.evaluate_f.points", "count"),
    ("vlasov_pic.evaluate_f.hit_ratio", "ratio"),
    ("profiles.InitialData.f_value.self_s", "s"),
    ("profiles.InitialData.f_value.points", "count"),
    ("wavefield.GridFieldHistory.phi.self_s", "s"),
    ("wavefield.GridFieldHistory.phi.points", "count"),
    ("vlasov_pic.update_weights.self_s", "s"),
    ("vlasov_pic.deposit_mu.self_s", "s"),
    ("vlasov_pic.deposit_mu.particles", "count"),
    ("diagnostics.max_momentum_spread.self_s", "s"),
    ("wavefield.fdtd_step.self_s", "s"),
    ("wavefield.fdtd_step.node_updates", "count"),
    ("wavefield.fdtd_step.bytes_computed", "bytes"),
    ("wavefield.FieldGrid.ensure_extent.self_s", "s"),
    ("wavefield.FieldGrid.ensure_extent.grows", "count"),
    ("wavefield.FieldGrid.ensure_extent.final_nodes", "count"),
    ("diagnostics.grid_derivative_maps.self_s", "s"),
    ("diagnostics.grid_derivative_maps.nodes", "count"),
    ("wavefield.field_derivatives.self_s", "s"),
    ("vlasov_pic.init_coupled_state.s", "s"),
    ("vlasov_pic.sample_particles.self_s", "s"),
    ("wavefield.GridFieldHistory.append.self_s", "s"),
    ("wavefield.GridFieldHistory.append.bytes", "bytes"),
    ("vlasov_pic.step.self_s", "s"),
    ("cli.record.s", "s"),
    ("cli.record.calls", "count"),
    ("cli.has_nan.self_s", "s"),
    ("cli.save_checkpoint.s", "s"),
    ("cli.save_checkpoint.bytes", "bytes"),
    ("cli.write_output.s", "s"),
    ("cli.write_summary.s", "s"),
    ("trace.run_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Span aggregates for one process; spans must nest (no threads)."""

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.edges = defaultdict(int)   # (parent span, child span) -> calls
        self.top_level_s = 0.0          # inclusive time of spans with no parent
        self._stack = []                # open spans as [name, child seconds]

    def wrap(self, span: Span, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = span.pre(*args, **kwargs) if span.pre else None
            parent = self._stack[-1] if self._stack else None
            frame = [span.name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                self._stack.pop()
                st = self.stats[span.name]
                st["calls"] += 1
                st["s"] += dur
                st["self_s"] += dur - frame[1]
                if parent is None:
                    self.top_level_s += dur
                else:
                    parent[1] += dur
                    self.edges[(parent[0], span.name)] += 1
            if span.post:
                span.post(st, result, before, *args, **kwargs)
            return result
        return traced

    def install(self, spans=SPANS):
        """Replace each span's target with its traced wrapper."""
        importlib.import_module("vnsim.cli")  # loads every vnsim module
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "vnsim" or name.startswith("vnsim.")]
        for span in spans:
            mod_name, _, cls_name = span.owner.partition(".")
            owner = importlib.import_module(f"vnsim.{mod_name}")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, span.attr)
            traced = self.wrap(span, original)
            setattr(owner, span.attr, traced)
            if cls_name:
                continue
            for mod in loaded:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, traced)

    def stat(self, span: str, stat: str) -> float:
        st = self.stats.get(span, {})
        if stat == "hit_ratio":
            return st.get("hits", 0.0) / st["points"] if st.get("points") else 0.0
        if stat == "rk_steps":
            return float(self.edges.get((span, "characteristics.push"), 0))
        return float(st.get(stat, 0.0))

    def layer_metrics(self, run_s: float) -> dict:
        """Every PER_LAYER value except trace.overhead_s."""
        out = {}
        for name, _unit in PER_LAYER:
            if name == "trace.run_s":
                out[name] = run_s
            elif name == "trace.coverage":
                out[name] = self.top_level_s / run_s
            elif name != "trace.overhead_s":
                span, _, stat = name.rpartition(".")
                out[name] = self.stat(span, stat)
        return out
