"""Span tracing of the geomflow package from outside, and per-layer metrics.

`Tracer.install` replaces every public function of the package's layer
modules, in every module that binds it, and a few methods on their classes,
with a wrapper that records one span per call: name, start, end and the
span open when the call began (its parent). Spans live in flat in-memory
arrays until `save` writes them. `layer_metrics` derives the per-layer
figures, each normalised by the number of workload items the traced
commands completed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "data", "flow", "nn", "ode", "alignment", "costs", "geometry")
IO_FUNCTIONS = (
    "data.save_checkpoint", "data.load_checkpoint", "data.save_geometries",
    "data.load_geometries", "data.save_pairs", "data.load_pairs",
)


def _velocity_edges(args, kwargs, out):
    n = args[1].n
    return n * (n - 1)


def _file_bytes(args, kwargs, out):
    return os.path.getsize(args[0])


# Per-call quantities kept alongside a span, keyed by span name.
NOTES = {
    "nn.VectorFieldModel.velocity": _velocity_edges,
    "ode.integrate": lambda a, k, out: out[1],
    "alignment.solve_omt": lambda a, k, out: out.iterations,
    "data.is_valid": lambda a, k, out: int(out[0]),
    "flow.reflow": lambda a, k, out: len(out[1]) / a[1].reflow_pairs,
    **{name: _file_bytes for name in IO_FUNCTIONS},
}

PER_LAYER_UNITS = {
    "nn.velocity.calls": "calls/item",
    "nn.velocity.ms": "ms/item",
    "nn.velocity.edges": "edges/item",
    "nn.velocity.us_per_edge": "us/edge",
    "nn.backward_velocity.calls": "calls/item",
    "nn.backward_velocity.ms": "ms/item",
    "nn.ae_backward.ms": "ms/item",
    "nn.encode.calls": "calls/item",
    "nn.encode.ms": "ms/item",
    "nn.decode.calls": "calls/item",
    "nn.decode.ms": "ms/item",
    "nn.adam_step.calls": "calls/item",
    "nn.adam_step.ms": "ms/item",
    "ode.integrate.calls": "calls/item",
    "ode.integrate.ms": "ms/item",
    "ode.nfe": "evals/item",
    "ode.accepted_steps": "steps/item",
    "ode.nfe_per_accepted_step": "evals/step",
    "alignment.solve_omt.calls": "calls/item",
    "alignment.solve_omt.ms": "ms/item",
    "alignment.solve_omt.iterations": "iters/call",
    "alignment.hungarian.calls": "calls/item",
    "alignment.hungarian.ms": "ms/item",
    "alignment.kabsch.calls": "calls/item",
    "alignment.kabsch.ms": "ms/item",
    "costs.distribution_cost.calls": "calls/item",
    "costs.distribution_cost.ms": "ms/item",
    "data.is_valid.calls": "calls/item",
    "data.is_valid.ms": "ms/item",
    "data.is_valid.pass_ratio": "ratio",
    "flow.reflow.kept_ratio": "ratio",
    "data.io_ms": "ms/item",
    "data.io_bytes": "B/item",
    "geometry.latent.constructions": "calls/item",
    "geometry.latent.ms": "ms/item",
    **{f"{layer}.self_ms": "ms/item" for layer in LAYERS},
    "trace.spans": "spans/item",
    "trace.items_per_s": "1/s",
    "trace.overhead": "ratio",
}

# Methods wrapped on their class, as (module, class, method).
METHODS = (
    ("nn", "VectorFieldModel", "velocity"),
    ("nn", "VectorFieldModel", "backward_velocity"),
    ("nn", "VectorFieldModel", "encode_means"),
    ("nn", "VectorFieldModel", "decode_arrays"),
    ("nn", "VectorFieldModel", "ae_backward"),
    ("geometry", "LatentGeometry", "__post_init__"),
)


class Tracer:
    def __init__(self):
        self.modules = {m: importlib.import_module(f"geomflow.{m}") for m in LAYERS}
        self.names: list[str] = []
        self.name_ids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.notes: dict[int, float] = {}
        self._stack = [-1]
        # (owner, attribute, original, wrapper) for every binding, built once.
        self._patches: list[tuple] = []
        for layer, mod in self.modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for other in self.modules.values():
                    for oattr, obj in list(vars(other).items()):
                        if obj is fn:
                            self._patches.append((other, oattr, fn, wrapped))
        for layer, cls_name, meth in METHODS:
            cls = getattr(self.modules[layer], cls_name)
            fn = cls.__dict__[meth]
            self._patches.append((cls, meth, fn, self._wrap(f"{layer}.{cls_name}.{meth}", fn)))

    # -- installation --------------------------------------------------------

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        note = NOTES.get(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, notes = self._stack, self.notes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if note is not None:
                notes[idx] = note(args, kwargs, out)
            return out

        return traced

    def install(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, fn, _ in self._patches:
            setattr(owner, attr, fn)

    # -- output --------------------------------------------------------------

    def arrays(self):
        return (np.array(self.name_ids, dtype=np.int64),
                np.array(self.parents, dtype=np.int64),
                np.array(self.starts, dtype=np.float64),
                np.array(self.ends, dtype=np.float64))

    def save(self, path):
        """Write every span as arrays (name id, parent, start, end) and the
        name table, plus the per-call notes."""
        name_ids, parents, starts, ends = self.arrays()
        idx = np.array(sorted(self.notes), dtype=np.int64)
        np.savez(path, name_ids=name_ids, parents=parents, starts=starts, ends=ends,
                 note_index=idx,
                 note_value=np.array([self.notes[i] for i in idx], dtype=np.float64),
                 names=np.array([json.dumps(self.names)]))

    def layer_metrics(self, items: int) -> dict:
        """Per-layer metrics per workload item (see the README's table)."""
        name_ids, parents, starts, ends = self.arrays()
        n_spans = len(name_ids)
        dur = ends - starts
        child = np.zeros(n_spans)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child
        span_names = np.array(self.names, dtype=object)[name_ids]
        span_layers = np.array([n.split(".")[0] for n in self.names], dtype=object)[name_ids]

        def mask(name):
            return span_names == name

        def calls(name):
            return int(mask(name).sum())

        def ms(name):
            return float(dur[mask(name)].sum()) * 1e3

        def noted(name):
            idx = np.flatnonzero(mask(name))
            return np.array([self.notes[i] for i in idx], dtype=np.float64)

        # Velocity evaluations made inside an integration (the NFE).
        integrate_id = self.names.index("ode.integrate")
        inside = [False] * n_spans
        for i, (nid, p) in enumerate(zip(name_ids.tolist(), parents.tolist())):
            inside[i] = nid == integrate_id or (p >= 0 and inside[p])
        inside = np.array(inside, dtype=bool)
        velocity = mask("nn.VectorFieldModel.velocity")
        nfe = int((velocity & inside).sum())

        per = 1.0 / max(items, 1)
        edges = noted("nn.VectorFieldModel.velocity").sum()
        accepted = noted("ode.integrate").sum()
        iterations = noted("alignment.solve_omt")
        valid = noted("data.is_valid")
        io = np.isin(span_names, IO_FUNCTIONS)
        io_bytes = sum(noted(name).sum() for name in IO_FUNCTIONS)
        kept = noted("flow.reflow")

        out = {
            "nn.velocity.calls": calls("nn.VectorFieldModel.velocity") * per,
            "nn.velocity.ms": ms("nn.VectorFieldModel.velocity") * per,
            "nn.velocity.edges": edges * per,
            "nn.velocity.us_per_edge": (
                ms("nn.VectorFieldModel.velocity") * 1e3 / edges if edges else 0.0),
            "nn.backward_velocity.calls": calls("nn.VectorFieldModel.backward_velocity") * per,
            "nn.backward_velocity.ms": ms("nn.VectorFieldModel.backward_velocity") * per,
            "nn.ae_backward.ms": ms("nn.VectorFieldModel.ae_backward") * per,
            "nn.encode.calls": calls("nn.VectorFieldModel.encode_means") * per,
            "nn.encode.ms": ms("nn.VectorFieldModel.encode_means") * per,
            "nn.decode.calls": calls("nn.VectorFieldModel.decode_arrays") * per,
            "nn.decode.ms": ms("nn.VectorFieldModel.decode_arrays") * per,
            "nn.adam_step.calls": calls("nn.adam_step") * per,
            "nn.adam_step.ms": ms("nn.adam_step") * per,
            "ode.integrate.calls": calls("ode.integrate") * per,
            "ode.integrate.ms": ms("ode.integrate") * per,
            "ode.nfe": nfe * per,
            "ode.accepted_steps": accepted * per,
            "ode.nfe_per_accepted_step": nfe / accepted if accepted else 0.0,
            "alignment.solve_omt.calls": calls("alignment.solve_omt") * per,
            "alignment.solve_omt.ms": ms("alignment.solve_omt") * per,
            "alignment.solve_omt.iterations": (
                float(iterations.mean()) if iterations.size else 0.0),
            "alignment.hungarian.calls": calls("alignment.hungarian") * per,
            "alignment.hungarian.ms": ms("alignment.hungarian") * per,
            "alignment.kabsch.calls": calls("alignment.kabsch") * per,
            "alignment.kabsch.ms": ms("alignment.kabsch") * per,
            "costs.distribution_cost.calls": calls("costs.distribution_cost") * per,
            "costs.distribution_cost.ms": ms("costs.distribution_cost") * per,
            "data.is_valid.calls": calls("data.is_valid") * per,
            "data.is_valid.ms": ms("data.is_valid") * per,
            "data.is_valid.pass_ratio": float(valid.mean()) if valid.size else 0.0,
            "flow.reflow.kept_ratio": float(kept.mean()) if kept.size else 0.0,
            "data.io_ms": float(dur[io].sum()) * 1e3 * per,
            "data.io_bytes": float(io_bytes) * per,
            "geometry.latent.constructions": calls("geometry.LatentGeometry.__post_init__") * per,
            "geometry.latent.ms": ms("geometry.LatentGeometry.__post_init__") * per,
        }
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = float(self_time[span_layers == layer].sum()) * 1e3 * per
        out["trace.spans"] = n_spans * per
        return out
