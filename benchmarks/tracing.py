"""Per-layer spans for a traced benchmark run, recorded from outside the package.

``install`` wraps the public functions of each superatom module and puts
the wrapper in place of the function in every superatom module namespace
that holds it, so calls that one module makes into another (and calls
inside a module) go through a span.  Spans stay in memory; the run process
writes them out when it ends.  Untraced runs never import this module.

Layer names are ``<module>.<function>``; several functions can share one
layer (``hamiltonians.reduction`` is both reduction paths).
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict


def _propagate_pure_counts(args, kwargs, result):
    dim = result.shape[1]
    return {"dim3_computed": dim**3, "out_bytes_computed": result.size * 16}


def _evolve_lindblad_counts(args, kwargs, result):
    return {"out_bytes_computed": result.size * 16}


def _simulate_escape_counts(args, kwargs, result):
    return {"trajectories": args[0].n_trajectories}


def _trajectory_counts(args, kwargs, result):
    return {"escaped": int(math.isfinite(result["escape_time"]))}


# (layer, module, function, counter).  The root layer cli.main is the span
# the run process opens around each superatom.cli.main call.
TARGETS = (
    ("config.parse", "config", "parse_config", None),
    ("config.parse", "config", "protocol_config", None),
    ("config.parse", "config", "ion_config", None),
    ("cli.write", "cli", "write_csv", None),
    ("cli.write", "cli", "write_trajectory", None),
    ("cli.write", "cli", "write_summary", None),
    ("protocol.scan", "protocol", "scan_delta_c", None),
    ("protocol.scan", "protocol", "scan_omega_c", None),
    ("protocol.scan", "protocol", "poisson_average", None),
    ("protocol.scan", "protocol", "scan_decoherence", None),
    ("protocol.collapse_revival", "protocol", "collapse_revival_demo", None),
    ("protocol.run_protocol", "protocol", "run_protocol", None),
    ("protocol.resolve", "protocol", "resolve_protocol", None),
    ("hamiltonians.reduction", "hamiltonians", "second_order_reduction", None),
    ("hamiltonians.reduction", "hamiltonians", "effective_two_level", None),
    ("hamiltonians.dicke_to_dressed", "hamiltonians", "dicke_to_dressed", None),
    ("hamiltonians.build_dicke", "hamiltonians", "build_dicke_hamiltonian", None),
    ("hamiltonians.build_product", "hamiltonians", "build_product_hamiltonian", None),
    ("basis.product_basis", "basis", "product_basis", None),
    ("basis.symmetrizer", "basis", "symmetrizer", None),
    ("dynamics.propagate_pure", "dynamics", "propagate_pure", _propagate_pure_counts),
    ("dynamics.evolve_lindblad", "dynamics", "evolve_lindblad", _evolve_lindblad_counts),
    ("dynamics.lindblad_operators", "dynamics", "lindblad_operators", None),
    ("dynamics.observables", "dynamics", "observables", None),
    ("ion_escape.simulate_escape", "ion_escape", "simulate_escape",
     _simulate_escape_counts),
    # private per-trajectory step of simulate_escape; skipped if it is gone
    ("ion_escape.trajectory", "ion_escape", "_single_trajectory", _trajectory_counts),
)

ROOT = "cli.main"
LAYERS = (ROOT,) + tuple(dict.fromkeys(t[0] for t in TARGETS))


class Tracer:
    """In-memory span recorder: [id, parent, layer, start, end, counts]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, layer, clock(), 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if counter is not None:
                rec[5] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every target function, wherever a superatom module holds it."""
        for layer, module, name, counter in TARGETS:
            original = getattr(importlib.import_module(f"superatom.{module}"), name, None)
            if original is None:
                continue
            wrapper = self.wrap(layer, original, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "superatom":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def dump(self) -> list[dict]:
        return [
            {"run": self.run_id, "id": i, "parent": p, "layer": lay,
             "start": s, "end": e, "counts": c}
            for i, p, lay, s, e, c in self.spans
        ]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals from one run's spans.

    ``<layer>.s`` sums the spans not nested in a span of the same layer,
    ``<layer>.calls`` counts them, and ``<layer>.self_s`` sums each span's
    duration minus the time its direct children cover.  Counter values add
    up under ``<layer>.<name>``.
    """
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.s"] = 0.0
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    for s in spans:
        layer, dur = s["layer"], s["end"] - s["start"]
        out[f"{layer}.self_s"] += dur - child_time[s["id"]]
        p = s["parent"]
        while p >= 0 and by_id[p]["layer"] != layer:
            p = by_id[p]["parent"]
        if p < 0:
            out[f"{layer}.s"] += dur
            out[f"{layer}.calls"] += 1
        for name, value in (s["counts"] or {}).items():
            key = f"{layer}.{name}"
            out[key] = out.get(key, 0) + value
    return out
