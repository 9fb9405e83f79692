"""Span tracing around the calls into dwsplit's modules, from outside them.

``install`` replaces every public function of the package's modules (and
the ``__post_init__`` of the model classes) by a recorder that opens a span,
calls the original and closes the span; the returned ``undo`` puts the
originals back.  The package's own source is never touched.  A span records
its name (``layer.function``), start, end, parent span and the trace id of
the sweep point or CLI process it belongs to.  Spans stay in memory until
``write_spans``.

Counts are taken at the same boundaries, from the arguments and results of
the wrapped calls, and summed in ``Tracer.stats``; ``layer_metrics`` turns
them into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter

LAYERS = ("models", "numerics", "exact", "localization", "wkb",
          "experiments", "cli")
MODEL_CLASSES = ("TwoGaussianModel", "QuarticMeanFieldModel")

# Full symmetric eigendecomposition with eigenvectors costs about 9 n^3
# flops (Golub & Van Loan, Matrix Computations, 4th ed., sec. 8.3).  Both
# this and the byte count are computed from the basis sizes, not measured.
EIG_FLOPS_PER_N3 = 9.0
BYTES_PER_ENTRY = 8


class Tracer:
    """Records spans and per-layer counts for the calls it wraps."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stats: Counter = Counter()
        self.trace_id = ""
        self._stack: list[list] = []   # [span_id, time covered by children]
        self._depth: Counter = Counter()
        self._next_id = 0

    def call(self, layer, name, fn, args, kwargs):
        outer_layer = self._depth[layer] == 0
        outer_name = self._depth[name] == 0
        self._depth[layer] += 1
        self._depth[name] += 1
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0]
        self._stack.append(frame)
        result = None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception:
            if layer == "numerics" and outer_layer:
                self.stats["numerics.errors"] += 1
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._depth[layer] -= 1
            self._depth[name] -= 1
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            self.spans.append((span_id, self.trace_id, parent, name,
                               start, end))
            stats = self.stats
            stats[f"{layer}.self_ns"] += dur - frame[1]
            if outer_layer:
                stats[f"{layer}.calls"] += 1
                stats[f"{layer}.busy_ns"] += dur
            stats[f"{name}.calls"] += 1
            stats[f"{name}.ns"] += dur
            hook = _HOOKS.get(name)
            if hook is not None and result is not None:
                hook(self, result, dur, outer_name)

    def active(self, layer: str) -> bool:
        return self._depth[layer] > 0


def _on_exact_splitting(tracer, result, dur, outer):
    stats = tracer.stats
    stats["exact.basis_max"] = max(stats["exact.basis_max"],
                                   result.n_basis_used)
    stats["exact.unconverged"] += int(not result.converged)


def _on_build_hamiltonian(tracer, matrix, dur, outer):
    tracer.stats["exact.bytes_computed"] += BYTES_PER_ENTRY * matrix.n ** 2


def _on_eig(tracer, result, dur, outer):
    values, vectors = result
    n = vectors.shape[0]
    tracer.stats["exact.eig_flops_computed"] += EIG_FLOPS_PER_N3 * n ** 3


def _on_quad(tracer, result, dur, outer):
    stats = tracer.stats
    evals = result.evaluations
    if outer:
        stats["numerics.quad_calls"] += 1
        stats["numerics.quad_evals"] += evals
        stats["numerics.quad_ns"] += dur
    for layer in ("localization", "wkb"):
        if tracer.active(layer):
            stats[f"{layer}.quad_calls"] += 1
            stats[f"{layer}.quad_evals"] += evals


_HOOKS = {
    "exact.exact_splitting": _on_exact_splitting,
    "exact.build_hamiltonian": _on_build_hamiltonian,
    "numerics.eig_symmetric_lowest": _on_eig,
    "numerics.integrate_adaptive": _on_quad,
}


def _wrap(tracer, layer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(layer, name, fn, args, kwargs)
    return traced


def install(tracer: Tracer):
    """Wrap the public functions of every dwsplit module; return undo()."""
    replaced = []
    for layer in LAYERS:
        module = importlib.import_module(f"dwsplit.{layer}")
        for attr, fn in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            replaced.append((module, attr, fn))
            setattr(module, attr, _wrap(tracer, layer, f"{layer}.{attr}", fn))
    models = importlib.import_module("dwsplit.models")
    for cls_name in MODEL_CLASSES:
        cls = getattr(models, cls_name)
        fn = cls.__dict__["__post_init__"]
        replaced.append((cls, "__post_init__", fn))
        setattr(cls, "__post_init__",
                _wrap(tracer, "models", f"models.{cls_name}", fn))

    def undo():
        for owner, attr, fn in reversed(replaced):
            setattr(owner, attr, fn)
    return undo


def layer_metrics(stats: Counter, passes: int) -> dict[str, float]:
    """Per-layer metrics per pass (one sweep or one CLI process)."""
    s = {k: v / passes for k, v in stats.items()}

    def sec(key):
        return s.get(key, 0.0) * 1e-9

    built = s.get("exact.build_hamiltonian.calls", 0.0)
    return {
        "exact.calls": s.get("exact.exact_splitting.calls", 0.0),
        "exact.busy_s": sec("exact.busy_ns"),
        "exact.hamiltonian_s": sec("exact.build_hamiltonian.ns"),
        "exact.matrices_built": built,
        "exact.useful_ratio": (s.get("exact.exact_splitting.calls", 0.0)
                               / built if built else 0.0),
        "exact.basis_max": stats["exact.basis_max"],
        "exact.unconverged": s.get("exact.unconverged", 0.0),
        "exact.eig_flops_computed": s.get("exact.eig_flops_computed", 0.0),
        "exact.bytes_computed": s.get("exact.bytes_computed", 0.0),
        "numerics.eig_calls": s.get("numerics.eig_symmetric_lowest.calls",
                                    0.0),
        "numerics.eig_s": sec("numerics.eig_symmetric_lowest.ns"),
        "numerics.quad_calls": s.get("numerics.quad_calls", 0.0),
        "numerics.quad_evals": s.get("numerics.quad_evals", 0.0),
        "numerics.quad_s": sec("numerics.quad_ns"),
        "numerics.errors": s.get("numerics.errors", 0.0),
        "localization.calls": s.get("localization.calls", 0.0),
        "localization.busy_s": sec("localization.busy_ns"),
        "localization.quad_calls": s.get("localization.quad_calls", 0.0),
        "localization.quad_evals": s.get("localization.quad_evals", 0.0),
        "wkb.calls": s.get("wkb.calls", 0.0),
        "wkb.busy_s": sec("wkb.busy_ns"),
        "wkb.quad_evals": s.get("wkb.quad_evals", 0.0),
        "models.calls": s.get("models.calls", 0.0),
        "models.busy_s": sec("models.busy_ns"),
        "experiments.busy_s": sec("experiments.busy_ns"),
        "experiments.self_s": sec("experiments.self_ns"),
        "cli.import_s": sec("cli.import_ns"),
        "cli.main_s": sec("cli.main.ns"),
        "cli.self_s": sec("cli.self_ns"),
        "cli.output_bytes": s.get("cli.output_bytes", 0.0),
    }


def write_spans(path, spans) -> None:
    """One JSON array per line: id, trace, parent, name, start_ns, end_ns."""
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")
