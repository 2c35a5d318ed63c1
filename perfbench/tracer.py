"""Span tracer for the benchmark's traced run.

The freqcert modules import each other with ``from .x import y``, so every
call goes through the name bound in the *calling* module. The tracer therefore
wraps each binding where it is looked up (``freqcert.certify.hinf_norm``,
``freqcert.gain.is_schur``, ...), not only the defining module. Wrappers are
installed by :meth:`Tracer.install` and removed by :meth:`Tracer.remove`, so an
untraced pass runs the original functions.

Calls to ``numpy.roots`` and ``numpy.linalg.solve`` are counted and charged to
the innermost open span. Spans stay in memory until :meth:`Tracer.write_spans`
is called at the end of the run.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from array import array
from collections import defaultdict

import numpy

ROOT_SPAN = "(op)"


def _grid_points(args, kwargs, result):
    # Mirrors freqcert.gain.hinf_norm: max(GRID_MIN, GRID_PER_DEGREE * deg, grid_points).
    gain = importlib.import_module("freqcert.gain")
    deg = len(args[0].den) - 1
    requested = kwargs.get("grid_points", args[1] if len(args) > 1 else None) or 0
    return {"gain.grid_points": max(gain.GRID_MIN, gain.GRID_PER_DEGREE * max(deg, 1), requested)}


def _steps(args, kwargs, result):
    return {"dynamics.steps": len(result.distances) - 1}


# (module, attribute path, span name, extra counter hook). One entry per
# binding through which the library or the benchmark calls the function.
SPAN_SITES = [
    ("freqcert.transfer", "RationalTF.from_coeffs", "transfer.RationalTF.from_coeffs", None),
    ("freqcert.certify", "build_transfer", "transfer.build_transfer", None),
    ("freqcert.cli", "build_transfer", "transfer.build_transfer", None),
    ("freqcert.certify", "complementary_sensitivity", "transfer.complementary_sensitivity", None),
    ("freqcert.certify", "rho_scale", "transfer.rho_scale", None),
    ("freqcert.certify", "is_schur", "stability.is_schur", None),
    ("freqcert.gain", "is_schur", "stability.is_schur", None),
    ("freqcert.certify", "hinf_norm", "gain.hinf_norm", _grid_points),
    ("freqcert.certify", "certify", "certify.certify", None),
    ("freqcert.cli", "certify", "certify.certify", None),
    ("freqcert.certify", "best_rate", "certify.best_rate", None),
    ("freqcert.cli", "best_rate", "certify.best_rate", None),
    ("freqcert.certify", "max_learning_rate", "certify.max_learning_rate", None),
    ("freqcert.cli", "main", "cli.main", None),
    ("freqcert.dynamics", "run", "dynamics.run", _steps),
    ("freqcert.cli", "run", "dynamics.run", _steps),
    ("freqcert.dynamics", "apply_noise", "dynamics.apply_noise", None),
    ("freqcert.dynamics", "estimate_rate", "dynamics.estimate_rate", None),
    ("freqcert.dynamics", "eval_operator", "operators.eval_operator", None),
    ("freqcert.operators", "eval_operator", "operators.eval_operator", None),
    ("freqcert.dynamics", "derived_sector", "operators.derived_sector", None),
    ("freqcert.games", "BilinearGame.from_matrix", "games.BilinearGame.from_matrix", None),
    ("freqcert.games", "bilinear_threshold", "games.bilinear_threshold", None),
    ("freqcert.games", "spectrum_curve", "games.spectrum_curve", None),
    ("freqcert.cli", "spectrum_curve", "games.spectrum_curve", None),
]

# Counted without opening a span, so numpy calls under them stay charged to
# the public entry point that caused them (is_schur, bilinear_threshold, ...).
COUNT_SITES = [
    ("freqcert.stability", "roots", "stability.roots.calls"),
    ("freqcert.games", "roots", "stability.roots.calls"),
    ("freqcert.stability", "spectral_radius_poly", "stability.spectral_radius_poly.calls"),
    ("freqcert.games", "spectral_radius_poly", "stability.spectral_radius_poly.calls"),
]

# numpy functions charged to the innermost open span.
CHARGED = [
    (numpy, "roots", "np_roots_calls"),
    (numpy.linalg, "solve", "linalg_solve_calls"),
]


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Tracer:
    """Collects spans and counters while installed; use one per traced pass."""

    def __init__(self):
        self._saved = []
        self._stack = []  # [name, start_ns, child_ns, span_id]
        self.op_index = -1
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.charged = defaultdict(int)  # (span name, counter) -> count
        self.counters = defaultdict(int)
        self._names = []
        self._name_ids = {}
        self._next_id = 0
        self._span_id = array("q")
        self._span_name = array("H")
        self._span_parent = array("q")
        self._span_op = array("q")
        self._span_start = array("q")
        self._span_end = array("q")

    # -- installation --------------------------------------------------
    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, path, span, hook in SPAN_SITES:
            owner, attr = _resolve(module_name, path)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._span_wrapper(raw.__func__, span, hook))
            else:
                new = self._span_wrapper(raw, span, hook)
            self._patch(owner, attr, raw, new)
        for module_name, path, counter in COUNT_SITES:
            owner, attr = _resolve(module_name, path)
            raw = owner.__dict__[attr]
            self._patch(owner, attr, raw, self._count_wrapper(raw, counter))
        for owner, attr, counter in CHARGED:
            raw = getattr(owner, attr)
            self._patch(owner, attr, raw, self._charge_wrapper(raw, counter))

    def remove(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _patch(self, owner, attr, raw, new):
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    # -- wrappers ------------------------------------------------------
    def _span_wrapper(self, fn, span, hook):
        enter, leave, counters = self.enter, self.leave, self.counters

        def traced(*args, **kwargs):
            enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    counters[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, fn, counter):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _charge_wrapper(self, fn, counter):
        stack, charged = self._stack, self.charged

        def charged_call(*args, **kwargs):
            owner = stack[-1][0] if stack else ROOT_SPAN
            charged[(owner, counter)] += 1
            return fn(*args, **kwargs)

        charged_call.__wrapped__ = fn
        return charged_call

    # -- spans ---------------------------------------------------------
    def enter(self, name):
        self._stack.append([name, time.perf_counter_ns(), 0, self._next_id])
        self._next_id += 1

    def leave(self):
        end = time.perf_counter_ns()
        name, start, child_ns, span_id = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_ns[name] += duration - child_ns
        parent = -1
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        self._span_id.append(span_id)
        self._span_name.append(name_id)
        self._span_parent.append(parent)
        self._span_op.append(self.op_index)
        self._span_start.append(start)
        self._span_end.append(end)

    @property
    def span_count(self) -> int:
        return len(self._span_start)

    def write_spans(self, path):
        """Write the recorded spans as gzip JSON lines
        ``[span_id, parent_id, op, name, start_ns, end_ns]``; ``parent_id`` is
        -1 for a span opened directly by the op numbered ``op``."""
        t0 = min(self._span_start, default=0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i in range(len(self._span_start)):
                fh.write(json.dumps([
                    self._span_id[i],
                    self._span_parent[i],
                    self._span_op[i],
                    self._names[self._span_name[i]],
                    self._span_start[i] - t0,
                    self._span_end[i] - t0,
                ]) + "\n")
