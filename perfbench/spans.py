"""Spans and counts recorded around calls into sftkit's layers.

The tracer wraps public functions of the ``sftkit`` modules from outside: it
replaces every module attribute (and class attribute) bound to a wrapped
function, so calls through ``from .x import f`` bindings are seen too.  The
program itself is not changed.

A span's self time is its duration minus the time covered by its child
spans.  Spans are folded into per-round totals as they close, so memory stays
flat however many spans a round records.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from fractions import Fraction

# Span name -> (module, attribute path) of the wrapped callable.  A path with
# a dot is a method on a class of that module.
SPANS = {
    "ring.rank_q": ("ring", "_rank_q"),
    "ring.smith": ("ring", "smith_normal_form"),
    "ring.matmul": ("ring", "ExactMatrix.__matmul__"),
    "dga.word_basis": ("dga", "word_basis"),
    "dga.apply_differential": ("dga", "DGA.apply_differential"),
    "dga.word_complex": ("dga", "word_complex"),
    "dga.homology": ("dga", "homology"),
    "cyclic.cyclic_basis": ("cyclic", "cyclic_basis"),
    "cyclic.rotation_class": ("cyclic", "rotation_class"),
    "cyclic.cyclic_complex": ("cyclic", "cyclic_complex"),
    "cli.build_parser": ("cli", "build_parser"),
    "cli.main": ("cli", "main"),
}
# Whole layers: every public function defined in the module is one span name.
LAYER_MODULES = ("czindex", "energy", "trees", "models")

# Per-layer metrics reported by a traced run and their units, in
# BENCHMARK.json order.
PER_LAYER = {
    "ring.rank_q.s": "s", "ring.rank_q.calls": "count", "ring.rank_q.cells": "count",
    "ring.rank_q.nnz": "count",
    "ring.smith.s": "s", "ring.smith.calls": "count", "ring.smith.max_coeff_bits": "bits",
    "ring.matmul.s": "s",
    "dga.word_basis.s": "s", "dga.word_basis.words": "count",
    "dga.apply_differential.s": "s", "dga.apply_differential.calls": "count",
    "dga.normalize_word.calls": "count", "dga.word_complex.s": "s", "dga.homology.s": "s",
    "cyclic.cyclic_basis.s": "s", "cyclic.rotation_class.s": "s",
    "cyclic.rotation_class.calls": "count", "cyclic.classes": "count",
    "cyclic.class_yield": "ratio",
    "cyclic.cyclic_complex.s": "s", "cyclic.boundary_nnz": "count",
    "models.hc_window.basis_passes": "count",
    "cli.build_parser.s": "s", "cli.main.s": "s",
    "czindex.s": "s", "energy.s": "s", "trees.s": "s", "models.s": "s",
    "setup.import.s": "s", "setup.inputs.s": "s",
}


def _bits(x) -> int:
    """Largest numerator or denominator bit length of a Fraction or UPoly."""
    coeffs = getattr(x, "coeffs", (x,))
    return max((max(Fraction(c).numerator.bit_length(), Fraction(c).denominator.bit_length())
                for c in coeffs), default=0)


class Tracer:
    """Records span self times and counts per round while installed."""

    def __init__(self):
        self.totals = defaultdict(float)
        self._stack = []  # child time accumulated per open span
        self._open = defaultdict(int)  # open spans per label
        self._patched = []  # (owner, attribute, original)
        self.rounds = []

    # recording ------------------------------------------------------------

    def _span(self, name, label, fn, after=None):
        totals, stack, open_labels = self.totals, self._stack, self._open
        clock = time.perf_counter
        self_key, calls_key = name + ".s", label + ".calls"

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            open_labels[label] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                open_labels[label] -= 1
                children = stack.pop()
                totals[self_key] += duration - children
                totals[calls_key] += 1
                if stack:
                    stack[-1] += duration
            if after is not None:
                hook_start = clock()
                after(args, result)
                if stack:  # keep the hook's own cost out of the caller's self time
                    stack[-1] += clock() - hook_start
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        totals = self.totals

        def wrapper(*args, **kwargs):
            totals[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # per-span counts --------------------------------------------------------

    def _after_rank_q(self, args, result):
        rows = args[0]
        self.totals["ring.rank_q.cells"] += len(rows) * (len(rows[0]) if rows else 0)
        self.totals["ring.rank_q.nnz"] += sum(1 for r in rows for x in r if x)

    def _after_smith(self, args, result):
        bits = max((_bits(x) for m in (result.diagonal, result.left, result.right,
                                       result.left_inverse, result.right_inverse)
                    for row in m.rows for x in row), default=0)
        key = "ring.smith.max_coeff_bits"
        self.totals[key] = max(self.totals[key], bits)

    def _after_word_basis(self, args, result):
        self.totals["dga.word_basis.words"] += len(result)
        if self._open["cyclic.cyclic_basis"]:
            self.totals["cyclic.basis_words"] += len(result)

    def _after_cyclic_basis(self, args, result):
        self.totals["cyclic.classes"] += sum(len(v) for v in result.values())
        if self._open["models.hc_window"]:
            self.totals["models.hc_window.basis_calls"] += 1

    def _after_cyclic_complex(self, args, result):
        self.totals["cyclic.boundary_nnz"] += sum(
            1 for m in result.boundary.values() for row in m.rows for x in row if x)

    # installation ------------------------------------------------------------

    def _replace(self, original, replacement):
        """Rebind every sftkit module or class attribute that is ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("sftkit") or mod is None:
                continue
            owners = [mod] + [v for v in vars(mod).values()
                              if isinstance(v, type) and v.__module__ == mod_name]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patched.append((owner, attr, original))
                        setattr(owner, attr, replacement)

    def install(self):
        import sftkit.cli  # noqa: F401  (loads every layer)

        after = {
            "ring.rank_q": self._after_rank_q,
            "ring.smith": self._after_smith,
            "dga.word_basis": self._after_word_basis,
            "cyclic.cyclic_basis": self._after_cyclic_basis,
            "cyclic.cyclic_complex": self._after_cyclic_complex,
        }
        for name, (mod_name, path) in SPANS.items():
            owner = sys.modules["sftkit." + mod_name]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            fn = vars(owner)[attr]
            self._replace(fn, self._span(name, name, fn, after.get(name)))
        for mod_name in LAYER_MODULES:
            mod = sys.modules["sftkit." + mod_name]
            for attr, fn in list(vars(mod).items()):
                if (callable(fn) and not isinstance(fn, type) and not attr.startswith("_")
                        and getattr(fn, "__module__", None) == mod.__name__):
                    self._replace(fn, self._span(mod_name, f"{mod_name}.{attr}", fn))
        dga_cls = sys.modules["sftkit.dga"].DGA
        self._replace(dga_cls.normalize_word,
                      self._counter("dga.normalize_word.calls", dga_cls.normalize_word))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # rounds ------------------------------------------------------------------

    def end_round(self):
        """Close the current round's totals and start the next round."""
        self.rounds.append(dict(self.totals))
        self.totals.clear()

    def per_layer(self, setup_import_s, setup_inputs_s):
        """Median over rounds of every per-layer metric, with its unit."""
        from statistics import median

        def med(key):
            return median(r.get(key, 0) for r in self.rounds)

        out = {}
        for metric, unit in PER_LAYER.items():
            if metric == "cyclic.class_yield":
                words = med("cyclic.basis_words")
                value = med("cyclic.classes") / words if words else 0.0
            elif metric == "models.hc_window.basis_passes":
                calls = med("models.hc_window.calls")
                value = med("models.hc_window.basis_calls") / calls if calls else 0.0
            elif metric == "setup.import.s":
                value = setup_import_s
            elif metric == "setup.inputs.s":
                value = setup_inputs_s
            else:
                value = med(metric)
            out[metric] = {"value": value, "unit": unit}
        return out
