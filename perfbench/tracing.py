"""Outside-in layer tracing of ffproj, installed from the benchmark's own files.

Nothing in ``src/`` knows about tracing.  ``Tracer.install`` replaces the
public functions of each ffproj module (and three methods) with wrappers
that record a span per call, and rebinds every ``ffproj.*`` namespace that
imported the original.  Spans live in flat in-memory arrays and are written
once, at the end, with :meth:`Tracer.save`.

A layer's self time is its span durations minus the durations of its child
spans.  Calls and work counts are recorded only at the outermost span of a
layer, so a layer function calling another function of the same layer
(``digits_of`` -> ``base_p_digits``) counts once.  A target that a later
version of ffproj no longer has is reported as absent and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

from workloads import identity_instances

MODULES = ("core", "subspaces", "projections", "energy", "fourier", "random_sets", "suite", "cli")


def _dft_counts(args, result):
    p, n = result.space.p, result.space.n
    # one length-p transform per axis over p^(n-1) lines: n p^(n+1) complex
    # multiply-adds; each axis reads and writes the complex128 array once
    return {"points": p**n, "cmacs_computed": n * p ** (n + 1), "bytes_computed": 2 * 16 * n * p**n}


# (module, function) -> (layer, work counter).  Public functions not listed
# here get their own layer "<module>.<function>" and count towards the module.
NAMED = {
    ("subspaces", "coset_labels"): ("subspaces.coset_labels", lambda a, r: {"points": len(r)}),
    ("subspaces", "rref_mod_p"): ("subspaces.rref", None),
    ("subspaces", "perp"): ("subspaces.perp", None),
    ("projections", "projection_sizes"): ("projections.projection_sizes",
                                          lambda a, r: {"directions": len(r[1])}),
    ("projections", "census_small_image"): ("projections.census", None),
    ("projections", "census_fractional_image"): ("projections.census", None),
    ("projections", "census_at_scales"): ("projections.census", None),
    ("energy", "verify_energy_identity"): ("energy.combinatorial", None),
    ("energy", "energy_over_all_planes"): ("energy.combinatorial", None),
    ("energy", "verify_energy_identity_fourier"): ("energy.spectral", None),
    ("energy", "key_lemma_check"): ("energy.key_lemma", None),
    ("fourier", "dft"): ("fourier.dft", _dft_counts),
    ("fourier", "character_sum"): ("fourier.character_sum", None),
    ("fourier", "paraboloid"): ("fourier.builtin", lambda a, r: {"points": r.space.point_count}),
    ("fourier", "sphere"): ("fourier.builtin", lambda a, r: {"points": r.space.point_count}),
    ("fourier", "salem_deficiency"): ("fourier.decay", None),
    ("fourier", "projection_bound_report"): ("fourier.decay", None),
    ("fourier", "save_spectrum_csv"): ("fourier.spectrum_csv",
                                       lambda a, r: {"rows": a[0].space.point_count}),
    ("core", "digits_of"): ("core.digits", lambda a, r: {"rows": r.size // max(1, r.shape[-1])}),
    ("core", "base_p_digits"): ("core.digits", lambda a, r: {"rows": r.size // max(1, r.shape[-1])}),
    ("core", "load_point_set"): ("core.load_point_set", lambda a, r: {"points": r.cardinality}),
    ("random_sets", "percolation_sample"): ("random_sets.sample",
                                            lambda a, r: {"points_drawn": a[0].space.point_count}),
    ("random_sets", "verify_small_regime"): ("random_sets.campaign", None),
    ("random_sets", "verify_large_regime"): ("random_sets.campaign", None),
    ("suite", "run_identity_suite"): ("suite", lambda a, r: {"instances": identity_instances(r)}),
}
# methods: (module, class, method) -> (layer, work counter)
METHODS = {
    ("subspaces", "Subspace", "__post_init__"): ("subspaces.subspace", None),
    ("subspaces", "Subspace", "point_indices"): ("subspaces.point_indices",
                                                 lambda a, r: {"points": len(r)}),
    ("core", "PointSet", "__init__"): ("core.point_set", None),
}
# generators timed per next(): (module, function) -> layer
GENERATORS = {("subspaces", "enumerate_grassmannian"): "subspaces.enumerate"}
# scalar codec calls are too frequent and too small for spans: counted only
COUNT_ONLY = {("core", "encode"): "core.codec_scalar", ("core", "decode"): "core.codec_scalar"}


def _subspace_key(W):
    return (W.space.p, W.space.n, W.basis)


class Tracer:
    """Span recorder with per-layer calls, work counters and distinct-object sets."""

    def __init__(self):
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._stack_layer = [-1]
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = {}
        self.absent: list[str] = []
        self._passes: list[tuple[int, Counter]] = []

    def layer_id(self, layer: str) -> int:
        if layer not in self._ids:
            self._ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._ids[layer]

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, layer: str, work=None, distinct_key=None, count_calls=True):
        lid = self.layer_id(layer)
        layer_arr, parent_arr = self.span_layer, self.span_parent
        start_arr, end_arr = self.span_start, self.span_end
        stack, stack_layer, counts = self._stack, self._stack_layer, self.counts
        calls_key = layer + ".calls"
        seen = self.distinct.setdefault(layer, set()) if distinct_key else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = stack_layer[-1] != lid
            i = len(start_arr)
            layer_arr.append(lid)
            parent_arr.append(stack[-1])
            end_arr.append(0.0)
            stack.append(i)
            stack_layer.append(lid)
            start_arr.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_arr[i] = clock()
                stack.pop()
                stack_layer.pop()
            if outer and count_calls:
                counts[calls_key] += 1
                if work is not None:
                    for key, value in work(args, result).items():
                        counts[f"{layer}.{key}"] += value
                if seen is not None:
                    seen.add(distinct_key(args[0]))
            return result

        return wrapper

    def _generator_wrapper(self, fn, layer: str):
        """Time each next() of a generator as one span of ``layer``."""
        step = self._span_wrapper(next, layer, count_calls=False)
        counts = self.counts
        seen = self.distinct.setdefault(layer, set())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[layer + ".calls"] += 1
            gen = fn(*args, **kwargs)
            while True:
                try:
                    item = step(gen)
                except StopIteration:
                    return
                counts[layer + ".yielded"] += 1
                seen.add(_subspace_key(item))
                yield item

        return wrapper

    def _count_wrapper(self, fn, layer: str):
        counts, key = self.counts, layer + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap ffproj's public functions and rebind them in every ffproj namespace."""
        replaced = {}  # id(original) -> (original, wrapper)
        modules = {}
        for mod_name in MODULES:
            try:
                modules[mod_name] = importlib.import_module(f"ffproj.{mod_name}")
            except ImportError:
                self.absent.append(f"ffproj.{mod_name}")
        targets = list(NAMED) + list(GENERATORS) + list(COUNT_ONLY)
        for key in targets:
            if not inspect.isfunction(getattr(modules.get(key[0]), key[1], None)):
                self.absent.append(".".join(key))
        for mod_name, module in modules.items():
            names = set(self._public_functions(module))
            names.update(n for m, n in targets if m == mod_name and f"{m}.{n}" not in self.absent)
            for name in sorted(names):
                fn = getattr(module, name)
                key = (mod_name, name)
                if key in COUNT_ONLY:
                    wrapper = self._count_wrapper(fn, COUNT_ONLY[key])
                elif key in GENERATORS:
                    wrapper = self._generator_wrapper(fn, GENERATORS[key])
                else:
                    layer, work = NAMED.get(key, (f"{mod_name}.{name}", None))
                    distinct = _subspace_key if layer == "subspaces.perp" else None
                    wrapper = self._span_wrapper(fn, layer, work, distinct)
                replaced[id(fn)] = (fn, wrapper)
        for (mod_name, cls_name, meth), (layer, work) in METHODS.items():
            cls = getattr(modules.get(mod_name), cls_name, None)
            fn = cls.__dict__.get(meth) if cls is not None else None
            if not inspect.isfunction(fn):
                self.absent.append(f"{mod_name}.{cls_name}.{meth}")
                continue
            setattr(cls, meth, self._span_wrapper(fn, layer, work))
        for mod_name, module in list(sys.modules.items()):
            if module is not None and (mod_name == "ffproj" or mod_name.startswith("ffproj.")):
                for attr, value in list(vars(module).items()):
                    hit = replaced.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(module, attr, hit[1])

    @staticmethod
    def _public_functions(module) -> list[str]:
        names = getattr(module, "__all__", None) or [
            n for n in vars(module) if not n.startswith("_")
        ]
        return [
            n for n in names
            if inspect.isfunction(getattr(module, n, None))
            and getattr(module, n).__module__ == module.__name__
        ]

    # -- passes and aggregation -------------------------------------------

    def begin_pass(self) -> None:
        for seen in self.distinct.values():
            seen.clear()
        self._passes.append((len(self.span_start), Counter(self.counts)))

    def end_pass(self) -> dict[str, float]:
        """Per-layer self times, calls, work counts and distinct ratios of the pass."""
        first, before = self._passes[-1]
        layer = np.frombuffer(self.span_layer, dtype=np.int32)[first:]
        parent = np.frombuffer(self.span_parent, dtype=np.int32)[first:].astype(np.int64)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)[first:]
               - np.frombuffer(self.span_start, dtype=np.float64)[first:])
        inside = parent >= first
        child = np.bincount(parent[inside] - first, weights=dur[inside], minlength=dur.size)
        self_time = np.bincount(layer, weights=dur - child, minlength=len(self.layers))
        out: dict[str, float] = {}
        modules: dict[str, float] = {}
        for lid, name in enumerate(self.layers):
            out[name + ".self_s"] = float(self_time[lid])
            module = name.split(".", 1)[0] + ".self_s"
            modules[module] = modules.get(module, 0.0) + float(self_time[lid])
        out.update(modules)  # the layer "suite" is its whole module
        for key, value in (self.counts - before).items():
            out[key] = value
        for name, seen in self.distinct.items():
            total = out.get(name + (".yielded" if name == "subspaces.enumerate" else ".calls"), 0)
            out[name + ".distinct_ratio"] = len(seen) / total if total else 0.0
        return out

    def save(self, path: str) -> None:
        """Write every span, once, as arrays (layer id, parent span, start, end)."""
        np.savez(
            path,
            layers=np.array(self.layers),
            layer=np.frombuffer(self.span_layer, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            pass_first_span=np.array([p[0] for p in self._passes], dtype=np.int64),
        )
