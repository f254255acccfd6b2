"""Spans at the layer boundaries of spwaves, recorded from outside the package.

The tracer wraps, in freshly imported spwaves modules:

- every public function and every public method of a public class, under
  the layer named after its module (``grid``, ``profiles``, ``energy``,
  ``minimize``);
- the ``SpectralWorkspace.kernel_hat`` property, on its first access per
  workspace, as ``grid.kernel_build``;
- the flow (``minimize._normalized_flow``) and the objective callables it
  receives (every class in ``minimize`` with a ``__call__``);
- the ``scipy.fft`` transforms, counted under ``grid`` whoever calls them.

A span is ``[name, layer, start, end, parent, attrs]``; spans are kept in
memory and written out as JSON lines once the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
import weakref

import numpy as np
import scipy.fft

LAYERS = ("grid", "profiles", "energy", "minimize")
FFT_NAMES = (
    "fft", "ifft", "rfft", "irfft",
    "fft2", "ifft2", "rfft2", "irfft2",
    "fftn", "ifftn", "rfftn", "irfftn",
)
FLOW = "_normalized_flow"
FLOW_SPAN = f"minimize.{FLOW}"
COULOMB = ("grid.SpectralWorkspace.coulomb", "grid.SpectralWorkspace.coulomb_padded")
KERNEL_BUILD = "grid.kernel_build"
SAMPLES = ("profiles.sample_rho", "profiles.sample_x_grad_rho")
# unit of each per-layer metric, by the part of its name after the layer
UNITS = {
    "coulomb_calls": "count",
    "coulomb_s": "s",
    "coulomb_ms_p50": "ms",
    "coulomb_ms_1cpu": "ms",
    "fft_calls": "count",
    "fft_s": "s",
    "fft_bytes_computed": "bytes",
    "kernel_builds": "count",
    "kernel_build_s": "s",
    "iterations": "count",
    "evals": "count",
    "grad_evals": "count",
    "evals_per_iter": "ratio",
    "coulomb_per_iter": "ratio",
    "accept_ratio": "ratio",
    "breakdown_calls": "count",
    "breakdown_s": "s",
    "grad_calls": "count",
    "grad_s": "s",
    "sample_calls": "count",
    "sample_s": "s",
    "self_s": "s",
    "grad_res": "ratio",
    "converged": "ratio",
    "overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _call(self, name, layer, fn, args, kwargs, attrs=None):
        idx = len(self.spans)
        rec = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, attrs]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, layer, fn, args, kwargs)

        return traced

    def _wrap_fft(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {"bytes": 0}
            out = self._call(f"grid.fft.{name}", "grid", fn, args, kwargs, attrs)
            x = args[0] if args else kwargs["x"]
            attrs["bytes"] = int(np.asarray(x).nbytes + out.nbytes)
            return out

        return traced

    def _wrap_objective(self, name, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            attrs = {"need_grad": bool(bound.arguments.get("need_grad", True))}
            return self._call(name, "minimize", fn, args, kwargs, attrs)

        return traced

    def _wrap_kernel_hat(self, prop):
        built = weakref.WeakSet()
        getter = prop.fget

        def traced(ws):
            if ws in built:
                return getter(ws)
            built.add(ws)
            return self._call(KERNEL_BUILD, "grid", getter, (ws,), {})

        return property(traced, prop.fset, prop.fdel, prop.__doc__)

    # -- installing --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, sw) -> None:
        """Wrap the boundaries of the spwaves modules held by ``sw``."""
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = getattr(sw, layer)
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (not attr.startswith("_") or attr == FLOW):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", layer, obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(layer, obj)
        for name in FFT_NAMES:
            orig = getattr(scipy.fft, name)
            wrapped[id(orig)] = (orig, self._wrap_fft(name, orig))
            self._set(scipy.fft, name, wrapped[id(orig)][1])
        # rebind every name a spwaves module holds for a wrapped callable
        for key, mod in list(sys.modules.items()):
            if not key.startswith("spwaves.") or mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def _install_class(self, layer, cls):
        prefix = f"{layer}.{cls.__qualname__}"
        for attr, obj in list(vars(cls).items()):
            if attr == "__call__" and layer == "minimize" and inspect.isfunction(obj):
                self._set(cls, attr, self._wrap_objective(f"{prefix}.__call__", obj))
            elif attr.startswith("_") or cls.__name__.startswith("_"):
                continue
            elif attr == "kernel_hat" and isinstance(obj, property):
                self._set(cls, attr, self._wrap_kernel_hat(obj))
            elif inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(f"{prefix}.{attr}", layer, obj))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reporting ---------------------------------------------------------

    def write(self, path) -> None:
        keys = ("name", "layer", "start", "end", "parent", "attrs")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")

    def layer_metrics(self, flows) -> dict[str, float]:
        """Per-layer counts and times; ``flows`` lists (iterations, converged,
        grad_res or None) for each flow the workload reported."""
        spans = self.spans
        dur = [s[3] - s[2] for s in spans]
        child = [0.0] * len(spans)
        for s, d in zip(spans, dur):
            if s[4] >= 0:
                child[s[4]] += d

        def named(names):
            return [i for i, s in enumerate(spans) if s[0] in names]

        def under(i, names):
            p = spans[i][4]
            while p >= 0:
                if spans[p][0] in names:
                    return True
                p = spans[p][4]
            return False

        coulomb = [i for i in named(COULOMB) if not under(i, COULOMB)]
        builds = named((KERNEL_BUILD,))
        build_in = [0.0] * len(spans)
        for i in builds:
            p = spans[i][4]
            while p >= 0:
                build_in[p] += dur[i]
                p = spans[p][4]
        coulomb_t = [dur[i] - build_in[i] for i in coulomb]
        ffts = [i for i, s in enumerate(spans) if s[0].startswith("grid.fft.")]
        objective = [i for i, s in enumerate(spans) if s[5] is not None and "need_grad" in s[5]]
        # each flow opens with one gradient evaluation; every later one follows an accepted step
        in_flow = [i for i in objective if under(i, (FLOW_SPAN,))]
        trials = sum(1 for i in in_flow if not spans[i][5]["need_grad"])
        accepted = sum(1 for i in in_flow if spans[i][5]["need_grad"]) - len(named((FLOW_SPAN,)))
        iterations = sum(f[0] for f in flows)
        grad_res = [f[2] for f in flows if f[2] is not None]

        def total(idx):
            return float(sum(dur[i] for i in idx))

        m = {
            "grid.coulomb_calls": len(coulomb),
            "grid.coulomb_s": float(sum(coulomb_t)),
            "grid.coulomb_ms_p50": 1e3 * statistics.median(coulomb_t) if coulomb_t else 0.0,
            "grid.fft_calls": len(ffts),
            "grid.fft_s": total(ffts),
            "grid.fft_bytes_computed": sum(spans[i][5]["bytes"] for i in ffts),
            "grid.kernel_builds": len(builds),
            "grid.kernel_build_s": total(builds),
            "minimize.iterations": iterations,
            "minimize.evals": len(objective),
            "minimize.grad_evals": sum(1 for i in objective if spans[i][5]["need_grad"]),
            "minimize.evals_per_iter": len(objective) / iterations if iterations else 0.0,
            "minimize.coulomb_per_iter": len(coulomb) / iterations if iterations else 0.0,
            "minimize.accept_ratio": accepted / trials if trials else 0.0,
            "energy.breakdown_calls": len(named(("energy.energy_breakdown",))),
            "energy.breakdown_s": total(named(("energy.energy_breakdown",))),
            "energy.grad_calls": len(named(("energy.grad_E",))),
            "energy.grad_s": total(named(("energy.grad_E",))),
            "profiles.sample_calls": len(named(SAMPLES)),
            "profiles.sample_s": total(named(SAMPLES)),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = float(
                sum(d - c for s, d, c in zip(spans, dur, child) if s[1] == layer)
            )
        m["minimize.grad_res"] = max(grad_res) if grad_res else 0.0
        m["minimize.converged"] = sum(1 for f in flows if f[1]) / len(flows) if flows else 0.0
        return m
