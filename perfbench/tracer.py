"""Outside-in layer tracer: exclusive (self) time per repro layer.

The tracer never edits the simulator. It replaces, from the outside,
the entry points through which one layer calls another, and the
engine's ``schedule`` so that every fired callback becomes a span:

* each event callback is charged to the layer that owns its code, as
  :func:`repro.prof.phases.phase_of_code` classifies it, renamed after
  the repo module (``throttle`` -> ``iocontrol.throttle``, ...). The
  one exception is ``repro.sim`` code: one queued-server class models
  CPU cores, flash units, the bus and dispatch locks, so its callbacks
  belong to the layer whose span scheduled them;
* a synchronous call into another layer's public entry point (see
  :data:`METHODS` and :data:`FUNCTIONS`) opens a child span; a call
  into the layer that is already running does not. A completion
  callback handed to an entry point (:data:`CALLBACK_ARGS`) is wrapped
  too, so the code it runs is charged to the layer that owns it;
* a span's self time is its duration minus its children's durations.

Spans are folded into per-layer ``[self_s, calls]`` totals as they
close; nothing is kept per event. :meth:`Tracer.section` switches the
totals dict, so set-up and the timed section are reported apart.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

#: repro.prof phase -> the repo module the layer is named after.
PHASE_LAYERS = {
    "workload": "workloads",
    "cpu": "cpu",
    "throttle": "iocontrol.throttle",
    "dispatch": "iocontrol.dispatch",
    "device": "ssd",
    "faults": "faults",
    "obs": "obs",
    "pagecache": "fs",
    "host": "core.host",
    "metrics": "metrics",
    "other": "other",
}

#: (module, class, methods, layer): cross-layer entry points on a class
#: and on every loaded subclass that overrides them. The engine's run
#: loops and ``schedule`` are wrapped per engine core class the same way.
METHODS = (
    # Host glue: construction, the run set-up and the callbacks the
    # host hands to apps, dispatch engines and the retry coordinator.
    (
        "repro.core.host",
        "Host",
        (
            "__init__",
            "run",
            "_submit",
            "_on_device_complete",
            "_enter_block_layer",
            "_route_to_block_layer",
        ),
        "core.host",
    ),
    ("repro.iocontrol.base", "ThrottleLayer", ("submit", "on_complete"), "iocontrol.throttle"),
    ("repro.iocontrol.dispatch", "DispatchEngine", ("submit", "submit_batch"), "iocontrol.dispatch"),
    ("repro.ssd.device", "SimulatedNvmeDevice", ("submit", "submit_batch"), "ssd"),
    ("repro.cpu.cores", "CoreSet", ("charge",), "cpu"),
    ("repro.metrics.collector", "MetricsCollector", ("on_complete",), "metrics"),
    ("repro.workloads.generator", "App", ("on_complete",), "workloads"),
    ("repro.ctl.plane", "ControlPlane", ("on_sample",), "ctl"),
    ("repro.exec.cache", "ResultCache", ("get",), "exec.cache.get"),
    ("repro.exec.cache", "ResultCache", ("put",), "exec.cache.put"),
    ("repro.surrogate.model", "SurrogateModel", ("predict",), "surrogate.predict"),
)

#: (class, method) -> index of the completion-callback argument.
CALLBACK_ARGS = {
    ("CoreSet", "charge"): 2,
    ("SimulatedNvmeDevice", "submit"): 2,
}

#: Public ScenarioSummary accessors, all charged to ``exec.summary_read``.
SUMMARY_ACCESSORS = (
    "window_us",
    "events_per_sec",
    "app_names",
    "cgroup_of",
    "series_of",
    "window_latencies",
    "app_stats_window",
    "app_stats",
    "all_app_stats",
    "cgroup_stats",
    "latency_cdf",
    "total_bytes",
    "aggregate_bandwidth_gib_s",
    "equivalent_bandwidth_gib_s",
    "fairness",
    "describe",
)

#: (module, functions, layer): cross-layer entry points that are plain
#: functions. Every loaded ``repro`` module that imported one by name
#: gets the wrapper too.
FUNCTIONS = (
    ("repro.exec.cachekey", ("scenario_key",), "exec.key"),
    ("repro.exec.summary", ("summarize",), "exec.summarize"),
    (
        "repro.tune.search",
        (
            "search",
            "binary_search",
            "coordinate_descent",
            "random_halving",
            "grid_search",
            "surrogate_search",
            "surrogate_pool",
        ),
        "tune.search",
    ),
    ("repro.surrogate.model", ("fit_surrogate",), "surrogate.fit"),
    ("repro.surrogate.features", ("featurize",), "surrogate.features"),
)


class Section:
    """Per-layer totals plus the counters read off executed summaries."""

    def __init__(self) -> None:
        self.layers: dict[str, list] = {}
        self.cache_bytes = 0
        self.cache_hits = 0
        self.ctl_applied = 0.0
        self.ctl_steps = 0.0
        self.fault_retries = 0.0


class Tracer:
    """Span stack folding closed spans into the current section."""

    def __init__(self) -> None:
        self.stack: list[list] = [["", 0.0, 0.0]]
        self.current = Section()
        self._layer_of_code: dict = {}

    def section(self) -> Section:
        """Start a fresh section and return it."""
        self.current = Section()
        return self.current

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer`` (or inline if already there)."""
        stack = self.stack
        if stack[-1][0] == layer:
            return fn(*args, **kwargs)
        frame = [layer, perf_counter(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - frame[1]
            stack.pop()
            stack[-1][2] += elapsed
            totals = self.current.layers.get(layer)
            if totals is None:
                totals = self.current.layers[layer] = [0.0, 0]
            totals[0] += elapsed - frame[2]
            totals[1] += 1

    def layer_of(self, fn) -> str | None:
        """Layer owning a callback (None: the scheduling span's), memoized."""
        target = fn
        while isinstance(target, functools.partial):
            target = target.func
        target = getattr(target, "__func__", target)
        code = getattr(target, "__code__", None)
        try:
            return self._layer_of_code[code]
        except KeyError:
            pass
        from repro.prof.phases import phase_of_code

        if code is None:
            layer = "other"
        elif "repro/sim/" in code.co_filename.replace("\\", "/"):
            layer = None
        else:
            layer = PHASE_LAYERS.get(phase_of_code(code), "other")
        self._layer_of_code[code] = layer
        return layer

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def wrap(self, layer: str, fn, after=None, callback_arg: int | None = None):
        """``fn`` as a span of ``layer``.

        ``after(args, result)`` sees every return; positional argument
        ``callback_arg``, a completion callback, is wrapped in a span of
        the layer that owns it.
        """
        call = self.call
        layer_of = self.layer_of

        if callback_arg is not None:

            def traced(*args, **kwargs):
                done = args[callback_arg]
                done_layer = layer_of(done) or layer
                args = (
                    args[:callback_arg]
                    + (lambda *a: call(done_layer, done, *a),)
                    + args[callback_arg + 1 :]
                )
                return call(layer, fn, *args, **kwargs)

        elif after is None:

            def traced(*args, **kwargs):
                return call(layer, fn, *args, **kwargs)

        else:

            def traced(*args, **kwargs):
                result = call(layer, fn, *args, **kwargs)
                after(args, result)
                return result

        return functools.wraps(fn)(traced)

    def install(self) -> list[str]:
        """Wrap every entry point; call after the workload's imports.

        Returns the entry points this source tree does not have: they
        are skipped, and their time stays with the caller's layer.
        """
        import importlib

        from repro.exec.summary import ScenarioSummary
        from repro.sim import engine

        for cls in _with_subclasses(engine.Simulator):
            if "schedule" in cls.__dict__:
                cls.schedule = self._traced_schedule(cls.__dict__["schedule"])
            for name in ("run_until", "run"):
                if name in cls.__dict__:
                    setattr(cls, name, self.wrap("sim", cls.__dict__[name]))
        hooks = {
            ("ResultCache", "get"): self._after_cache_get,
            ("ResultCache", "put"): self._after_cache_put,
        }
        missing = []
        for module_name, class_name, names, layer in METHODS:
            base = getattr(importlib.import_module(module_name), class_name, None)
            for name in names:
                if base is None or not hasattr(base, name):
                    missing.append(f"{module_name}.{class_name}.{name}")
                    continue
                for cls in _with_subclasses(base):
                    if name in cls.__dict__:
                        wrapped = self.wrap(
                            layer,
                            cls.__dict__[name],
                            hooks.get((class_name, name)),
                            CALLBACK_ARGS.get((class_name, name)),
                        )
                        setattr(cls, name, wrapped)
        for name in SUMMARY_ACCESSORS:
            attr = ScenarioSummary.__dict__.get(name)
            if attr is None:
                missing.append(f"repro.exec.summary.ScenarioSummary.{name}")
                continue
            if isinstance(attr, property):
                attr = property(self.wrap("exec.summary_read", attr.fget))
            else:
                attr = self.wrap("exec.summary_read", attr)
            setattr(ScenarioSummary, name, attr)
        for module_name, names, layer in FUNCTIONS:
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    missing.append(f"{module_name}.{name}")
                    continue
                after = self._after_summarize if name == "summarize" else None
                _rebind(original, self.wrap(layer, original, after))
        return missing

    def _traced_schedule(self, schedule):
        call = self.call
        layer_of = self.layer_of
        stack = self.stack

        def traced_schedule(sim, delay_us, fn):
            layer = layer_of(fn) or stack[-1][0]
            return schedule(sim, delay_us, lambda: call(layer, fn))

        return functools.wraps(schedule)(traced_schedule)

    def _after_cache_get(self, args, summary) -> None:
        if summary is not None:
            cache, key = args[0], args[1]
            self.current.cache_hits += 1
            self.current.cache_bytes += cache.path_for(key).stat().st_size

    def _after_cache_put(self, args, _result) -> None:
        cache, key = args[0], args[1]
        self.current.cache_bytes += cache.path_for(key).stat().st_size

    def _after_summarize(self, _args, summary) -> None:
        section = self.current
        for key, value in summary.ctl_counters.items():
            if key.endswith(".applied"):
                section.ctl_applied += value
        section.ctl_steps += summary.ctl_counters.get("steps", 0.0)
        section.fault_retries += summary.fault_counters.get("retries", 0.0)


def _with_subclasses(cls: type) -> list[type]:
    """``cls`` and every loaded subclass of it, recursively."""
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _with_subclasses(sub) if c not in found)
    return found


def _rebind(original, replacement) -> None:
    """Point every loaded repro module's reference to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
