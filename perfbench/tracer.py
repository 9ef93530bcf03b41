"""Per-layer spans around the public functions of resavg, from outside it.

install() replaces every public module-level function of the six layer
modules with a timing wrapper, in every resavg module namespace that
holds it (the defining module, the modules that imported it by name and
the package itself), so internal calls are timed too.  A layer's self
time is the duration of its spans minus the part covered by child spans,
plus the import of its module, which the traced process does for every
layer (so a layer the workload never calls still reads its import cost);
its errors are the exceptions that leave any of its wrapped functions.
Generators are timed per resumption, so the consumer's work between
items is not charged to the generator's layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

# In import-dependency order, so that timing each import in turn charges
# a layer only for its own module.
LAYERS = ("tower", "primes", "integers", "linear", "grigorchuk", "cli")


class Tracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.max_l_bits = 0
        # One [layer, child_seconds] entry per open span.
        self.stack: list[list] = []

    def _enter(self, layer: str) -> float:
        self.stack.append([layer, 0.0])
        return time.perf_counter()

    def _exit(self, start: float) -> None:
        elapsed = time.perf_counter() - start
        layer, child = self.stack.pop()
        self.self_s[layer] += elapsed - child
        if self.stack:
            self.stack[-1][1] += elapsed

    def wrap(self, layer: str, fn):
        count = self._counter(layer, fn.__name__)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[layer] += 1
                gen = fn(*args, **kwargs)
                if count:
                    count(args, kwargs, gen)
                return self._iterate(layer, gen)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[layer] += 1
            start = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                self._exit(start)
            if count:
                count(args, kwargs, result)
            return result
        return wrapper

    def _iterate(self, layer, gen):
        while True:
            start = self._enter(layer)
            try:
                item = next(gen)
            except StopIteration:
                return
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                self._exit(start)
            yield item

    def _counter(self, layer: str, name: str):
        """Work counter updated after a call, if the function has one."""
        def bump(key, amount):
            self.counters[key] += amount

        def first(args, kwargs, key):
            return args[0] if args else kwargs[key]

        if (layer, name) == ("tower", "decompose"):
            def count(args, kwargs, result):
                bump("tower.decompose_calls", 1)
                bits = first(args, kwargs, "tower").l[-1].bit_length()
                self.max_l_bits = max(self.max_l_bits, bits)
            return count
        if layer == "linear" and name in ("sl_order", "gl_order", "order_mod_pk"):
            return lambda args, kwargs, result: bump("linear.order_calls", 1)
        if (layer, name) == ("primes", "iter_primes"):
            return lambda args, kwargs, result: bump("primes.sieve_span", first(args, kwargs, "bound"))
        if layer == "integers" and name in ("divisibility_counts", "empirical_average"):
            return lambda args, kwargs, result: bump("integers.scan_n", first(args, kwargs, "bound"))
        if (layer, name) == ("grigorchuk", "level_quotient_order"):
            return lambda args, kwargs, result: bump("grigorchuk.closure_states", result.order)
        return None

    def install(self) -> None:
        """Import every layer, charging its import to its self time, and wrap it."""
        modules = {}
        for layer in LAYERS:
            start = time.perf_counter()
            modules[layer] = importlib.import_module(f"resavg.{layer}")
            self.self_s[layer] += time.perf_counter() - start
        import resavg

        wrappers = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self.wrap(layer, obj)
        for module in (resavg, *modules.values()):
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])

    def summary(self) -> dict:
        out = dict(self.counters)
        out["tower.max_l_bits"] = self.max_l_bits
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.errors"] = self.errors[layer]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh)
