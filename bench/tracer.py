"""Layer tracing from outside the program.

``install()`` replaces the public functions of the seven cartankit
modules, and the constructors of the classes that build geometric
objects, with wrappers that count calls and measure self time (a span's
duration minus the time of the spans it encloses).  Every module-level
binding of a wrapped function is replaced, so ``from .symcore import
canon`` sites and the kernel's own recursive calls are traced too.

Only a forked child installs the tracer: the program code is never
edited, and the parent that forks the next request stays untraced.
Spans are aggregated per function, not stored one by one: the kernel
makes hundreds of thousands of calls per request.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

MODULES = ("symcore", "bundles", "algebroid", "connections", "jet", "cartan", "cli")

# constructors traced as spans of their own (module, class)
CONSTRUCTORS = (
    ("bundles", "Section"),
    ("bundles", "TensorField"),
    ("algebroid", "LieAlgebra"),
    ("algebroid", "Algebroid"),
    ("connections", "TMConnection"),
    ("connections", "GConnection"),
    ("jet", "JetSection"),
    ("cartan", "Parallelism"),
)

ZERO_PATHS = ("symbolic", "probabilistic", "undecidable")


class Tracer:
    """Per-function call counts and self times for one request."""

    def __init__(self):
        self.calls = {}  # "module.function" -> count
        self.self_s = {}  # "module.function" -> seconds
        self.counts = {}  # extra per-layer counts, e.g. "symcore.is_zero.symbolic"
        self._children = [0.0]  # time of enclosed spans, one slot per open span
        self._canon_args = set()

    def snapshot(self) -> dict:
        counts = dict(self.counts)
        counts["symcore.canon.distinct_args"] = len(self._canon_args)
        return {"calls": dict(self.calls), "self_s": dict(self.self_s), "counts": counts}

    def _wrap(self, key, fn, observe=None, on_error=None):
        calls, self_s, children = self.calls, self.self_s, self._children
        calls[key] = 0
        self_s[key] = 0.0

        def traced(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                elapsed = perf_counter() - start
                inner = children.pop()
                children[-1] += elapsed
                calls[key] += 1
                self_s[key] += elapsed - inner
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = {name: sys.modules[f"cartankit.{name}"] for name in MODULES}
        symcore = mods["symcore"]
        counts = self.counts
        for p in ZERO_PATHS:
            counts[f"symcore.is_zero.{p}"] = 0
        counts["symcore.evaluate.domain_errors"] = 0
        canon_args = self._canon_args

        def zero_path(args, verdict):
            key = f"symcore.is_zero.{verdict.path}"
            counts[key] = counts.get(key, 0) + 1

        def domain_error(exc):
            if isinstance(exc, symcore.DomainError):
                counts["symcore.evaluate.domain_errors"] += 1

        special = {
            "symcore.canon": {"observe": lambda args, result: canon_args.add(args[0])},
            "symcore.is_zero": {"observe": zero_path},
            "symcore.evaluate": {"on_error": domain_error},
        }

        replaced = {}  # original function -> wrapper
        for name, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                key = f"{name}.{attr}"
                replaced[obj] = self._wrap(key, obj, **special.get(key, {}))
        for name, cls_name in CONSTRUCTORS:
            cls = getattr(mods[name], cls_name)
            cls.__init__ = self._wrap(f"{name}.{cls_name}", cls.__init__)

        # rebind every module-level reference, including re-exports and
        # ``from .x import f`` copies in other modules
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cartankit" or mod_name.startswith("cartankit.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
