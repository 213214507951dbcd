"""Spans around the public functions of cantorq's modules, from outside them.

`Tracer.install` wraps every public function, and the `__post_init__` and
public methods of every public class, of the traced modules, and rebinds
each wrapped function at every name in the package that binds it (the
`from ... import` names in `cli` and the package `__init__` included).
Classes stay bound as they are, so `isinstance` keeps working.  Spans stay
in memory; `metrics` reduces them to per-layer figures and `dump` writes
them out.  A generator function's span covers only creating the generator.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

MODULES = ("cli", "closedform", "oracle", "measure", "constraint", "asymptotics")


class Tracer:
    def __init__(self):
        self.names: list[str] = []    # "module.function" per traced function
        self.spans: list = []         # (fid, start_ns, end_ns, parent, outermost)
        self.stack: list = []         # (span index, module) of the open spans
        self.caches: dict[str, list] = {m: [] for m in MODULES}
        self.oracle_errors = 0

    def _wrap(self, module: str, qualname: str, fn):
        from cantorq.oracle import OracleError
        fid = len(self.names)
        self.names.append(f"{module}.{qualname}")
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        depth = [0]
        tracer = self

        def traced(*args, **kwargs):
            parent, parent_module = stack[-1] if stack else (-1, None)
            idx = len(spans)
            spans.append(None)
            stack.append((idx, module))
            outermost = depth[0] == 0
            depth[0] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            except OracleError:
                # counted once, where the error leaves the oracle layer
                if module == "oracle" and parent_module != "oracle":
                    tracer.oracle_errors += 1
                raise
            finally:
                end = clock()
                depth[0] -= 1
                stack.pop()
                spans[idx] = (fid, start, end, parent, outermost)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = {m: sys.modules[f"cantorq.{m}"] for m in MODULES}
        wrappers = {}
        for m, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if hasattr(obj, "cache_info"):
                    self.caches[m].append(obj)
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if issubclass(obj, BaseException):
                        continue
                    for attr, member in list(vars(obj).items()):
                        if attr == "__post_init__":
                            setattr(obj, attr, self._wrap(m, name, member))
                        elif not attr.startswith("_") and inspect.isfunction(member):
                            setattr(obj, attr, self._wrap(m, f"{name}.{attr}", member))
                elif callable(obj):
                    wrappers[id(obj)] = (obj, self._wrap(m, name, obj))
        for mod in (sys.modules["cantorq"], *mods.values()):
            for name, obj in list(vars(mod).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    setattr(mod, name, wrapper)

    def metrics(self) -> dict[str, float]:
        """Self time per module, inclusive time and calls per function, and
        the lru_cache sizes and oracle errors at the end of the round."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = {f"{m}.self_s": 0.0 for m in MODULES}
        for name in self.names:
            out[f"{name}.time_s"] = 0.0
            out[f"{name}.calls"] = 0
        for i, (fid, start, end, _, outermost) in enumerate(self.spans):
            name = self.names[fid]
            out[f"{name.split('.')[0]}.self_s"] += (end - start - child_ns[i]) / 1e9
            out[f"{name}.calls"] += 1
            if outermost:
                out[f"{name}.time_s"] += (end - start) / 1e9
        for m, caches in self.caches.items():
            out[f"{m}.cache_entries"] = sum(c.cache_info().currsize for c in caches)
        out["oracle.errors"] = self.oracle_errors
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"clock": "perf_counter_ns", "names": self.names,
                       "fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": [s[:4] for s in self.spans]}, f)
