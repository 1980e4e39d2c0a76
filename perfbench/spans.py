"""Span tracing around collinea's public calls, for the benchmark's traced run.

While installed, every public function of the layer modules is replaced, under
every name any collinea module binds it to, by a wrapper that records a span
(name, start, end, parent) plus a few attributes read off its arguments or
result.  FieldSpec arithmetic is counted, not spanned: a span per field
operation would cost more than the operation.  The process pool that
collinea.search opens is spanned too, with the CPU time and peak memory of
its workers.  Spans stay in memory; `write` saves them once, at the end.
"""

import inspect
import json
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor

LAYERS = ("algebra", "collinear", "plane", "fixtures", "classify", "search")
FIELD_OPS = ("add", "sub", "neg", "mul", "inv", "div", "pow_")


def _children_usage():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, attrs]
        self.stack = []
        self.field_ops = [0]
        self._undo = []

    def begin(self, name, attrs=None):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1, attrs])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name, fn, describe):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            tracer.spans[idx][4] = describe(name, args, out)
            return out

        return traced

    def install(self, describe):
        """Wrap the public functions of every loaded layer module, and count
        FieldSpec arithmetic.  `describe(name, args, result)` gives a span's
        attributes."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "collinea" or n.startswith("collinea.")}
        wrapped = {}
        for layer in LAYERS:
            mod = mods["collinea." + layer]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj, describe)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
        search = mods["collinea.search"]
        self._set(search, "ProcessPoolExecutor", self._pool_class())
        spec = mods["collinea.algebra"].FieldSpec
        for op in FIELD_OPS:
            self._set(spec, op, self._counted(getattr(spec, op)))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _counted(self, fn):
        ops = self.field_ops

        def counted(*args):
            ops[0] += 1
            return fn(*args)

        return counted

    def _pool_class(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._cpu0 = _children_usage()[0]
                self._span = tracer.begin("search.pool", {"workers": max_workers})

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                if self._span is not None:  # __exit__ and explicit calls both land here
                    tracer.end(self._span)
                    cpu, maxrss = _children_usage()
                    tracer.spans[self._span][4].update(
                        child_cpu_s=cpu - self._cpu0, child_maxrss_mib=maxrss)
                    self._span = None

        return TracedPool

    def self_times(self):
        """Each span's duration minus the part its direct children cover
        (children of one span never overlap: calls nest)."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh)
