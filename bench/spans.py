"""In-memory span tracing for the benchmark's traced runs.

A ``Tracer`` replaces public functions with wrappers at the places where
they are looked up (module attributes such as ``gathersim.engine.build_graph``
or the benchmark's own API namespace) and restores them afterwards. Each
call records one span: name, start, end, parent span and trial id. Spans stay
in memory until ``dump`` writes them out; ``summary`` turns them into calls
and self time per name, where self time is a span's duration minus the
durations of its direct children (calls nest and never overlap, since the
program is single-threaded, so that sum is the covered part).
"""

from __future__ import annotations

import functools
from time import perf_counter

# a call of one of these starts a new trial id for the spans below it
TRIAL_ROOTS = ("engine.run_trial", "bench.op")


def layer_name(fn) -> str:
    """``<module>.<function>`` with the package prefix dropped."""
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self._trial = -1
        self._trials = 0
        self._patched: list[tuple[object, str, object]] = []
        self.trees = 0
        self.intermediates = 0
        self.render_calls = 0
        self.render_bytes = 0

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _observe(self, name: str, result) -> None:
        if name == "emln.construct_tree" and result is not None:
            self.trees += 1
            self.intermediates += len(result.intermediate_set)
        elif name == "cli.render":
            self.render_calls += 1
            self.render_bytes += len(result)

    def wrap(self, fn, name: str | None = None):
        name = name or layer_name(fn)
        idx = self._name_id(name)
        spans, stack = self.spans, self._stack
        opens_trial = name in TRIAL_ROOTS
        observed = name in ("emln.construct_tree", "cli.render")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            saved = self._trial
            if opens_trial:
                self._trials += 1
                self._trial = self._trials
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[i] = (idx, t0, t1, parent, self._trial)
                self._trial = saved
            if observed:
                self._observe(name, result)
            return result

        return traced

    def install(self, target, attrs) -> None:
        """Wrap ``target.<attr>`` for each attr that ``target`` has."""
        for attr in attrs:
            if hasattr(target, attr):
                original = getattr(target, attr)
                setattr(target, attr, self.wrap(original))
                self._patched.append((target, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    def summary(self) -> dict[str, list]:
        """``{name: [calls, self_seconds]}`` over every recorded span."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        stats = {name: [0, 0.0] for name in self.names}
        for i, (idx, t0, t1, _, _) in enumerate(self.spans):
            entry = stats[self.names[idx]]
            entry[0] += 1
            entry[1] += (t1 - t0) - child[i]
        return stats

    def dump(self, path) -> None:
        """Write every span as CSV, times in microseconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("span,name,start_us,end_us,parent,trial\n")
            for i, (idx, t0, t1, parent, trial) in enumerate(self.spans):
                fh.write(f"{i},{self.names[idx]},{(t0 - origin) * 1e6:.3f},"
                         f"{(t1 - origin) * 1e6:.3f},{parent},{trial}\n")
