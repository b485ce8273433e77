"""Per-layer spans for one kantor solve, recorded from outside the library.

`Tracer` swaps module attributes of `kantor.dual_core` and `kantor.pruning`
for wrappers that time each call with `perf_counter`, and restores the
originals when its `solve` returns.  `solve` looks every wrapped name up at
call time, so the wrappers see every call.  The public `phase_hook` closes
the init span ("init" event) and supplies each dual phase's label state and
counters ("dual_update" event).

Self time is a span's duration minus the time of the spans opened inside
it.  The residual `solve_self` is the solve's wall time minus init, the
hook's own time and the top-level spans: augmentation and loop bookkeeping.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

from kantor import PruneCounters, SolveOptions, dual_core, pruning

TARGETS = (
    (dual_core, "label_pass"),
    (dual_core, "compute_theta"),
    (dual_core, "update_duals"),
    (pruning, "enumerate_admissible"),
    (pruning, "theta_scan_theorem7"),
)


class Tracer:
    """Accumulates spans and counters over every solve it runs."""

    def __init__(self):
        self.total = defaultdict(float)      # span name -> summed duration
        self.self_time = defaultdict(float)  # span name -> summed self time
        self.calls = Counter()
        self.solve_s = 0.0
        self.init_s = 0.0
        self.hook_s = 0.0
        self.solve_self_s = 0.0
        self.solves = 0
        self.prune = PruneCounters()  # summed stats of the solves
        self.dual_updates = 0
        self.augmentations = 0
        self.arcs_returned = 0     # admissible arcs enumerate_admissible returned
        self.theta_slacks = 0      # sum of |L|*|U| over full-scan theta phases
        self.theta7_examined = 0   # per-phase deltas of stats.theta_scan
        self.theta7_skipped = 0
        self._stack: list[float] = []  # child time of each open span
        self._root_children = 0.0
        self._start = 0.0
        self._theta7_seen = (0, 0)      # theta_scan counters at the previous phase
        self._theorem7_calls_seen = 0

    def _wrap(self, name, fn):
        def span(*args, **kwargs):
            self._stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = self._stack.pop()
                self.total[name] += elapsed
                self.self_time[name] += elapsed - children
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1] += elapsed
                else:
                    self._root_children += elapsed
            if name == "enumerate_admissible":
                self.arcs_returned += len(result)
            return result

        return span

    def _hook(self, info) -> None:
        entered = perf_counter()
        if info.kind == "init":
            self.init_s += entered - self._start
        else:
            theta_scan = info.stats.theta_scan
            self.theta7_examined += theta_scan.candidates_examined - self._theta7_seen[0]
            self.theta7_skipped += theta_scan.candidates_skipped - self._theta7_seen[1]
            self._theta7_seen = (theta_scan.candidates_examined, theta_scan.candidates_skipped)
            theorem7_calls = self.calls["theta_scan_theorem7"]
            if theorem7_calls == self._theorem7_calls_seen:
                ls = info.label_state
                self.theta_slacks += len(ls.labeled_sources) * (ls.n_sinks - len(ls.labeled_sinks))
            self._theorem7_calls_seen = theorem7_calls
        self.hook_s += perf_counter() - entered

    def solve(self, instance, *, pruning: bool):
        """Run one traced solve and return its result."""
        originals = [(module, attr, getattr(module, attr)) for module, attr in TARGETS]
        for module, attr, fn in originals:
            setattr(module, attr, self._wrap(attr, fn))
        hook_before = self.hook_s
        init_before = self.init_s
        self._root_children = 0.0
        self._theta7_seen = (0, 0)
        self._theorem7_calls_seen = self.calls["theta_scan_theorem7"]
        try:
            self._start = perf_counter()
            result = dual_core.solve(instance, SolveOptions(pruning=pruning, phase_hook=self._hook))
            elapsed = perf_counter() - self._start
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)
        self.solves += 1
        self.prune.add(result.stats.prune)
        self.dual_updates += result.stats.dual_updates
        self.augmentations += result.stats.augmentations
        self.solve_s += elapsed
        self.solve_self_s += (
            elapsed - (self.init_s - init_before) - (self.hook_s - hook_before) - self._root_children
        )
        return result
