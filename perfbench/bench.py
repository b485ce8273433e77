"""Workloads, timed and traced passes, and correctness checks of the kantor
benchmark.  `run.py` is the entry point; see NOTES.md for the workloads and
the seed-42 baseline.

A run draws its instance seeds from --seed, builds the instances with
`kantor.random_instance` and hands them to `solve` and `verify_optimality`.
The untraced run (--trace 0) times the default solve, the exhaustive solve
(`pruning=False`) and the certificate; the traced run (--trace 1) solves the
same instances under `tracer.Tracer`.  Both check every answer.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

from kantor import InstanceGenSpec, Metric, SolveOptions, random_instance, solve, verify_optimality

from tracer import Tracer

EUCLID_REL_TOL = 1e-9     # pruned vs exhaustive value outside exact mode
CERT_MIN_REPS = 3         # certificate timing: repeat until both minimums are met
CERT_MIN_S = 0.03
SETUP_REPS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    metric: Metric
    n_points: int      # per measure
    coord_range: int   # coordinates drawn from 0..coord_range
    grid: bool         # every lattice pixel is both a source and a sink
    per_10s: int       # instances per 10 s of --seconds
    lp_oracle: bool
    why: str

    def spec(self, seed: int, n_points: int = 0, coord_range: int = 0) -> InstanceGenSpec:
        n = n_points or self.n_points
        return InstanceGenSpec(
            seed=seed,
            n_sources=n,
            n_sinks=n,
            coord_range=coord_range or self.coord_range,
            mass_range=(1, 9),
            metric=self.metric,
            grid=self.grid,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid-sqeuclid", Metric.SQEUCLID, 24 * 24, 23, True, 15, False,
            "dense exact-integer grid: the quadrant scan and its line stops dominate, theorem 7 never runs",
        ),
        Workload(
            "grid-euclid", Metric.EUCLID, 10 * 10, 9, True, 45, True,
            "float Euclid grid with guarded tolerances: the theorem-7 theta scan and the arc scan share many dual phases",
        ),
        Workload(
            "cloud-l1", Metric.L1, 200, 63, False, 19, True,
            "sparse random cloud, about 3 points per row: the L1 region exclusion, where scans tuned to grids pay",
        ),
    )
}


def instance_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(count)]


def warm_up(workload: Workload) -> None:
    """Solve and certify a small instance of the workload's metric both ways."""
    small = workload.spec(0, n_points=36, coord_range=5 if workload.grid else 15)
    inst = random_instance(small)
    for options in (None, SolveOptions(pruning=False)):
        result = solve(inst, options)
        verify_optimality(inst, result.plan, result.duals)


def set_up(workload: Workload, seeds: list[int]):
    """Generate the instances and warm up; returns (instances, median seconds)."""
    times = []
    instances = None
    for _ in range(SETUP_REPS):
        instances = None  # free the previous round outside the timer
        gc.collect()
        start = perf_counter()
        instances = [random_instance(workload.spec(s)) for s in seeds]
        warm_up(workload)
        times.append(perf_counter() - start)
    return instances, statistics.median(times)


class Checks:
    """Attempted and failed solves, and every problem found, by solve key."""

    def __init__(self):
        self.attempted = 0
        self.failed: set = set()
        self.problems: list[str] = []

    def fail(self, key, why: str) -> None:
        if key is not None:
            self.failed.add(key)
        self.problems.append(f"{key}: {why}" if key is not None else why)

    def expect(self, cond: bool, key, why: str) -> None:
        if not cond:
            self.fail(key, why)

    def attempt(self, key, fn, *args, **kwargs):
        """Time one solve; returns (result, seconds), or (None, None) if it raised."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            self.fail(key, f"raised {type(exc).__name__}: {exc}")
            return None, None
        return result, perf_counter() - start


def values_agree(inst, a, b) -> bool:
    if inst.is_integral and inst.metric.integer_valued:
        return a == b
    return abs(a - b) <= EUCLID_REL_TOL * (1 + abs(a))


def certify(checks: Checks, key, inst, result, timed: bool = False):
    """Check the certificate; with `timed`, return its median time over repeats."""
    times = []
    reps, min_s = (CERT_MIN_REPS, CERT_MIN_S) if timed else (1, 0.0)
    try:
        while len(times) < reps or sum(times) < min_s:
            start = perf_counter()
            report = verify_optimality(inst, result.plan, result.duals)
            times.append(perf_counter() - start)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        checks.fail(key, f"certificate raised {type(exc).__name__}: {exc}")
        return None
    checks.expect(report.ok, key, f"certificate not ok: {report.messages}")
    return statistics.median(times)


def counters(result) -> tuple:
    s = result.stats
    return (
        result.value, s.dual_updates, s.augmentations,
        tuple(s.prune.as_dict().items()), tuple(s.theta_scan.as_dict().items()),
    )


def check_pair(checks: Checks, workload: Workload, inst, pruned, exhaustive, key) -> None:
    """Pruned against exhaustive: value, counter identities and effective pruning."""
    if pruned is None or exhaustive is None:
        return
    n_sinks = len(inst.sink.points)
    expect = checks.expect
    expect(values_agree(inst, pruned.value, exhaustive.value), key,
           f"value {pruned.value} != exhaustive {exhaustive.value}")
    ps, es = pruned.stats, exhaustive.stats
    expect(ps.prune.total_candidates == es.prune.candidates_examined, key,
           f"examined+skipped {ps.prune.total_candidates} != exhaustive examined {es.prune.candidates_examined}")
    expect(es.prune.candidates_examined % n_sinks == 0, key,
           f"exhaustive examined {es.prune.candidates_examined} is not a multiple of {n_sinks} sinks")
    expect((ps.dual_updates, ps.augmentations) == (es.dual_updates, es.augmentations), key,
           f"updates/augmentations {ps.dual_updates}/{ps.augmentations} != exhaustive "
           f"{es.dual_updates}/{es.augmentations}")
    expect(ps.prune.candidates_skipped > 0, key, "default solve skipped no candidates (fallback path?)")
    if workload.metric is Metric.EUCLID:
        expect(ps.theta_scan.total_candidates > 0, key, "theorem-7 theta scan never ran")


def check_lp(checks: Checks, instances, values) -> None:
    """values: (instance index, {solve key: value}) pairs."""
    from lp_oracle import agrees, lp_value  # scipy loads only after peak RSS is read

    for i, by_key in values:
        try:
            lp = lp_value(instances[i])
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            checks.fail(None, f"instance {i}: LP oracle failed: {exc}")
            continue
        for key, value in by_key.items():
            checks.expect(agrees(lp, value), key, f"value {value} != LP {lp}")


def timed_pass(workload: Workload, instances, checks: Checks):
    solve_t, exhaustive_t, certify_t, values = [], [], [], []
    for i, inst in enumerate(instances):
        pkey, ekey = (i, "default"), (i, "exhaustive")
        pruned, t = checks.attempt(pkey, solve, inst)
        if pruned is not None:
            solve_t.append(t)
        exhaustive, t = checks.attempt(ekey, solve, inst, SolveOptions(pruning=False))
        if exhaustive is not None:
            exhaustive_t.append(t)
        if pruned is not None:
            t = certify(checks, pkey, inst, pruned, timed=True)
            if t is not None:
                certify_t.append(t)
        if exhaustive is not None:
            certify(checks, ekey, inst, exhaustive)
        check_pair(checks, workload, inst, pruned, exhaustive, pkey)
        values.append((i, {k: r.value for k, r in ((pkey, pruned), (ekey, exhaustive)) if r is not None}))
    return solve_t, exhaustive_t, certify_t, values


def traced_pass(workload: Workload, instances, checks: Checks):
    default, exhaustive = Tracer(), Tracer()
    untraced_t, traced_t, values = [], [], []
    for i, inst in enumerate(instances):
        ukey, tkey, ekey = (i, "default"), (i, "traced"), (i, "exhaustive")
        plain, t = checks.attempt(ukey, solve, inst)
        if plain is not None:
            untraced_t.append(t)
        calls = default.calls["enumerate_admissible"]
        theta7 = default.theta7_examined
        residual = default.solve_self_s
        traced, t = checks.attempt(tkey, default.solve, inst, pruning=True)
        if traced is not None:
            traced_t.append(t)
            stats = traced.stats
            n_sinks = len(inst.sink.points)
            calls = default.calls["enumerate_admissible"] - calls
            checks.expect(stats.prune.total_candidates == calls * n_sinks, tkey,
                          f"examined+skipped {stats.prune.total_candidates} != {calls} calls x {n_sinks} sinks")
            checks.expect(default.theta7_examined - theta7 == stats.theta_scan.candidates_examined, tkey,
                          "per-phase theorem-7 deltas do not sum to the final counter")
            checks.expect(default.solve_self_s - residual >= 0, tkey, "spans overlap: negative residual")
            if plain is not None:
                checks.expect(counters(traced) == counters(plain), tkey,
                              "counters differ between the traced and the untraced solve")
        full, _ = checks.attempt(ekey, exhaustive.solve, inst, pruning=False)
        for key, result in ((ukey, plain), (tkey, traced), (ekey, full)):
            if result is not None:
                certify(checks, key, inst, result)
        check_pair(checks, workload, inst, traced, full, tkey)
        values.append((i, {k: r.value for k, r in ((ukey, plain), (tkey, traced), (ekey, full)) if r is not None}))
    return default, exhaustive, untraced_t, traced_t, values


def metric(value, unit: str, note: str = "") -> dict:
    return {"value": value, "unit": unit, "note": note}


def ratio(num, den) -> float:
    return num / den if den else 0.0


def sample_note(times, what: str) -> str:
    note = f"median of {len(times)} {what}; mean {statistics.mean(times):.4g}"
    if len(times) >= 40:  # at least ten samples above the 75th percentile
        note += f", p75 {statistics.quantiles(times, n=4)[2]:.4g}"
    return note + f", max {max(times):.4g}"


def end_to_end(solve_t, exhaustive_t, certify_t, setup_s) -> dict:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "solve_s": metric(statistics.median(solve_t), "s", sample_note(solve_t, "default solves")),
        "exhaustive_s": metric(statistics.median(exhaustive_t), "s", sample_note(exhaustive_t, "pruning=False solves")),
        "certify_s": metric(statistics.median(certify_t), "s",
                            sample_note(certify_t, "plans, each timed as the median of its repeats")),
        "setup_s": metric(setup_s, "s", f"median import + median of {SETUP_REPS} generate-and-warm-up rounds"),
        "peak_rss_mb": metric(peak_kib / 1024, "MB", "peak RSS of this process before the LP check"),
    }


def per_layer(default: Tracer, exhaustive: Tracer, untraced_t, traced_t) -> dict:
    per_solve = 1 / default.solves
    prune = default.prune
    examined = prune.candidates_examined
    return {
        "pruning.enumerate_admissible_s": metric(default.total["enumerate_admissible"] * per_solve, "s"),
        "pruning.enumerate_admissible.calls": metric(default.calls["enumerate_admissible"], "count"),
        "pruning.scan.examined": metric(examined, "count"),
        "pruning.scan.skipped": metric(prune.candidates_skipped, "count"),
        "pruning.scan.examined_ratio": metric(ratio(examined, prune.total_candidates), "ratio"),
        "pruning.scan.yield": metric(ratio(default.arcs_returned, examined), "ratio",
                                     "admissible arcs returned / examined"),
        "pruning.scan.line_stops": metric(prune.line_stops, "count"),
        "pruning.scan.vertical_stops": metric(prune.vertical_stops, "count"),
        "pruning.scan.region_exclusions": metric(prune.region_exclusions, "count"),
        "pruning.theta7.calls": metric(default.calls["theta_scan_theorem7"], "count"),
        "pruning.theta7.examined": metric(default.theta7_examined, "count"),
        "pruning.theta7.skipped": metric(default.theta7_skipped, "count"),
        "dual_core.compute_theta_s": metric(default.total["compute_theta"] * per_solve, "s",
                                            "includes the theorem-7 scan"),
        "dual_core.compute_theta.self_s": metric(default.self_time["compute_theta"] * per_solve, "s"),
        "dual_core.theta.slacks": metric(default.theta_slacks, "count", "sum of |L|*|U| over full-scan phases"),
        "dual_core.label_pass.self_s": metric(default.self_time["label_pass"] * per_solve, "s"),
        "dual_core.label_pass.calls": metric(default.calls["label_pass"], "count"),
        "dual_core.update_duals_s": metric(default.total["update_duals"] * per_solve, "s"),
        "dual_core.init_s": metric(default.init_s * per_solve, "s"),
        "dual_core.solve.self_s": metric(default.solve_self_s * per_solve, "s",
                                         "augmentation and loop bookkeeping"),
        "dual_core.dual_updates": metric(default.dual_updates, "count"),
        "dual_core.augmentations": metric(default.augmentations, "count"),
        "exhaustive.label_pass.self_s": metric(exhaustive.self_time["label_pass"] / exhaustive.solves, "s"),
        "exhaustive.compute_theta.self_s": metric(exhaustive.self_time["compute_theta"] / exhaustive.solves, "s"),
        "trace.solve_s": metric(default.solve_s * per_solve, "s", "mean traced default solve"),
        "trace.overhead_frac": metric(ratio(sum(traced_t), sum(untraced_t)) - 1, "ratio",
                                      "traced / untraced default solve time - 1"),
    }


def report(workload: Workload, metrics: dict, checks: Checks, lines: list[str]) -> dict:
    for name, m in metrics.items():
        print(f"{workload.name:<14} {name:<36} {m['value']:>14.6g} {m['unit']:<6} {m['note']}")
    for line in lines:
        print(f"{workload.name:<14} {line}")
    fail_frac = ratio(len(checks.failed), checks.attempted)
    print(f"{workload.name:<14} {'fail_frac':<36} {fail_frac:>14.6g} {'ratio':<6} "
          f"{len(checks.failed)} failed of {checks.attempted} attempted solves")
    for problem in checks.problems:
        print(f"{workload.name:<14} FAIL {problem}", file=sys.stderr)
    return {
        "correct": not checks.problems,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }


def run(workload: Workload, seed: int, seconds: int, trace: bool, import_s: float) -> dict:
    count = max(2, round(workload.per_10s * seconds / 10))
    instances, setup_s = set_up(workload, instance_seeds(seed, count))
    if trace:
        instances = instances[: (len(instances) + 1) // 2]  # the traced pass solves each one 3 times
    checks = Checks()
    lines = [f"instances: {len(instances)} from seed {seed}; " + workload.why]
    if not trace:
        solve_t, exhaustive_t, certify_t, values = timed_pass(workload, instances, checks)
        if not (solve_t and exhaustive_t and certify_t):
            checks.fail(None, "no solve completed")
            metrics = {}
        else:
            metrics = end_to_end(solve_t, exhaustive_t, certify_t, import_s + setup_s)
            lines.append(f"pruned / exhaustive: {metrics['solve_s']['value'] / metrics['exhaustive_s']['value']:.3f}"
                         " (solve_s / exhaustive_s)")
    else:
        default, exhaustive, untraced_t, traced_t, values = traced_pass(workload, instances, checks)
        if not (default.solves and exhaustive.solves and untraced_t):
            checks.fail(None, "no traced solve completed")
            metrics = {}
        else:
            metrics = per_layer(default, exhaustive, untraced_t, traced_t)
            spans = {
                "init": default.init_s, "label_pass.self": default.self_time["label_pass"],
                "enumerate_admissible": default.total["enumerate_admissible"],
                "compute_theta.self": default.self_time["compute_theta"],
                "theta_scan_theorem7": default.total["theta_scan_theorem7"],
                "update_duals": default.total["update_duals"], "phase_hook": default.hook_s,
                "solve.self": default.solve_self_s,
            }
            shares = ", ".join(f"{k} {100 * v / default.solve_s:.1f}%" for k, v in spans.items())
            lines.append(f"share of traced solve time ({default.solve_s:.4f} s over {default.solves} solves): "
                         f"{shares}; sum {100 * sum(spans.values()) / default.solve_s:.2f}%")
            lines.append(f"share of traced exhaustive solve time ({exhaustive.solve_s:.4f} s): "
                         f"label_pass.self {100 * exhaustive.self_time['label_pass'] / exhaustive.solve_s:.1f}%, "
                         f"compute_theta.self {100 * exhaustive.self_time['compute_theta'] / exhaustive.solve_s:.1f}%")
    if workload.lp_oracle:
        check_lp(checks, instances, values)
    return report(workload, metrics, checks, lines)
