#!/usr/bin/env python3
"""Seeded tunnel benchmark for narrowpass: MAB-RRT against uniform and biased RRT.

    python3 perfbench/run.py --workload tunnel-mab --seed 1 --seconds 30 --trace 0

Plans every run of the workload's grid once (workloads.py) and checks every
returned path exactly (pathcheck.py). It then plans the grid again, in the
same order, until --seconds have passed, and requires each repeat to match
the first plan of its run bit for bit. With --trace 0 the last line carries
the end-to-end metrics. With --trace 1 every run is planned once untraced
and once under the span wrappers of tracing.py, and the last line carries
the per-layer metrics. The lines before it record the machine, every failed
run with its reason, and every metric with its unit and sample count.
Wall-clock metrics are given at nominal host speed (hostspeed.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))  # the program under test is this checkout's source tree

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import narrowpass  # noqa: E402
import pathcheck  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from narrowpass.bandit import Arm  # noqa: E402

# Fresh interpreters timed per run for setup_s, after one untimed warm-up
# that writes the bytecode caches.
SETUP_REPEATS = 7
# Times an interpreter from before `import narrowpass` until the workload's
# scenes and run list are built, then times the host-speed kernel in the same
# process. argv: src dir, benchmark dir, workload, seed.
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import narrowpass, workloads
workloads.build_scenes()
workloads.run_list(sys.argv[3], int(sys.argv[4]))
setup_s = time.perf_counter() - t0
import hostspeed, statistics
speed = hostspeed.HostSpeed()
for _ in range(9): speed.sample()
print(setup_s, statistics.median(speed.samples))
"""


@dataclass
class Outcome:
    status: str            # "solved" | "budget" | "unsafe" | "error"
    reason: str
    iterations: int        # as the planner reported them; 0 if it raised
    escape: int | None     # first iteration with a node past the tunnel mouth
    plan_s: float
    fingerprint: tuple     # what a repeat of the run must reproduce exactly
    result: object         # PlannerResult, or None if the planner raised

    @property
    def iter_us(self) -> float:
        return 1e6 * self.plan_s / self.iterations


@dataclass
class Passes:
    """Everything planned in one benchmark run, indexed like the grid."""
    first: list = field(default_factory=list)     # first Outcome of each run
    timed: list = field(default_factory=list)     # untraced (Outcome, speed sample index) of each run
    traced_us: list = field(default_factory=list)  # traced µs per iteration of each run
    drift: list = field(default_factory=list)     # repeats that differed from the first plan
    repeats: int = 0
    count: int = 0
    seconds: float = 0.0
    first_totals: dict | None = None               # span totals after the first traced pass
    first_counts: Counter | None = None


def machine_record() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"machine nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={np.__version__}")


def measure_setup(workload: str, seed: int, repeats: int) -> tuple[list, list]:
    """Raw and nominal-speed set-up times of `repeats` fresh interpreters."""
    cmd = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR), workload, str(seed)]
    raw, nominal = [], []
    for _ in range(repeats + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        setup_s, kernel_s = map(float, done.stdout.split())
        raw.append(setup_s)
        nominal.append(hostspeed.nominal(setup_s, kernel_s))
    return raw[1:], nominal[1:]


def escape_iteration(result) -> int | None:
    """First iteration at which a tree node lies past the tunnel mouth (x > 0).

    Burn-in nodes carry birth iteration -1 and count as iteration 0.
    """
    tree = result.tree
    past = [max(b, 0) for p, b in zip(tree.points, tree.birth_iters) if p[0] > 0.0]
    return min(past) if past else None


def plan_once(scenes, run, budget, tracer=None) -> Outcome:
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workloads.plan(scenes, run, budget)
        else:
            result = tracer.run(run.seed, workloads.plan, scenes, run, budget)
    except Exception as exc:  # a planner failure is a failed run, with its reason
        plan_s = time.perf_counter() - t0
        reason = f"{type(exc).__name__}: {exc}"
        return Outcome("error", reason, 0, None, plan_s, ("error", reason), None)
    plan_s = time.perf_counter() - t0

    tree = result.tree
    digest = hashlib.sha256(tree.points.tobytes())
    digest.update(repr(tree.parents).encode())
    for q in result.path or ():
        digest.update(q.tobytes())
    fingerprint = (result.outcome, result.iterations, result.tree_size, repr(result.r_star), digest.hexdigest())
    if result.solved:
        problem = pathcheck.path_problem(scenes[run.gap], result.path)
        status, reason = ("unsafe", problem) if problem else ("solved", "")
    else:
        status, reason = "budget", f"planner outcome {result.outcome!r} after {result.iterations} iterations"
    return Outcome(status, reason, result.iterations, escape_iteration(result), plan_s, fingerprint, result)


def run_passes(scenes, grid, budget, seconds, speed, tracer) -> Passes:
    """Plan the whole grid once, then again until `seconds` have passed."""
    p = Passes(timed=[[] for _ in grid], traced_us=[[] for _ in grid])
    t_start = time.perf_counter()
    deadline = t_start + seconds
    while p.count == 0 or time.perf_counter() < deadline:
        for k, run in enumerate(grid):
            if p.count and time.perf_counter() >= deadline:
                break
            plans = [plan_once(scenes, run, budget)]
            p.timed[k].append((plans[0], speed.sample()))
            if tracer is not None:
                with tracing.patched(tracer):
                    plans.append(plan_once(scenes, run, budget, tracer))
                if plans[1].iterations:
                    p.traced_us[k].append(plans[1].iter_us)
            if p.count == 0:
                p.first.append(plans.pop())
            for o in plans:
                p.repeats += 1
                if o.fingerprint != p.first[k].fingerprint:
                    p.drift.append(f"{run.planner} gap {run.gap:g} seed {run.seed}: "
                                   f"{p.first[k].fingerprint[:4]} then {o.fingerprint[:4]}")
        if p.count == 0 and tracer is not None:
            p.first_totals, p.first_counts = tracer.totals(), Counter(tracer.counts)
        p.count += 1
    p.seconds = time.perf_counter() - t_start
    return p


def pct(values, q) -> float:
    """Harrell-Davis estimate of the q-th percentile (Biometrika 69, 1982).

    A Beta-weighted mean of all order statistics; with about 100 runs it
    leans on several runs near the percentile instead of one or two, so
    one slow plan in the tail moves a p90 about half as much as it moves
    the interpolated order statistic.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n, p = len(x), q / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, 100_001)[1:-1]
    log_pdf = ((a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
               - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)))
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf)) * (grid[1] - grid[0]), [1.0]))
    weights = np.diff(np.interp(np.arange(n + 1) / n, np.concatenate(([0.0], grid, [1.0])), cdf))
    return float(weights @ x / weights.sum())


def per_run_medians(p: Passes, value) -> list[float]:
    """Median of value(outcome, speed sample) over each run's untraced plans; runs that raised are left out."""
    per_run = ([value(o, i) for o, i in timed if o.iterations] for timed in p.timed)
    return [statistics.median(v) for v in per_run if v]


def end_to_end(p: Passes, budget, speed, setup) -> dict:
    """Name -> (value, sample count). Counts come from the first plan of each
    run; a failed run (budget, unsafe path, exception) counts at the budget in
    iters_*, and a run that never left the tunnel at the budget in
    escape_iters_*. Times are per-run medians over its untraced plans, at
    nominal speed."""
    n = len(p.first)
    solved = sum(o.status == "solved" for o in p.first)
    claimed = solved + sum(o.status == "unsafe" for o in p.first)
    iters = [o.iterations if o.status == "solved" else budget for o in p.first]
    escape = [budget if o.escape is None else o.escape for o in p.first]
    plan_s = per_run_medians(p, lambda o, i: speed.to_nominal(o.plan_s, i))
    iter_us = per_run_medians(p, lambda o, i: speed.to_nominal(o.iter_us, i))
    return {
        "solved_frac": (solved / n, n),
        "path_safe_frac": (solved / claimed if claimed else 0.0, claimed),
        "iters_p50": (pct(iters, 50), n),
        "iters_p90": (pct(iters, 90), n),
        "escape_iters_p50": (pct(escape, 50), n),
        "escape_iters_p90": (pct(escape, 90), n),
        "plan_s_p50": (pct(plan_s, 50), len(plan_s)),
        "plan_s_p90": (pct(plan_s, 90), len(plan_s)),
        "iter_us_p50": (pct(iter_us, 50), len(iter_us)),
        "setup_s": (statistics.median(setup), len(setup)),
    }


def per_layer(p: Passes, all_totals) -> dict:
    """Name -> (value, runs). Counts come from the first traced plan of each
    run; self times (µs per call) from every traced plan."""
    first_totals, first_counts = p.first_totals, p.first_counts

    def calls(name):
        return first_totals.get(name, (0, 0.0, 0.0))[0]

    def self_us(name):
        c, _, own = all_totals.get(name, (0, 0.0, 0.0))
        return 1e6 * own / c if c else 0.0

    plan_total = all_totals[tracing.ROOT][1]

    def self_frac(layer):
        return sum(own for name, (_, _, own) in all_totals.items()
                   if name.split(".")[0] == layer and name != tracing.ROOT) / plan_total

    def ratio(num, den):
        return num / den if den else 0.0

    results = [o.result for o in p.first if o.result is not None]
    scale = [r.scale_result for r in results if r.scale_result is not None]
    pulls = [r.arm_pulls for r in results if r.arm_pulls]
    uniform_pulls = sum(pl[Arm.UNIFORM] for pl in pulls)
    all_pulls = sum(sum(pl.values()) for pl in pulls)
    pc_nodes = sum(sum(t.startswith("pc-") for t in r.tree.tags) for r in results)
    r_star = [r.r_star for r in results if r.r_star is not None]
    untraced_us = per_run_medians(p, lambda o, i: o.iter_us)
    traced_us = [statistics.median(v) for v in p.traced_us if v]
    metrics = {
        "cspace.check_motion.calls": calls("cspace.check_motion"),
        "cspace.check_motion.self_us": self_us("cspace.check_motion"),
        "cspace.check_motion.valid_frac": ratio(first_counts["cspace.check_motion.valid"],
                                                calls("cspace.check_motion")),
        "cspace.states_valid.calls": calls("cspace.states_valid"),
        "cspace.states_valid.points": first_counts["cspace.states_valid.points"],
        "cspace.states_valid.self_us": self_us("cspace.states_valid"),
        "cspace.motions_valid_fan.self_us": self_us("cspace.motions_valid_fan"),
        "cspace.goal_satisfied.self_us": self_us("cspace.goal_satisfied"),
        "cspace.self_frac": self_frac("cspace"),
        "samplers.sample_uniform.self_us": self_us("samplers.sample_uniform"),
        "samplers.biased.calls": calls("samplers.biased"),
        "samplers.biased.hit_frac": ratio(first_counts["samplers.biased.hits"], calls("samplers.biased")),
        "samplers.biased.self_us": self_us("samplers.biased"),
        "samplers.sample_sphere_batch.self_us": self_us("samplers.sample_sphere_batch"),
        "samplers.self_frac": self_frac("samplers"),
        "scale_search.find_entropy_scale.self_us": self_us("scale_search.find_entropy_scale"),
        "scale_search.steps": ratio(sum(len(s.history) for s in scale), len(scale)),
        "scale_search.converged_frac": ratio(sum(s.converged for s in scale), len(scale)),
        "scale_search.burnin_samples": ratio(sum(len(s.valid_samples) for s in scale), len(scale)),
        "scale_search.self_frac": self_frac("scale_search"),
        "pca.sample_cylinder.calls": calls("pca.sample_cylinder"),
        "pca.sample_cylinder.self_us": self_us("pca.sample_cylinder"),
        "pca.recalibrate_axis.calls": calls("pca.recalibrate_axis"),
        "pca.recalibrate_axis.self_us": self_us("pca.recalibrate_axis"),
        "pca.principal_axis.self_us": self_us("pca.principal_axis"),
        "pca.self_frac": self_frac("pca"),
        "bandit.select_arm.self_us": self_us("bandit.select_arm"),
        "bandit.update.self_us": self_us("bandit.update"),
        "bandit.uniform_pull_frac": ratio(uniform_pulls, all_pulls),
        "bandit.cylinder_valid_frac": ratio(pc_nodes, all_pulls - uniform_pulls),
        "bandit.self_frac": self_frac("bandit"),
        "planner.Tree.nearest.calls": calls("planner.Tree.nearest"),
        "planner.Tree.nearest.self_us": self_us("planner.Tree.nearest"),
        "planner.tree_size_max": max((r.tree_size for r in results), default=0),
        "planner.steer.self_us": self_us("planner.steer"),
        "planner.loop.self_frac": all_totals[tracing.ROOT][2] / plan_total,
        "planner.r_star_final_p50": pct(r_star, 50) if r_star else 0.0,
        "trace.overhead_frac": pct(traced_us, 50) / pct(untraced_us, 50) - 1.0,
    }
    return {name: (value, len(p.first)) for name, value in metrics.items()}


def report(grid, p: Passes, speed, setup_raw) -> None:
    failed = [(run, o) for run, o in zip(grid, p.first) if o.status != "solved"]
    print(f"measured {p.seconds:.1f} s: {p.count} passes, {p.repeats} repeat plans compared with the first, "
          f"{len(p.drift)} differed")
    for line in p.drift[:10]:
        print(f"DRIFT {line}")
    by_status = {s: sum(o.status == s for _, o in failed) for s in ("budget", "unsafe", "error")}
    print(f"failed {len(failed)}/{len(p.first)}: " + ", ".join(f"{s} {n}" for s, n in by_status.items()))
    print(f"unsafe_paths {by_status['unsafe']} (paths reported solved that cross a wall under the exact check)")
    for run, o in sorted(failed, key=lambda f: (f[1].status, f[0].seed)):
        print(f"  {o.status} {run.planner} gap {run.gap:g} seed {run.seed}: {o.reason}")
    raw_s = per_run_medians(p, lambda o, i: o.plan_s)
    raw_us = per_run_medians(p, lambda o, i: o.iter_us)
    print(f"raw wall clock: plan_s_p50 {pct(raw_s, 50):.6g} s, plan_s_p90 {pct(raw_s, 90):.6g} s, "
          f"iter_us_p50 {pct(raw_us, 50):.6g} us, setup_s {statistics.median(setup_raw):.6g} s; "
          f"host-speed kernel median {statistics.median(speed.samples) * 1e3:.4g} ms "
          f"(nominal {hostspeed.NOMINAL_S * 1e3:.4g} ms)")


def measure(workload: str, seed: int, seconds: float, trace: bool, runs: int = workloads.RUNS,
            budget: int = workloads.BUDGET, setup_repeats: int = SETUP_REPEATS, spans_path=None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    print(machine_record())
    setup_raw, setup = measure_setup(workload, seed, setup_repeats)
    scenes = workloads.build_scenes()
    grid = workloads.run_list(workload, seed, runs)
    print(f"workload {workload} seed {seed}: {len(grid)} runs over gaps "
          f"{'/'.join(f'{g:g}' for g in workloads.GAPS)}, planner seeds {workloads.SEED_BASE}-"
          f"{workloads.SEED_BASE + runs - 1}, planners {'/'.join(workloads.WORKLOADS[workload])}, "
          f"budget {budget} iterations")
    for planner in workloads.WORKLOADS[workload]:  # untimed: first-call costs
        workloads.plan(scenes, workloads.Run(workloads.GAPS[0], 0, planner), 20)

    speed = hostspeed.HostSpeed()
    tracer = tracing.Tracer() if trace else None
    p = run_passes(scenes, grid, budget, seconds, speed, tracer)
    report(grid, p, speed, setup_raw)
    metrics = end_to_end(p, budget, speed, setup)
    if tracer is not None:
        totals = tracer.totals()
        accounted = sum(own for _, _, own in totals.values()) / totals[tracing.ROOT][1]
        print(f"span self times add up to {accounted:.6%} of the traced plan time")
        metrics.update(per_layer(p, totals))
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.save(spans_path)
            print(f"spans {len(tracer.start)} written to {spans_path.relative_to(ROOT)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]}
    for name, (value, n) in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]} n={n}")

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": not p.drift,
        "attempted": len(p.first),
        "failed": sum(o.status != "solved" for o in p.first),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if Path(narrowpass.__file__).resolve().parent != SRC / "narrowpass":
        print(f"perfbench: imported narrowpass from {narrowpass.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    spans = BENCH_DIR / "out" / f"spans-{args.workload}.npz"
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), spans_path=spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
