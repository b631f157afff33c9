"""Outside-in spans around the layer calls of the planner and the scale search.

`patched(tracer)` replaces, for the duration of a `with` block, the module
attributes through which `narrowpass.planner` and `narrowpass.scale_search`
reach the other layers (and `cspace.states_valid`, through which every
validity check passes) with wrappers that record one span per call. The
program itself is unchanged. Spans stay in memory as parallel arrays (name,
start, end, parent span, run id) until `Tracer.save` writes them out; a
span's self time is its duration minus the time its child spans cover, so
the self times of all spans under a plan call sum to that call's duration.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter

import numpy as np

import narrowpass.bandit
import narrowpass.cspace
import narrowpass.planner
import narrowpass.scale_search

ROOT = "planner.loop"


def _count_valid(counts, name, out):
    counts[name + ".valid"] += bool(out)


def _count_points(counts, name, out):
    counts[name + ".points"] += len(out)


def _count_hits(counts, name, out):
    counts[name + ".hits"] += out is not None


_P, _S = narrowpass.planner, narrowpass.scale_search
# (owner, attribute, span name, counter); the span name's first part is the layer.
# Calls without a metric of their own are wrapped too, so that their time is
# charged to their layer and planner.loop keeps only the plan function's own work.
WRAPPED = (
    (narrowpass.cspace, "states_valid", "cspace.states_valid", _count_points),
    (_P, "check_motion", "cspace.check_motion", _count_valid),
    (_P, "goal_satisfied", "cspace.goal_satisfied", None),
    (_P, "distance", "cspace.distance", None),
    (_S, "motions_valid_fan", "cspace.motions_valid_fan", None),
    (_S, "is_state_valid", "cspace.is_state_valid", None),
    (_P, "sample_uniform", "samplers.sample_uniform", None),
    (_P, "sample_gaussian_obstacle", "samplers.biased", _count_hits),
    (_P, "sample_bridge", "samplers.biased", _count_hits),
    (_P, "sample_near_obstacle", "samplers.biased", _count_hits),
    (_P, "baseline_stddev", "samplers.baseline_stddev", None),
    (_S, "sample_sphere_batch", "samplers.sample_sphere_batch", None),
    (_P, "find_entropy_scale", "scale_search.find_entropy_scale", None),
    (_P, "principal_axis", "pca.principal_axis", None),
    (_P, "recalibrate_axis", "pca.recalibrate_axis", None),
    (_P, "sample_cylinder_with_height", "pca.sample_cylinder", None),
    (_P, "select_arm", "bandit.select_arm", None),
    (_P, "compute_reward", "bandit.compute_reward", None),
    (narrowpass.bandit.BanditState, "update", "bandit.update", None),
    (_P.Tree, "nearest", "planner.Tree.nearest", None),
    (_P, "steer", "planner.steer", None),
    (_P, "extract_path", "planner.extract_path", None),
)


class Tracer:
    """In-memory span store for one benchmark run."""

    def __init__(self):
        self._name_ids = {ROOT: 0}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run_id = array("q")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._run = -1

    def wrap(self, name: str, fn, count=None):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        clock = time.perf_counter
        stack, ids, start, end, parent, run_id = (self._stack, self.name_id, self.start,
                                                  self.end, self.parent, self.run_id)

        def traced(*args, **kwargs):
            i = len(start)
            ids.append(nid)
            parent.append(stack[-1])
            run_id.append(self._run)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, name, out)
            return out

        return traced

    def run(self, run_id: int, fn, *args):
        """Call fn(*args) as the root span of run `run_id`."""
        self._run = run_id
        return self.wrap(ROOT, fn)(*args)

    def self_times(self) -> np.ndarray:
        start, end = np.frombuffer(self.start), np.frombuffer(self.end)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        covered = np.zeros_like(dur)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        return dur - covered

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total duration s, total self time s)."""
        ids = np.frombuffer(self.name_id, dtype=np.uint16)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        n = len(self._name_ids)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=dur, minlength=n)
        own = np.bincount(ids, weights=self.self_times(), minlength=n)
        return {name: (int(calls[i]), float(total[i]), float(own[i])) for name, i in self._name_ids.items()}

    def save(self, path) -> None:
        np.savez(path, names=np.array(list(self._name_ids)), name_id=np.frombuffer(self.name_id, dtype=np.uint16),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 run_id=np.frombuffer(self.run_id, dtype=np.int64))


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route the layer calls through `tracer` inside the block."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in WRAPPED]
    try:
        for owner, attr, name, count in WRAPPED:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
