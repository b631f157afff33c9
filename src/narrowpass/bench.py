"""Benchmark harness: seeded campaigns across planners, CSV records, plots."""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

from .planner import PLANNER_NAMES, TAG_FOR_ARM, PlannerParams, PlannerResult, run_planner
from .rng import RngStream
from .scenes import resolve_scene_spec
from .svg import render_success_curves

RESULTS_HEADER = ["scene", "planner", "seed", "outcome", "wall_time_s",
                  "iterations", "path_length", "tree_size", "r_star", "error"]


@dataclass(frozen=True)
class BenchConfig:
    scenes: tuple[str, ...]               # file paths or builtin specs
    planners: tuple[str, ...] = ("mab-rrt", "rrt-uniform")
    runs: int = 20
    timeout: float = 10.0
    base_seed: int = 1000
    out_dir: str = "results"

    def __post_init__(self):
        for key in ("scenes", "planners"):
            value = getattr(self, key)
            if not isinstance(value, (tuple, list)) or not all(isinstance(v, str) for v in value):
                raise ValueError(f"{key} must be a list of strings, got {value!r}")
        if type(self.runs) is not int or self.runs < 1:  # type(True) is bool: bools fail too
            raise ValueError(f"runs must be an integer >= 1, got {self.runs!r}")
        if isinstance(self.timeout, bool) or not isinstance(self.timeout, (int, float)) \
                or not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be a finite number > 0, got {self.timeout!r}")
        if type(self.base_seed) is not int or self.base_seed < 0:
            raise ValueError(f"base_seed must be a non-negative integer, got {self.base_seed!r}")
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
        for p in self.planners:
            if p not in PLANNER_NAMES:
                raise ValueError(f"unknown planner {p!r}")

    @staticmethod
    def from_file(path: str, **overrides) -> "BenchConfig":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"bench config must be a JSON object, got {type(doc).__name__}")
        # Only the keys the file sets; the dataclass holds every default.
        keys = {"scenes": "scenes", "planners": "planners", "runs": "runs", "timeout": "timeout",
                "seed": "base_seed", "out": "out_dir"}
        unknown = sorted(set(doc) - set(keys))
        if unknown:
            raise ValueError(f"unknown bench config keys {unknown}; expected some of {sorted(keys)}")
        kwargs = {keys[k]: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}
        kwargs.update({k: v for k, v in overrides.items() if v is not None})
        return BenchConfig(**kwargs)


@dataclass
class BenchRecord:
    scene: str
    planner: str
    seed: int
    outcome: str
    wall_time_s: float
    iterations: int
    path_length: float | None
    tree_size: int
    r_star: float | None
    error: str = ""  # "ExcType: message" when outcome is "error"

    def row(self) -> list[str]:
        return [
            self.scene, self.planner, str(self.seed), self.outcome,
            f"{self.wall_time_s:.6f}", str(self.iterations),
            "" if self.path_length is None else repr(self.path_length),
            str(self.tree_size),
            "" if self.r_star is None else repr(self.r_star),
            self.error,
        ]

    @staticmethod
    def from_row(row: dict) -> "BenchRecord":
        return BenchRecord(
            scene=row["scene"], planner=row["planner"], seed=int(row["seed"]),
            outcome=row["outcome"], wall_time_s=float(row["wall_time_s"]),
            iterations=int(row["iterations"]),
            path_length=float(row["path_length"]) if row["path_length"] else None,
            tree_size=int(row["tree_size"]),
            r_star=float(row["r_star"]) if row["r_star"] else None,
            error=row.get("error") or "",  # files written before the column existed
        )


def _error_record(scene: str, planner: str, seed: int, exc: Exception) -> BenchRecord:
    return BenchRecord(scene=scene, planner=planner, seed=seed, outcome="error",
                       wall_time_s=0.0, iterations=0, path_length=None, tree_size=0, r_star=None,
                       error=f"{type(exc).__name__}: {exc}")


def _run_one(scene_spec: str, planner: str, seed: int, timeout: float) -> BenchRecord:
    try:
        scene = resolve_scene_spec(scene_spec)
    except Exception as exc:
        return _error_record(scene_spec, planner, seed, exc)
    try:
        params = PlannerParams(timeout=timeout)
        result = run_planner(scene, planner, params, RngStream(seed))
        return BenchRecord(
            scene=scene.name, planner=planner, seed=seed, outcome=result.outcome,
            wall_time_s=result.wall_time, iterations=result.iterations,
            path_length=result.path_length, tree_size=result.tree_size,
            r_star=result.r_star,
        )
    except Exception as exc:  # individual run failures become error records
        return _error_record(scene.name, planner, seed, exc)


def run_benchmark(config: BenchConfig, progress=None) -> list[BenchRecord]:
    """One seeded run per (scene, planner, run index); records are written
    to results.csv in the output directory as they arrive, already in
    (scene name, planner, seed) order, and returned in that order."""
    # Resolve all scenes up front so a bad spec aborts before any run.
    names = {spec: resolve_scene_spec(spec).name for spec in config.scenes}
    os.makedirs(config.out_dir, exist_ok=True)
    csv_path = os.path.join(config.out_dir, "results.csv")
    tasks = sorted(
        ((spec, planner, config.base_seed + i)
         for spec in config.scenes
         for planner in config.planners
         for i in range(config.runs)),
        key=lambda task: (names[task[0]], task[1], task[2]))
    records: list[BenchRecord] = []
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        for spec, planner, seed in tasks:
            rec = _run_one(spec, planner, seed, config.timeout)
            records.append(rec)
            writer.writerow(rec.row())
            fh.flush()
            if progress:
                progress(rec)
    return records


def read_records_csv(path: str) -> list[BenchRecord]:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        # The error column may be missing: files written before it existed.
        missing = [c for c in RESULTS_HEADER if c != "error" and c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path} is not a results CSV: missing columns {missing}")
        records = []
        for row in reader:
            try:
                if None in row.values():  # csv fills the fields past a short row's end with None
                    raise ValueError(f"{sum(v is not None for v in row.values())} fields, "
                                     f"the header has {len(reader.fieldnames)}")
                records.append(BenchRecord.from_row(row))
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
        return records


def success_curves(records: list[BenchRecord]) -> dict[tuple[str, str], list[tuple[float, float]]]:
    """Per (scene, planner): step points (time, cumulative solve fraction)."""
    groups: dict[tuple[str, str], list[BenchRecord]] = {}
    for rec in records:
        groups.setdefault((rec.scene, rec.planner), []).append(rec)
    curves = {}
    for key, recs in groups.items():
        times = sorted(r.wall_time_s for r in recs if r.outcome == "solved")
        total = len(recs)
        curves[key] = [(t, (i + 1) / total) for i, t in enumerate(times)]
    return curves


def emit_success_curve(records: list[BenchRecord], out_svg: str) -> None:
    if not records:
        raise ValueError("no records to plot")
    timeout = max(max(r.wall_time_s for r in records), 1e-3)
    curves = success_curves(records)
    with open(out_svg, "w", encoding="utf-8") as fh:
        fh.write(render_success_curves(curves, timeout))
    out_csv = os.path.splitext(out_svg)[0] + ".csv"
    with open(out_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scene", "planner", "time", "success_rate"])
        for (scene, planner), pts in sorted(curves.items()):
            for t, frac in pts:
                writer.writerow([scene, planner, f"{t:.6f}", f"{frac:.6f}"])


def trace_document(result: PlannerResult) -> dict:
    """Deterministic per-run trace: iteration rows plus the tree dump.

    Wall-clock time is deliberately excluded so identical seeded runs produce
    byte-identical trace files.
    """
    doc: dict = {
        "outcome": result.outcome,
        "iterations": result.iterations,
        "tree_size": result.tree_size,
        "r_star": result.r_star,
        "arm_pulls": {TAG_FOR_ARM[a]: n for a, n in result.arm_pulls.items()} if result.arm_pulls else {},
        "arm_rewards": {TAG_FOR_ARM[a]: r for a, r in result.arm_rewards.items()} if result.arm_rewards else {},
        "diagnostics": list(result.diagnostics),
    }
    if result.tree is not None:
        doc["nodes"] = result.tree.points.tolist()
        doc["parents"] = list(result.tree.parents)
        doc["tags"] = list(result.tree.tags)
        doc["birth_iters"] = list(result.tree.birth_iters)
    if result.path is not None:
        doc["path"] = [q.tolist() for q in result.path]
    if result.trace is not None:
        doc["rows"] = [
            [row.iteration, row.arm, int(row.valid), row.reward, row.r_star, row.tree_size, *row.posterior_means,
             row.draws_sha256]
            for row in result.trace
        ]
    if result.scale_result is not None:
        doc["scale_history"] = [[r, a] for r, a in result.scale_result.history]
        doc["scale_converged"] = result.scale_result.converged
    return doc


def write_trace(result: PlannerResult, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace_document(result), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
