import csv
import json
import math
import subprocess
import sys

import pytest

from narrowpass.bench import (RESULTS_HEADER, BenchConfig, BenchRecord, PLANNER_NAMES, emit_success_curve,
                              read_records_csv, run_benchmark, success_curves,
                              trace_document, write_records_csv, write_trace)
from narrowpass.planner import PlannerParams, mab_rrt_plan
from narrowpass.rng import RngStream
from narrowpass.scenes import open_scene, resolve_scene_spec
from narrowpass.svg import render_tree_svg


def make_records():
    recs = []
    for seed, (outcome, t) in enumerate([("solved", 0.5), ("solved", 1.5),
                                         ("timeout", 10.0), ("solved", 3.25)]):
        recs.append(BenchRecord(scene="s", planner="p", seed=seed, outcome=outcome,
                                wall_time_s=t, iterations=seed * 100 + 7,
                                path_length=12.3456789 if outcome == "solved" else None,
                                tree_size=seed + 2, r_star=None if seed % 2 else 3.14159))
    return recs


class TestRecordsCsv:
    def test_round_trip(self, tmp_path):
        recs = make_records()
        path = str(tmp_path / "r.csv")
        write_records_csv(recs, path)
        back = read_records_csv(path)
        assert len(back) == len(recs)
        for a, b in zip(recs, back):
            assert (a.scene, a.planner, a.seed, a.outcome) == (b.scene, b.planner, b.seed, b.outcome)
            assert abs(a.wall_time_s - b.wall_time_s) < 1e-6
            assert a.iterations == b.iterations
            assert a.tree_size == b.tree_size
            for fa, fb in ((a.path_length, b.path_length), (a.r_star, b.r_star)):
                if fa is None:
                    assert fb is None
                else:
                    assert abs(fa - fb) < 1e-9


    def test_error_column(self, tmp_path):
        recs = make_records()
        recs[2].outcome, recs[2].error = "error", "ValueError: bad, \"quoted\" reason"
        path = tmp_path / "r.csv"
        write_records_csv(recs, str(path))
        assert [r.error for r in read_records_csv(str(path))] == [r.error for r in recs]
        # Files written before the error column existed still load.
        legacy = tmp_path / "legacy.csv"
        legacy.write_text("scene,planner,seed,outcome,wall_time_s,iterations,path_length,tree_size,r_star\n"
                          "s,p,0,solved,0.500000,7,12.3456789,2,3.14159\n")
        (rec,) = read_records_csv(str(legacy))
        assert (rec.seed, rec.error) == (0, "")


class TestSuccessCurves:
    def test_plateau_fraction(self):
        curves = success_curves(make_records())
        pts = curves[("s", "p")]
        # 3 of 4 runs solved: curve steps to 3/4 and no further.
        assert pts[-1][1] == pytest.approx(0.75)
        assert [p[1] for p in pts] == pytest.approx([0.25, 0.5, 0.75])

    def test_monotone_in_time_and_fraction(self):
        pts = success_curves(make_records())[("s", "p")]
        assert all(a[0] <= b[0] and a[1] < b[1] for a, b in zip(pts[:-1], pts[1:]))

    def test_emit_writes_svg_and_csv(self, tmp_path):
        svg = tmp_path / "curve.svg"
        emit_success_curve(make_records(), str(svg))
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text
        assert (tmp_path / "curve.csv").read_text().startswith("scene,planner,time,success_rate")

    def test_emit_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_success_curve([], str(tmp_path / "x.svg"))


class TestRunBenchmark:
    def test_record_cardinality_and_sorting(self, tmp_path):
        config = BenchConfig(scenes=("open",), planners=("mab-rrt", "rrt-uniform"),
                             runs=3, timeout=5.0, base_seed=10, out_dir=str(tmp_path / "out"))
        records = run_benchmark(config)
        assert len(records) == 1 * 2 * 3
        assert [r.sort_key for r in records] == sorted(r.sort_key for r in records)
        assert all(r.outcome == "solved" for r in records)
        on_disk = read_records_csv(str(tmp_path / "out" / "results.csv"))
        assert [r.sort_key for r in on_disk] == [r.sort_key for r in records]

    def test_csv_written_once_in_record_order(self, tmp_path):
        # Scenes and planners out of alphabetical order: the tasks are sorted
        # up front, so each row is written once, already in the returned order.
        config = BenchConfig(scenes=("tunnel:gap=15", "open"), planners=("rrt-uniform", "mab-rrt"),
                             runs=2, timeout=10.0, base_seed=5, out_dir=str(tmp_path / "out"))
        records = run_benchmark(config)
        assert [r.sort_key[:2] for r in records[::2]] == [
            ("open", "mab-rrt"), ("open", "rrt-uniform"),
            ("tunnel-gap15", "mab-rrt"), ("tunnel-gap15", "rrt-uniform")]
        assert [r.seed for r in records] == [5, 6] * 4
        write_records_csv(records, str(tmp_path / "expected.csv"))
        assert (tmp_path / "out" / "results.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_bad_scene_aborts_before_running(self, tmp_path):
        config = BenchConfig(scenes=("tunnel:gap=-1",), runs=1,
                             out_dir=str(tmp_path / "out"))
        with pytest.raises(Exception):
            run_benchmark(config)

    def test_unknown_planner_rejected(self):
        with pytest.raises(ValueError):
            BenchConfig(scenes=("open",), planners=("rrt-quantum",))

    def test_config_file_sets_only_its_keys(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"scenes": ["open"]}))
        assert BenchConfig.from_file(str(path)) == BenchConfig(scenes=("open",))
        path.write_text(json.dumps({"scenes": ["open"], "planners": ["rrt-bridge"], "runs": 3,
                                    "timeout": 2.5, "seed": 7, "out": "o", "jobs": 2}))
        assert BenchConfig.from_file(str(path), runs=4, timeout=None) == BenchConfig(
            scenes=("open",), planners=("rrt-bridge",), runs=4, timeout=2.5, base_seed=7,
            out_dir="o", jobs=2)

    def test_config_file_rejects_unknown_keys_and_non_objects(self, tmp_path):
        # Misspelt keys are named, not ignored.
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"scenes": ["open"], "run": 3, "planner": ["rrt-uniform"]}))
        with pytest.raises(ValueError, match=r"unknown bench config keys \['planner', 'run'\]"):
            BenchConfig.from_file(str(path))
        for doc in (["open"], "open", 3, None):
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match="bench config must be a JSON object"):
                BenchConfig.from_file(str(path))

    @pytest.mark.parametrize("key, value", [
        ("scenes", "open"), ("scenes", ("open", 3)), ("scenes", None),
        ("planners", "rrt-uniform"), ("planners", ("rrt-uniform", None)),
        ("runs", "3"), ("runs", 0), ("runs", 2.0), ("runs", True),
        ("jobs", 0), ("jobs", "2"), ("jobs", 1.5), ("jobs", False),
        ("timeout", 0), ("timeout", -1.0), ("timeout", math.inf), ("timeout", math.nan), ("timeout", "5"),
        ("timeout", True), ("base_seed", "7"), ("base_seed", 7.0), ("base_seed", None),
        ("out_dir", 3), ("out_dir", None)])
    def test_config_values_are_type_checked(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            BenchConfig(**{"scenes": ("open",), key: value})

    def test_serial_run_does_not_import_the_process_pool(self, tmp_path):
        # Importing narrowpass.bench (perfbench's set-up probe does) or running
        # it with jobs=1 must not pay for concurrent.futures.process.
        code = ("import sys; import narrowpass.bench as b; "
                "assert 'concurrent.futures.process' not in sys.modules; "
                f"b.run_benchmark(b.BenchConfig(scenes=('open',), planners=('rrt-uniform',), runs=1, "
                f"out_dir={str(tmp_path)!r})); "
                "assert 'concurrent.futures.process' not in sys.modules")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_parallel_rows_equal_serial_rows(self, tmp_path):
        rows = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            run_benchmark(BenchConfig(scenes=("open", "tunnel:gap=15"), planners=("mab-rrt", "rrt-uniform"),
                                      runs=2, timeout=10.0, base_seed=3, out_dir=str(out), jobs=jobs))
            with open(out / "results.csv", newline="") as fh:
                rows.append([row[:4] + row[5:] for row in csv.reader(fh)])  # all but wall_time_s
        assert len(rows[0]) == 1 + 2 * 2 * 2
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_scenes_writes_header_only(self, tmp_path, jobs):
        config = tmp_path / "bench.json"
        config.write_text(json.dumps({"scenes": [], "out": str(tmp_path / "res"), "jobs": jobs}))
        proc = run_cli("bench", "--config", str(config))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "res" / "results.csv").read_text().splitlines() == [",".join(RESULTS_HEADER)]


class TestTraceDocument:
    def test_byte_identical_for_same_seed(self, tmp_path):
        scene = resolve_scene_spec("tunnel:gap=10")
        paths = []
        for name in ("a.json", "b.json"):
            result = mab_rrt_plan(scene, PlannerParams(timeout=10.0), RngStream(7),
                                  record_trace=True)
            p = tmp_path / name
            write_trace(result, str(p))
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_document_fields(self):
        scene = open_scene()
        result = mab_rrt_plan(scene, PlannerParams(timeout=5.0), RngStream(3),
                              record_trace=True)
        doc = trace_document(result)
        assert doc["outcome"] == "solved"
        assert len(doc["nodes"]) == doc["tree_size"] == len(doc["parents"]) == len(doc["tags"])
        assert doc["parents"][0] == 0
        assert set(doc["tags"]) <= {"burnin", "uniform", "pc-positive", "pc-negative", "root"}
        assert doc["scale_history"]


class TestTreeSvg:
    def test_structure(self):
        scene = resolve_scene_spec("tunnel:gap=10")
        result = mab_rrt_plan(scene, PlannerParams(timeout=10.0), RngStream(5),
                              record_trace=True)
        svg = render_tree_svg(scene, trace_document(result))
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "circle" in svg  # r* marker and goal region
        assert "rect" in svg    # obstacles

    def test_scene_only(self):
        svg = render_tree_svg(open_scene(), None)
        assert "<svg" in svg

    def test_non_2d_rejected(self):
        import numpy as np
        from narrowpass import Bounds, GoalSpec, Scene
        scene = Scene(name="3d", bounds=Bounds([-1.0] * 3, [1.0] * 3),
                      start=np.zeros(3), goal=GoalSpec("escape", threshold=10.0))
        with pytest.raises(ValueError):
            render_tree_svg(scene, None)


CLI = [sys.executable, "-m", "narrowpass"]


LINE_SCENE = {
    "name": "line", "dimension": 1, "bounds": {"lo": [-10.0], "hi": [10.0]},
    "start": [0.0], "goal": {"kind": "ball", "center": [8.0], "tolerance": 1.0},
    "obstacles": []}


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


class TestCli:
    def test_plan_smoke(self, tmp_path):
        trace = tmp_path / "t.json"
        svg = tmp_path / "t.svg"
        proc = run_cli("plan", "--scene", "tunnel:gap=10", "--planner", "mab-rrt",
                       "--seed", "1", "--trace", str(trace), "--svg", str(svg))
        assert proc.returncode == 0, proc.stderr
        assert "outcome=solved" in proc.stdout
        assert json.loads(trace.read_text())["outcome"] == "solved"
        assert svg.read_text().startswith("<svg")

    def test_plan_prints_r_star_and_arm_counts(self, tmp_path):
        trace = tmp_path / "t.json"
        proc = run_cli("plan", "--scene", "tunnel:gap=5", "--planner", "mab-rrt", "--seed", "1",
                       "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        fields = dict(f.split("=", 1) for f in proc.stdout.split())
        doc = json.loads(trace.read_text())
        assert fields["r_star"] == f"{doc['r_star']:.3f}"
        pulls = dict(kv.split(":") for kv in fields["arm_pulls"].split(","))
        valid = dict(kv.split(":") for kv in fields["arm_valid"].split(","))
        assert pulls == {arm: str(n) for arm, n in doc["arm_pulls"].items()}
        assert list(pulls) == ["uniform", "pc-positive", "pc-negative"]
        # Valid pulls are the arm's 0/1 reward total.
        assert valid == {arm: str(int(r)) for arm, r in doc["arm_rewards"].items()}
        assert sum(map(int, pulls.values())) == int(fields["iterations"])
        # Both cylinder arms' reaches; r* is the larger.
        positive, negative = fields["reach"].split("/")
        assert positive.startswith("+") and negative.startswith("-")
        assert fields["r_star"] == max(positive[1:], negative[1:], key=float)
        baseline = run_cli("plan", "--scene", "tunnel:gap=5", "--planner", "rrt-uniform", "--seed", "1")
        assert baseline.returncode == 0, baseline.stderr
        assert not {"r_star=", "reach=", "arm_pulls="} & set(f[:f.find("=") + 1] for f in baseline.stdout.split())

    def test_plan_trace_determinism(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            p = tmp_path / name
            proc = run_cli("plan", "--scene", "tunnel:gap=10", "--planner", "mab-rrt",
                           "--seed", "42", "--trace", str(p))
            assert proc.returncode == 0, proc.stderr
            outs.append(p.read_bytes())
        assert outs[0] == outs[1]

    def test_usage_error_exit_1(self):
        assert run_cli("plan", "--scene", "open").returncode == 1       # missing --planner
        assert run_cli("plan", "--scene", "open", "--planner", "nope").returncode == 1
        assert run_cli().returncode == 1

    def test_scene_error_exit_2(self, tmp_path):
        proc = run_cli("plan", "--scene", "/no/such/scene.json",
                       "--planner", "rrt-uniform")
        assert proc.returncode == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"bounds": "nope"}')
        assert run_cli("plan", "--scene", str(bad), "--planner", "rrt-uniform").returncode == 2
        # An obstacle of the wrong dimension is a scene error, found at load time.
        bad.write_text(json.dumps({"name": "bad", "dimension": 2, "bounds": {"lo": [0, 0], "hi": [10, 10]},
                                   "start": [1, 1], "goal": {"kind": "escape", "threshold": 5},
                                   "obstacles": [{"kind": "box", "lo": [3, 3, 3], "hi": [4, 4, 4]}]}))
        proc = run_cli("plan", "--scene", str(bad), "--planner", "rrt-uniform")
        assert proc.returncode == 2
        assert "scene error: box dimension does not match bounds" in proc.stderr

    def test_bad_bench_config_exit_1(self, tmp_path):
        config = tmp_path / "bench.json"
        for doc, message in (({"scenes": ["open"], "run": 3}, "unknown bench config keys ['run']"),
                             (["open"], "bench config must be a JSON object, got list"),
                             ({"scenes": ["open"], "runs": "3"}, "runs must be an integer >= 1, got '3'"),
                             ({"scenes": "open"}, "scenes must be a list of strings, got 'open'")):
            config.write_text(json.dumps(doc))
            proc = run_cli("bench", "--config", str(config), "--out", str(tmp_path / "res"))
            assert proc.returncode == 1
            assert f"error: {message}" in proc.stderr
        assert not (tmp_path / "res").exists()

    def test_mab_rrt_one_dimensional_scene_exit_1(self, tmp_path):
        line = tmp_path / "line.json"
        line.write_text(json.dumps(LINE_SCENE))
        proc = run_cli("plan", "--scene", str(line), "--planner", "mab-rrt")
        assert proc.returncode == 1
        assert "error: mab-rrt needs a scene of dimension 2 or more, got 1" in proc.stderr
        proc = run_cli("plan", "--scene", str(line), "--planner", "rrt-uniform")
        assert proc.returncode == 0, proc.stderr
        assert "outcome=solved" in proc.stdout

    def test_scale_trace(self, tmp_path):
        out = tmp_path / "scale.csv"
        proc = run_cli("scale-trace", "--scene", "tunnel:gap=5", "--seed", "0",
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,radius,alpha"
        assert len(lines) > 1

    def test_scale_trace_one_dimensional_scene(self, tmp_path):
        line, out = tmp_path / "line.json", tmp_path / "scale.csv"
        line.write_text(json.dumps(LINE_SCENE))
        proc = run_cli("scale-trace", "--scene", str(line), "--seed", "0", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,radius,alpha"
        assert len(lines) > 1

    def test_bench_failed_runs_exit_3_with_reason(self, tmp_path):
        line, config = tmp_path / "line.json", tmp_path / "bench.json"
        line.write_text(json.dumps(LINE_SCENE))
        config.write_text(json.dumps({
            "scenes": [str(line)], "planners": ["mab-rrt", "rrt-uniform"], "runs": 1,
            "timeout": 5.0, "seed": 1, "out": str(tmp_path / "res")}))
        proc = run_cli("bench", "--config", str(config))
        assert proc.returncode == 3, proc.stderr
        message = "ValueError: mab-rrt needs a scene of dimension 2 or more, got 1"
        assert message in proc.stdout
        assert "1/2 runs failed" in proc.stderr
        mab, uniform = read_records_csv(str(tmp_path / "res" / "results.csv"))
        assert (mab.planner, mab.outcome) == ("mab-rrt", "error") and mab.error.startswith(message)
        assert (uniform.planner, uniform.outcome, uniform.error) == ("rrt-uniform", "solved", "")

    def test_bench_and_plot(self, tmp_path):
        config = tmp_path / "bench.json"
        config.write_text(json.dumps({
            "scenes": ["open"], "planners": ["mab-rrt"], "runs": 2,
            "timeout": 5.0, "seed": 1, "out": str(tmp_path / "res")}))
        proc = run_cli("bench", "--config", str(config))
        assert proc.returncode == 0, proc.stderr
        csv_path = tmp_path / "res" / "results.csv"
        assert len(read_records_csv(str(csv_path))) == 2
        plot = tmp_path / "curves.svg"
        proc = run_cli("plot", "--in", str(csv_path), "--out", str(plot))
        assert proc.returncode == 0, proc.stderr
        assert plot.read_text().startswith("<svg")
