import csv
import dataclasses
import json
import math
import re
import subprocess
import sys
from xml.etree import ElementTree

import pytest

from narrowpass import GoalSpec, bench
from narrowpass.bench import (RESULTS_HEADER, BenchConfig, BenchRecord, PLANNER_NAMES, emit_success_curve,
                              read_records_csv, run_benchmark, success_curves, trace_document, write_trace)
from narrowpass.cli import main as cli_main
from narrowpass.planner import PlannerParams, mab_rrt_plan
from narrowpass.rng import RngStream
from narrowpass.scale_search import find_entropy_scale
from narrowpass.scenes import open_scene, resolve_scene_spec
from narrowpass.svg import render_tree_svg


def write_records_csv(records, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        for rec in records:
            writer.writerow(rec.row())


def sort_key(rec):
    return (rec.scene, rec.planner, rec.seed)


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

    def test_legend_names_are_escaped(self, tmp_path):
        recs = [dataclasses.replace(rec, scene="a<b&c", planner="p>q") for rec in make_records()]
        svg = tmp_path / "curve.svg"
        emit_success_curve(recs, str(svg))
        root = ElementTree.fromstring(svg.read_text())
        assert "a<b&c / p>q" in [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]

    def test_emit_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_success_curve([], str(tmp_path / "x.svg"))


class TestRunBenchmark:
    def test_record_cardinality_and_sorting(self, tmp_path):
        config = BenchConfig(scenes=("open",), planners=("mab-rrt", "rrt-uniform"),
                             runs=3, timeout=5.0, base_seed=10, out_dir=str(tmp_path / "out"))
        records = run_benchmark(config)
        assert len(records) == 1 * 2 * 3
        assert [sort_key(r) for r in records] == sorted(sort_key(r) for r in records)
        assert all(r.outcome == "solved" for r in records)
        on_disk = read_records_csv(str(tmp_path / "out" / "results.csv"))
        assert [sort_key(r) for r in on_disk] == [sort_key(r) for r in records]

    def test_csv_written_once_in_record_order(self, tmp_path):
        # Scenes and planners out of alphabetical order: the tasks are sorted
        # up front, so each row is written once, already in the returned order.
        config = BenchConfig(scenes=("tunnel:gap=15", "open"), planners=("rrt-uniform", "mab-rrt"),
                             runs=2, timeout=10.0, base_seed=5, out_dir=str(tmp_path / "out"))
        records = run_benchmark(config)
        assert [sort_key(r)[:2] for r in records[::2]] == [
            ("open", "mab-rrt"), ("open", "rrt-uniform"),
            ("tunnel-gap15", "mab-rrt"), ("tunnel-gap15", "rrt-uniform")]
        assert [r.seed for r in records] == [5, 6] * 4
        write_records_csv(records, str(tmp_path / "expected.csv"))
        assert (tmp_path / "out" / "results.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_each_scene_spec_is_resolved_once(self, tmp_path, monkeypatch):
        # One resolution per spec, shared by all of its runs.
        calls = []

        def counting(spec):
            calls.append(spec)
            return resolve_scene_spec(spec)

        monkeypatch.setattr(bench, "resolve_scene_spec", counting)
        config = BenchConfig(scenes=("tunnel:gap=15", "open"), planners=("rrt-uniform",),
                             runs=3, timeout=10.0, base_seed=5, out_dir=str(tmp_path / "out"))
        records = run_benchmark(config)
        assert sorted(calls) == ["open", "tunnel:gap=15"]
        assert len(records) == 6 and all(r.outcome != "error" for r in records)

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
                                    "timeout": 2.5, "seed": 7, "out": "o"}))
        assert BenchConfig.from_file(str(path), runs=4, timeout=None) == BenchConfig(
            scenes=("open",), planners=("rrt-bridge",), runs=4, timeout=2.5, base_seed=7, out_dir="o")

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
        ("timeout", 0), ("timeout", -1.0), ("timeout", math.inf), ("timeout", math.nan), ("timeout", "5"),
        ("timeout", True), ("base_seed", "7"), ("base_seed", 7.0), ("base_seed", None), ("base_seed", -5),
        ("out_dir", 3), ("out_dir", None)])
    def test_config_values_are_type_checked(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            BenchConfig(**{"scenes": ("open",), key: value})

    def test_serial_run_does_not_import_the_process_pool(self, tmp_path):
        # Importing narrowpass.bench (perfbench's set-up probe does) or running
        # a campaign must not pay for concurrent.futures.process.
        code = ("import sys; import narrowpass.bench as b; "
                "assert 'concurrent.futures.process' not in sys.modules; "
                f"b.run_benchmark(b.BenchConfig(scenes=('open',), planners=('rrt-uniform',), runs=1, "
                f"out_dir={str(tmp_path)!r})); "
                "assert 'concurrent.futures.process' not in sys.modules")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_no_scenes_writes_header_only(self, tmp_path):
        config = tmp_path / "bench.json"
        config.write_text(json.dumps({"scenes": [], "out": str(tmp_path / "res")}))
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

    def test_escape_goal_circle_around_the_start(self):
        # The escape threshold is drawn as a circle centred on the start
        # marker (an 8-px square), its radius the threshold in pixels: the
        # bounds frame's pixel width over its width in scene units.
        tunnel = resolve_scene_spec("tunnel:gap=5")
        scene = dataclasses.replace(tunnel, goal=GoalSpec("escape", threshold=10.0))
        svg = render_tree_svg(scene, None)
        num = r'"([-0-9.]+)"'
        frame = re.search(rf'<rect x={num} y={num} width={num} height={num} fill="none" stroke="#888"', svg)
        start = re.search(rf'<rect x={num} y={num} width="8" height="8" fill="#7ac74f"', svg)
        circles = re.findall(rf'<circle cx={num} cy={num} r={num} fill="none" stroke="#d62728"', svg)
        scale = float(frame[3]) / (scene.bounds.hi[0] - scene.bounds.lo[0])
        cx, cy = float(start[1]) + 4, float(start[2]) + 4
        assert [tuple(map(float, c)) for c in circles] == [
            pytest.approx((cx, cy, 10.0 * scale), abs=2e-3)]

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

    def test_nan_timeout_exit_1(self):
        # A NaN timeout would never fire: it is a usage error, like a negative one.
        for value in ("nan", "-1"):
            proc = run_cli("plan", "--scene", "tunnel:gap=5", "--planner", "rrt-uniform", "--timeout", value)
            assert proc.returncode == 1
            assert "error: timeout must be positive" in proc.stderr

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

    @pytest.mark.parametrize("key, value, message", [
        ("obstacles", [1], "obstacle must be a JSON object, got int"),
        ("goal", 3, "goal must be a JSON object, got int"),
        ("obstacles", 5, "obstacles must be a JSON array, got int"),
        ("bounds", [0, 1], "bounds must be a JSON object, got list"),
        ("goal", {"kind": "escape", "threshold": "5"}, "goal of kind 'escape': '>' not supported"),
        ("start", "x", "start: could not convert string to float: 'x'"),
    ])
    def test_malformed_scene_value_exit_2(self, tmp_path, key, value, message):
        # A value of the wrong JSON type is a scene error, not an internal one.
        doc = {"name": "bad", "dimension": 2, "bounds": {"lo": [0, 0], "hi": [10, 10]}, "start": [1, 1],
               "goal": {"kind": "escape", "threshold": 5}, "obstacles": [], key: value}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli("plan", "--scene", str(bad), "--planner", "rrt-uniform")
        assert proc.returncode == 2
        assert f"scene error: {message}" in proc.stderr

    def test_bad_bench_config_exit_1(self, tmp_path):
        config = tmp_path / "bench.json"
        for doc, message in (({"scenes": ["open"], "run": 3}, "unknown bench config keys ['run']"),
                             (["open"], "bench config must be a JSON object, got list"),
                             ({"scenes": ["open"], "runs": "3"}, "runs must be an integer >= 1, got '3'"),
                             ({"scenes": "open"}, "scenes must be a list of strings, got 'open'"),
                             # A negative seed fails here, not as one error row per run.
                             ({"scenes": ["open"], "seed": -5}, "base_seed must be a non-negative integer, got -5")):
            config.write_text(json.dumps(doc))
            proc = run_cli("bench", "--config", str(config), "--out", str(tmp_path / "res"))
            assert proc.returncode == 1
            assert f"error: {message}" in proc.stderr
        # Malformed JSON names the file, as a malformed scene file does.
        config.write_text('{"scenes": ["open"],}')
        proc = run_cli("bench", "--config", str(config), "--out", str(tmp_path / "res"))
        assert proc.returncode == 1
        assert (f"error: bench config {config}: invalid JSON at line 1, column 21: "
                "Expecting property name enclosed in double quotes") in proc.stderr
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("command", [["bench", "--config"], ["plot", "--out", "curves.svg", "--in"]])
    def test_missing_input_file_exit_1(self, tmp_path, command):
        # A missing config or results CSV is a usage error; only a missing scene file is a scene error.
        missing = tmp_path / "missing"
        proc = run_cli(*command, str(missing))
        assert proc.returncode == 1, proc.stderr
        assert f"error: [Errno 2] No such file or directory: {str(missing)!r}" in proc.stderr
        assert "scene error" not in proc.stderr

    def test_plot_csv_without_results_columns_exit_1(self, tmp_path):
        csv_path, plot = tmp_path / "other.csv", tmp_path / "curves.svg"
        csv_path.write_text("scene,planner,seed,time\nopen,mab-rrt,1,0.5\n")
        proc = run_cli("plot", "--in", str(csv_path), "--out", str(plot))
        assert proc.returncode == 1, proc.stderr
        assert ("missing columns ['outcome', 'wall_time_s', 'iterations', 'path_length', 'tree_size', 'r_star']"
                in proc.stderr)
        assert not plot.exists()

    @pytest.mark.parametrize("row, message", [
        ("open,mab-rrt,1,solved,0.5", "line 3: 5 fields, the header has 10"),
        ("open,mab-rrt,1,solved,0.5,7,,2,,,extra,", "line 3: 12 fields, the header has 10"),
        ("open,mab-rrt,abc,solved,0.5,7,,2,,", "line 3: invalid literal for int() with base 10: 'abc'"),
        ("open,mab-rrt,1,solved,nan,7,,2,,", "line 3: wall_time_s must be a finite number >= 0, got 'nan'"),
        ("open,mab-rrt,1,solved,-0.5,7,,2,,", "line 3: wall_time_s must be a finite number >= 0, got '-0.5'"),
    ], ids=["short-row", "long-row", "non-numeric-seed", "nan-wall-time", "negative-wall-time"])
    def test_plot_bad_row_exit_1_names_the_line(self, tmp_path, row, message):
        csv_path, plot = tmp_path / "results.csv", tmp_path / "curves.svg"
        csv_path.write_text(",".join(RESULTS_HEADER) + "\nopen,mab-rrt,0,solved,0.25,7,,2,,\n" + row + "\n")
        proc = run_cli("plot", "--in", str(csv_path), "--out", str(plot))
        assert proc.returncode == 1, proc.stderr
        assert f"error: {csv_path}, {message}\n" == proc.stderr
        assert not plot.exists()

    def test_plan_svg_of_a_scene_not_2d_exit_1_before_planning(self, tmp_path):
        line, trace, svg = tmp_path / "line.json", tmp_path / "t.json", tmp_path / "t.svg"
        line.write_text(json.dumps(LINE_SCENE))
        proc = run_cli("plan", "--scene", str(line), "--planner", "rrt-uniform",
                       "--trace", str(trace), "--svg", str(svg))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "error: --svg renders 2-D scenes only, got dimension 1" in proc.stderr
        assert not trace.exists() and not svg.exists()

    @pytest.mark.parametrize("spec, key", [("tunnel:gap=5,gap=7", "gap"),
                                           ("tunnel:length=20,gap=5,length=20", "length")], ids=["gap", "length"])
    def test_repeated_spec_key_exit_1(self, spec, key):
        proc = run_cli("plan", "--scene", spec, "--planner", "rrt-uniform")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert f"error: tunnel parameter {key!r} given twice" in proc.stderr

    @pytest.mark.parametrize("command", [["plan", "--planner", "rrt-uniform", "--trace"]])
    def test_negative_seed_exit_1(self, tmp_path, command):
        out = tmp_path / "out"
        proc = run_cli(*command, str(out), "--scene", "tunnel:gap=5", "--seed", "-1")
        assert proc.returncode == 1
        assert "error: argument --seed: must be a non-negative integer, got -1" in proc.stderr
        assert not out.exists()

    def test_mab_rrt_one_dimensional_scene_exit_1(self, tmp_path):
        line = tmp_path / "line.json"
        line.write_text(json.dumps(LINE_SCENE))
        proc = run_cli("plan", "--scene", str(line), "--planner", "mab-rrt")
        assert proc.returncode == 1
        assert "error: mab-rrt needs a scene of dimension 2 or more, got 1" in proc.stderr
        proc = run_cli("plan", "--scene", str(line), "--planner", "rrt-uniform")
        assert proc.returncode == 0, proc.stderr
        assert "outcome=solved" in proc.stdout

    @pytest.mark.parametrize("gap", [5, 15])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_plan_scale_history_is_the_search(self, tmp_path, gap, seed):
        # mab-rrt's scale search is the first to draw from the plan's stream,
        # so the trace's scale_history is the search's history, bit for bit.
        trace, spec = tmp_path / "trace.json", f"tunnel:gap={gap}"
        assert cli_main(["plan", "--scene", spec, "--planner", "mab-rrt", "--seed", str(seed),
                         "--trace", str(trace)]) == 0
        scene = resolve_scene_spec(spec)
        history = find_entropy_scale(scene, scene.start, RngStream(seed)).history
        assert json.loads(trace.read_text())["scale_history"] == [[r, a] for r, a in history]
        assert history

    def test_removed_subcommand_exit_1(self, tmp_path):
        # The deleted subcommand that wrote the scale search's history as CSV;
        # its name is joined here so that no source line spells it.
        removed, out = "-".join(["scale", "trace"]), tmp_path / "x"
        proc = run_cli(removed, "--scene", "tunnel:gap=5", "--out", str(out))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert f"error: argument command: invalid choice: {removed!r}" in proc.stderr
        assert not out.exists()

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
