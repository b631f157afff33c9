"""Command-line interface.

Subcommands:
  plan   run one planner on one scene
  bench  run a multi-seed campaign from a config file
  plot   render success-rate-over-time curves from a results CSV

Exit codes: 0 success, 1 usage error, 2 scene error, 3 internal error.
A command's own input or output path that is missing or cannot be used (a
bench config, results CSV, output directory, trace or SVG file that is a
directory, say) is a usage error, named in the message; a scene file that
cannot be read is a scene error.
`bench` writes every record, then exits 3 if any run raised; each such run
is an `error` row whose `error` column holds "ExcType: message".
"""

from __future__ import annotations

import argparse
import sys

from .bandit import Arm
from .bench import BenchConfig, emit_success_curve, read_records_csv, run_benchmark, trace_document, write_trace
from .cspace import SceneError
from .planner import PLANNER_NAMES, TAG_FOR_ARM, PlannerParams, run_planner
from .rng import RngStream
from .scenes import resolve_scene_spec
from .svg import render_tree_svg

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCENE = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="narrowpass", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="run one planner on one scene")
    p_plan.add_argument("--scene", required=True, help="scene file or builtin spec (e.g. tunnel:gap=5)")
    p_plan.add_argument("--planner", required=True, choices=PLANNER_NAMES)
    p_plan.add_argument("--seed", type=_seed, default=0)
    p_plan.add_argument("--timeout", type=float, default=10.0)
    p_plan.add_argument("--trace", help="write per-run trace JSON here")
    p_plan.add_argument("--svg", help="render the tree to this SVG file (2-D scenes)")

    p_bench = sub.add_parser("bench", help="run a benchmark campaign")
    p_bench.add_argument("--config", required=True, help="benchmark config JSON")
    p_bench.add_argument("--runs", type=int)
    p_bench.add_argument("--timeout", type=float)
    p_bench.add_argument("--out", help="output directory")

    p_plot = sub.add_parser("plot", help="plot success curves from a results CSV")
    p_plot.add_argument("--in", dest="input", required=True)
    p_plot.add_argument("--out", required=True)
    return parser


def _per_arm(counts: dict) -> str:
    # Rewards are 0 or 1, so an arm's reward total is its count of valid pulls.
    return ",".join(f"{TAG_FOR_ARM[arm]}:{int(n)}" for arm, n in counts.items())


def _cmd_plan(args) -> int:
    scene = resolve_scene_spec(args.scene)
    if args.svg and scene.dimension != 2:
        raise ValueError(f"--svg renders 2-D scenes only, got dimension {scene.dimension}")
    params = PlannerParams(timeout=args.timeout)
    result = run_planner(scene, args.planner, params, RngStream(args.seed),
                         record_trace=bool(args.trace or args.svg))
    print(f"scene={scene.name} planner={args.planner} seed={args.seed} "
          f"outcome={result.outcome} iterations={result.iterations} "
          f"wall_time_s={result.wall_time:.3f} tree_size={result.tree_size}"
          + (f" path_length={result.path_length:.3f}" if result.solved else "")
          + (f" r_star={result.r_star:.3f}" if result.r_star is not None else "")
          + (f" reach=+{result.reach[Arm.PC_POSITIVE]:.3f}/-{result.reach[Arm.PC_NEGATIVE]:.3f}"
             if result.reach else "")
          + (f" arm_pulls={_per_arm(result.arm_pulls)} arm_valid={_per_arm(result.arm_rewards)}"
             if result.arm_pulls else "")
          + (f" diagnostics={'; '.join(result.diagnostics)}" if result.diagnostics else ""))
    if args.trace:
        write_trace(result, args.trace)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_tree_svg(scene, trace_document(result)))
    return EXIT_OK


def _cmd_bench(args) -> int:
    config = BenchConfig.from_file(args.config, runs=args.runs, timeout=args.timeout, out_dir=args.out)
    records = run_benchmark(config, progress=lambda r: print(
        f"{r.scene} {r.planner} seed={r.seed} {r.outcome} {r.wall_time_s:.2f}s"
        + (f" ({r.error})" if r.error else ""), flush=True))
    solved = sum(r.outcome == "solved" for r in records)
    print(f"done: {solved}/{len(records)} solved; results in {config.out_dir}/results.csv")
    failed = sum(r.outcome == "error" for r in records)
    if failed:
        print(f"error: {failed}/{len(records)} runs failed; reasons in the error column",
              file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def _cmd_plot(args) -> int:
    records = read_records_csv(args.input)
    if not records:
        print("error: no records in input CSV", file=sys.stderr)
        return EXIT_USAGE
    emit_success_curve(records, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "plan":
            return _cmd_plan(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_plot(args)
    except SceneError as exc:
        print(f"scene error: {exc}", file=sys.stderr)
        return EXIT_SCENE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # unexpected
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
