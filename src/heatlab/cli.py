"""Command-line driver.

Exit codes: 0 all checks passed, 1 a configured assertion failed,
2 malformed input or configuration. The suite command returns 2 if any
config errored, else 1 if any failed, else 0.

verify-kernel and check-admissibility are the axioms and admissibility
kinds on the command line: each builds a config document and runs it like
`run`, writing axioms.* / admissibility.* (CSV and JSON sidecar).
sample-paths --mode fk-trace and --mode pnfb take their numbers from the
fk-crosscheck and pnfb runners' helpers, experiments.fk_trace_row and
experiments.pnfb_at.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import experiments
from .errors import AssertionFailed, HeatLabError
from .graphs import load_graph
from .paths import (_bridge_steps, bridge_kernel, no_jump_lower_bound,
                    sample_free_path)
from .util import write_csv


def _flag(what: str, cast, ok=lambda value: True, listed=False):
    """An argparse type: cast text (each comma-separated item if listed),
    keep it if ok, else exit 2 with a usage error naming the flag."""
    def convert(text):
        try:
            value = [cast(v) for v in text.split(",")] if listed else cast(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return convert


_SEED = _flag("an integer >= 0", int, lambda v: v >= 0)
_COUNT = _flag("an integer >= 1", int, lambda v: v >= 1)
_TIME = _flag("a finite number > 0", float, lambda v: 0 < v < math.inf)
_REAL = _flag("a finite number", float, math.isfinite)
_INTS = _flag("comma-separated integers", int, listed=True)
_REALS = _flag("comma-separated finite numbers", float,
               lambda values: all(map(math.isfinite, values)), listed=True)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args fills a
    fresh namespace on every call, so no value carries over between calls."""
    parser = argparse.ArgumentParser(
        prog="heatlab",
        description="heat-kernel experiments on weighted graphs and tori")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=_SEED, default=None,
                       help="override the config seed")
        p.add_argument("--threads", type=_COUNT, default=1)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")
    common(p_run)

    p_suite = sub.add_parser("suite",
                             help="run every config in a directory")
    p_suite.add_argument("config_dir")
    common(p_suite)

    p_ver = sub.add_parser("verify-kernel",
                           help="check semigroup axioms for a graph")
    p_ver.add_argument("--graph", required=True)
    p_ver.add_argument("--s", type=float, default=0.5)
    p_ver.add_argument("--t", type=float, default=0.5)
    # tolerances left unset keep verify_axioms' defaults
    p_ver.add_argument("--ck-tol", type=float)
    p_ver.add_argument("--sym-tol", type=float)
    p_ver.add_argument("--mass-tol", type=float)
    p_ver.add_argument("--out", default=".")
    p_ver.set_defaults(seed=None, threads=1)

    p_sp = sub.add_parser("sample-paths",
                          help="Monte Carlo over jump trajectories")
    p_sp.add_argument("--graph", required=True)
    p_sp.add_argument("--t", type=_TIME, required=True)
    p_sp.add_argument("--samples", type=_COUNT, required=True)
    p_sp.add_argument("--seed", type=_SEED, default=0)
    p_sp.add_argument("--mode", required=True,
                      choices=("free", "bridge", "fk-trace", "pnfb"))
    p_sp.add_argument("--x", help="start vertex (index or label)")
    p_sp.add_argument("--y", help="end vertex for bridges")
    p_sp.add_argument("--K", type=_INTS,
                      help="comma-separated subset for pnfb")
    p_sp.add_argument("--potential", type=_REALS,
                      help="comma-separated vertex values for fk-trace")
    p_sp.add_argument("--constant", type=_REAL,
                      help="constant potential value for fk-trace")
    p_sp.add_argument("--threads", type=_COUNT, default=1)
    p_sp.add_argument("--out", default=".")

    p_adm = sub.add_parser("check-admissibility",
                           help="evaluate a curvature growth profile")
    p_adm.add_argument("profile", help="JSON profile document")
    p_adm.add_argument("--out", default=".")
    p_adm.set_defaults(seed=None, threads=1)
    return parser


def _vertex(graph, raw, flag):
    if raw is None:
        raise HeatLabError(f"mode requires {flag}")
    try:
        return graph.resolve(int(raw))
    except ValueError:
        return graph.resolve(raw)


def _print_result(result) -> None:
    if result.summary:
        print(result.summary)
    print(f"{result.name}: {result.status}")
    for artifact in result.artifacts:
        print(f"  wrote {artifact}")


def _cmd_run(args, config=None) -> int:
    """Run config, or the config file args.config when config is None."""
    if config is None:
        config = experiments.ExperimentConfig.from_file(args.config)
    try:
        result = experiments.run(config, args.out, seed=args.seed,
                                 threads=args.threads)
    except AssertionFailed as exc:
        _print_result(exc.result)
        raise
    _print_result(result)
    return 0


def _cmd_suite(args) -> int:
    suite = experiments.run_suite(args.config_dir, args.out, seed=args.seed,
                                  threads=args.threads)
    width = max(len(r.name) for r in suite.results)
    for r in suite.results:
        line = f"{r.name:<{width}}  {r.status}"
        if r.detail:
            line += f"  {r.detail}"
        print(line)
    counts = Counter(r.status for r in suite.results)
    print(f"{counts['pass']} passed, {counts['fail']} failed, "
          f"{counts['error']} errored; summary at {suite.summary_path}")
    return suite.exit_code


def _cmd_verify_kernel(args) -> int:
    tolerances = {key: value for key, value in (
        ("ck", args.ck_tol), ("symmetry", args.sym_tol),
        ("mass", args.mass_tol)) if value is not None}
    doc = {"kind": "axioms", "name": "axioms", "graph": args.graph,
           "s": args.s, "t": args.t, "tolerances": tolerances}
    return _cmd_run(args, experiments.ExperimentConfig.from_doc(
        doc, ".", "axioms", "verify-kernel"))


def _path_statistics(counts, t, n, seed, reference):
    """Rows for the jump counts of n sampled paths."""
    counts = np.asarray(counts, dtype=float)
    se_counts = float(counts.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    freq = int(np.count_nonzero(counts == 0)) / n
    se_freq = float(np.sqrt(freq * (1.0 - freq) / n))
    return [
        ("jump_count_mean", t, float(counts.mean()), se_counts, n, seed,
         "", ""),
        ("no_jump_probability", t, freq, se_freq, n, seed, reference,
         abs(freq - reference) if reference != "" else ""),
    ]


def _cmd_sample_paths(args) -> int:
    graph = load_graph(args.graph)
    t, n, seed = args.t, args.samples, args.seed
    header = experiments.MC_HEADER
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    if args.mode == "free":
        x = _vertex(graph, args.x, "--x")
        ref = float(np.exp(-t * graph.degree(x)))
        rows = _path_statistics(
            [sample_free_path(graph, x, t, rng).jump_count()
             for _ in range(n)], t, n, seed, ref)
    elif args.mode == "bridge":
        x = _vertex(graph, args.x, "--x")
        y = _vertex(graph, args.y, "--y")
        ref = no_jump_lower_bound(graph, x, t) if x == y else ""
        # all n bridges from one sampler call; a path's jumps are the
        # skeleton's moves, self-jumps excluded
        counts = np.zeros(n)
        at = np.full(n, x)
        for lo, z, _ in _bridge_steps(bridge_kernel(graph, t, y), x, n, rng):
            counts[lo:] += z != at[lo:]
            at[lo:] = z
        rows = _path_statistics(counts, t, n, seed, ref)
    elif args.mode == "fk-trace":
        if args.potential is not None:
            if len(args.potential) != graph.n:
                raise HeatLabError(f"--potential has {len(args.potential)} "
                                   f"values, graph has {graph.n} vertices")
            w = np.asarray(args.potential)
        elif args.constant is not None:
            w = np.full(graph.n, args.constant)
        else:
            w = np.zeros(graph.n)
        rows = [experiments.fk_trace_row(graph, w, t, n, seed, args.threads)]
    else:  # pnfb
        x = _vertex(graph, args.x, "--x")
        if args.K is None:
            raise HeatLabError("pnfb mode requires --K")
        est, bound, exact = experiments.pnfb_at(graph, x, args.K, t, n, seed)
        rows = [
            ("stay_probability", t, est.mean, est.std_error, n, seed,
             exact, abs(est.mean - exact)),
            ("stay_lower_bound", t, bound, 0.0, 0, seed, "", ""),
        ]
    path = write_csv(Path(args.out) / "sample_paths.csv", header, rows)
    for row in rows:
        print(f"{row[0]} = {row[2]!r} (se {row[3]!r})")
    print(f"wrote {path}")
    return 0


def _cmd_check_admissibility(args) -> int:
    # a bare profile document may carry the run's expect key
    profile = experiments.read_json(args.profile)
    doc = {"kind": "admissibility", "name": "admissibility", "profile": profile}
    if "expect" in profile:
        doc["expect"] = profile.pop("expect")
    return _cmd_run(args, experiments.ExperimentConfig.from_doc(
        doc, ".", "admissibility", args.profile))


_COMMANDS = {
    "run": _cmd_run,
    "suite": _cmd_suite,
    "verify-kernel": _cmd_verify_kernel,
    "sample-paths": _cmd_sample_paths,
    "check-admissibility": _cmd_check_admissibility,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except AssertionFailed as exc:
        print(f"FAILED {exc}", file=sys.stderr)
        return 1
    except HeatLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
