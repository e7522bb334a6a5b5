"""heatlab benchmark: one workload, a closed loop of rounds, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root; heatlab is imported from ./src. One client
runs one round at a time, each round in a fresh worker process that imports
heatlab and runs the workload's operations back to back through the CLI and
library entry points (see README.md). Rounds repeat until the next one would
pass --seconds; every round runs the same operations on the same inputs,
which are generated from --seed before the first round. After the last round
every output is checked against the independent computations in checks.py.

Before the first round and after each one, the launcher times the
workload's reference computations (calibrate.py). A round's operation
times are divided by how much slower than nominal those ran around it, so
wall_s and op_p50_s are in seconds at the reference host speed; the
unscaled times are kept in summary.json.

The BLAS and OpenMP pools are pinned to one thread here, before numpy loads,
and the workers inherit that. Each workload ends its output with one line
holding a JSON object: correct, attempted, failed and the metrics
(end-to-end ones with --trace 0, per-layer ones with --trace 1, where traced
and untraced rounds alternate). With one workload that line is the last line
of stdout; ``all`` prints one such line per workload, in turn. Exits 2,
with no result line for the workload, when the benchmark cannot run it.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checks  # noqa: E402
import layer_trace  # noqa: E402
import workloads  # noqa: E402

RESULTS = HERE / "results"
SETUP_PROBES = 5          # extra launch-to-ready samples per run
WORKER_TIMEOUT_S = 150.0

END_TO_END = {"wall_s": "s", "op_p50_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark itself could not run."""


def _worker(plan: Path, round_dir: Path, mode: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    launched = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan), str(round_dir),
         mode], env=env, cwd=str(ROOT), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    result = json.loads((round_dir / "result.json").read_text())
    result["setup_s"] = result["ready"] - launched
    return result


def check_rounds(plan: dict, rounds: list):
    """Check every operation of every round; return (attempted, failed,
    failures). A failure is ``expected`` only when it is the known fault,
    failing as that fault fails and in no other way."""
    checker = checks.Checker()
    attempted = failed = 0
    failures = []
    for i, rnd in enumerate(rounds):
        by_name = {rec["name"]: rec for rec in rnd["ops"]}
        for op, rec in zip(plan["ops"], rnd["ops"]):
            try:
                msgs = checker.check(op, Path(rec["out"]), rec, by_name)
            except (OSError, KeyError, ValueError, IndexError,
                    TypeError) as exc:
                msgs = [f"output unreadable: {exc!r}"]
            attempted += 1
            if msgs:
                failed += 1
                expected = checks.is_known_fault(op, msgs)
                failures.append({"round": i, "op": op["name"],
                                 "expected": expected, "messages": msgs[:5]})
    return attempted, failed, failures


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    out = RESULTS / f"{name}-seed{seed}{'-trace' if trace else ''}"
    shutil.rmtree(out, ignore_errors=True)
    plan = workloads.build(name, seed, out / "inputs")
    plan_path = out / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1))

    setups = [_worker(plan_path, out / f"probe{i}", "probe")["setup_s"]
              for i in range(SETUP_PROBES)]
    rounds = []
    calib = [calibrate.measure(plan["calibrate"])]
    start = time.monotonic()
    while True:
        traced = trace and len(rounds) % 2 == 1
        rnd = _worker(plan_path, out / f"round{len(rounds):03d}",
                      "trace" if traced else "run")
        rnd["traced"] = traced
        rounds.append(rnd)
        # the host's speed just before and just after this round
        calib.append(calibrate.measure(plan["calibrate"]))
        rnd["slowdown"] = calibrate.slowdown(calib[-2], calib[-1])
        elapsed = time.monotonic() - start
        if (elapsed * (len(rounds) + 1) / len(rounds) > seconds
                and (len(rounds) >= 2 or not trace)):
            break
    setups += [r["setup_s"] for r in rounds]

    # outputs are checked only after every worker has ended
    attempted, failed, failures = check_rounds(plan, rounds)
    # kernel tables take ~50 MB a run; keep only rounds that went wrong
    wrong = {f["round"] for f in failures if not f["expected"]}
    for i, rnd in enumerate(rounds):
        if i not in wrong:
            for rec in rnd["ops"]:
                shutil.rmtree(rec["out"], ignore_errors=True)

    def norm_ops(rnd):
        return [x["wall_s"] / rnd["slowdown"] for x in rnd["ops"]]

    plain = [r for r in rounds if not r["traced"]]
    per_op = list(zip(*(norm_ops(r) for r in plain)))
    summary = {
        "workload": name, "seed": seed, "rounds": len(rounds),
        "attempted": attempted, "failed": failed, "failures": failures,
        "wall_s": statistics.median(sum(norm_ops(r)) for r in plain),
        "op_p50_s": statistics.median(statistics.median(v) for v in per_op),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "raw_wall_s": statistics.median(sum(x["wall_s"] for x in r["ops"])
                                        for r in plain),
        "cpu_s": statistics.median(sum(x["cpu_s"] for x in r["ops"])
                                   for r in plain),
        "slowdown": statistics.median(r["slowdown"] for r in plain),
        "round_slowdowns": [r["slowdown"] for r in rounds],
        "calibration": calib,
        "ops": {op["name"]: statistics.median(v)
                for op, v in zip(plan["ops"], per_op)},
    }
    if trace:
        per_round = [layer_trace.summarize(r["trace"])
                     for r in rounds if r["traced"]]
        layers = {m: statistics.median(pr[m] for pr in per_round)
                  for m in layer_trace.METRICS if m != "trace.overhead_s"}
        traced_wall = statistics.median(
            sum(norm_ops(r)) for r in rounds if r["traced"])
        layers["trace.overhead_s"] = traced_wall - summary["wall_s"]
        summary["layers"] = layers
    (out / "summary.json").write_text(json.dumps(summary, indent=1))
    return summary


def _report(summary: dict, trace: bool) -> dict:
    units = layer_trace.METRICS if trace else END_TO_END
    values = summary["layers"] if trace else summary
    # the operation kept for a known, seed-independent program fault fails
    # in every round; it counts as failed but does not make the run wrong
    unexpected = [f for f in summary["failures"] if not f["expected"]]
    return {"correct": not unexpected,
            "attempted": summary["attempted"], "failed": summary["failed"],
            "metrics": {m: {"value": values[m], "unit": u}
                        for m, u in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "heatlab" / "__init__.py").is_file():
        print(f"error: no heatlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = (workloads.WORKLOADS if args.workload == "all"
             else (args.workload,))
    for name in names:
        try:
            summary = run_workload(name, args.seed, args.seconds,
                                   bool(args.trace))
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        report = _report(summary, bool(args.trace))
        print(f"{name}: attempted {report['attempted']}, failed "
              f"{report['failed']}, rounds {summary['rounds']}, "
              f"host slowdown {summary['slowdown']:.3f}, unscaled wall "
              f"{summary['raw_wall_s']:.4f} s, cpu {summary['cpu_s']:.4f} s")
        for metric, m in report["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
        for f in summary["failures"][:5]:
            known = " (the known fault)" if f["expected"] else ""
            print(f"  FAILED round {f['round']} {f['op']}{known}: "
                  f"{'; '.join(f['messages'])}")
        print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
