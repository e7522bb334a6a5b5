"""One round of a benchmark workload, in a fresh process.

    python3 worker.py PLAN ROUND_DIR MODE      MODE: run | trace | probe

The launcher starts this with heatlab on PYTHONPATH and the BLAS and OpenMP
pools pinned to one thread. It imports heatlab, notes the monotonic clock
(set-up ends there), then runs the plan's operations back to back through
heatlab's public entry points and writes ROUND_DIR/result.json: per-op wall
and CPU time, exit code and return value, and the process's peak RSS. This
process never imports scipy or the benchmark's checks; the launcher checks
the outputs after the process has ended. ``probe`` stops after the import.
"""

import time

import heatlab
import heatlab.cli

READY = time.monotonic()

import contextlib  # noqa: E402  (after the set-up timestamp on purpose)
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402


def _call(op: dict, out: Path):
    """Run one operation; return (exit_code, value)."""
    if op["call"] == "cli":
        argv = [a.replace("{out}", str(out)) for a in op["argv"]]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            try:
                code = heatlab.cli.main(argv)
            except SystemExit as exc:  # argparse rejects a command line
                code = exc.code
        (out / "stdout.txt").write_text(sink.getvalue())
        return code, None
    graph = heatlab.load_graph(op["graph"])
    if op["call"] == "kato_modulus":
        return 0, heatlab.kato_modulus(graph, np.asarray(op["potential"]),
                                       op["t"])
    if op["call"] == "minimal_heat_kernel":
        seq = heatlab.minimal_heat_kernel(
            graph, heatlab.Exhaustion(op["subsets"]), op["t"], op["x"],
            op["y"])
        return 0, seq.values.tolist()
    raise ValueError(f"unknown call {op['call']!r}")


def _capture_tables(spec: dict, out: Path) -> None:
    """Save the kernel tables an op computed, read back from the table
    cache (or recomputed if the cache no longer holds them)."""
    graph = heatlab.load_graph(spec["graph"])
    tables = [heatlab.heat_semigroup(graph, t) for t in spec["times"]]
    np.savez(out / "tables.npz", times=np.array(spec["times"]),
             values=np.stack([tab.values for tab in tables]),
             tail_bounds=np.array([tab.truncation_error_bound
                                   for tab in tables]))


def _peak_rss_mb() -> float:
    """Peak RSS of this process image (VmHWM). ru_maxrss would also count
    the launcher's resident set, which Linux carries across fork and exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def run_round(plan: dict, round_dir: Path, tracer) -> dict:
    records = []
    for i, op in enumerate(plan["ops"]):
        out = round_dir / f"op{i:02d}-{op['name']}"
        out.mkdir(parents=True, exist_ok=True)
        if tracer is not None:
            tracer.begin_op(i)
        rec = {"name": op["name"], "out": str(out), "code": None,
               "value": None, "error": ""}
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            rec["code"], rec["value"] = _call(op, out)
        except Exception:
            # one failed operation must not stop the round
            rec["error"] = traceback.format_exc()
        rec["wall_s"] = time.perf_counter() - t0
        rec["cpu_s"] = time.process_time() - c0
        if tracer is not None:
            tracer.end_op()
        if "capture" in op and not rec["error"]:
            try:
                _capture_tables(op["capture"], out)
            except Exception:
                rec["error"] = traceback.format_exc()
        records.append(rec)
    result = {"ready": READY, "ops": records, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        result["trace"] = tracer.export()
    return result


def main(argv) -> int:
    plan_path, round_dir, mode = argv
    round_dir = Path(round_dir)
    round_dir.mkdir(parents=True, exist_ok=True)
    if mode == "probe":
        result = {"ready": READY}
    else:
        plan = json.loads(Path(plan_path).read_text())
        tracer = None
        if mode == "trace":
            import layer_trace
            tracer = layer_trace.Tracer()
            tracer.install()
        result = run_round(plan, round_dir, tracer)
    (round_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
