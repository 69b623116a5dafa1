"""moe-pathfinder benchmark runner.

    python3 bench/run.py --workload desk-compare --seed 1 --seconds 30 --trace 0

Runs one workload (see BENCHMARK.json and bench/README.md) in this process
with jobs=1, checks its outputs, prints every metric by name and unit, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
`--trace 0` reports the end-to-end metrics; `--trace 1` runs one untraced
pass, then the same pass with the program's public functions traced, checks
that both give the same outputs, and reports the per-layer metrics.

Each run also writes `.bench_out/BENCH_<workload>_seed<n>_trace<t>.json`
(machine, metrics, per-pass and per-unit times, failures) and, when traced,
`.bench_out/TRACE_<workload>_seed<n>.json.gz` (every span).  The program is
imported from `src/` of the checkout this file sits in; without it the run
exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings

BLAS_THREADS = "1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("desk-compare", "wide-search", "cli-pipeline")
DEFAULT_SEED = 1  # claims are validated again on seed 2
SETUP_PROBES = 5
JOBS = 1


def set_blas_threads() -> None:
    """One BLAS thread, set before numpy is imported and inherited by the
    set-up probes: the model's matrices are at most 32 x 32, below any BLAS
    threading threshold, and the run is single-threaded."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import the program from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "moe_pathfinder", "__init__.py")):
        sys.stderr.write(f"bench: no program source at {SRC}/moe_pathfinder\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import moe_pathfinder

    if not os.path.abspath(moe_pathfinder.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"bench: imported moe_pathfinder from {moe_pathfinder.__file__}\n")
        sys.exit(2)
    import workloads

    return workloads


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def machine_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError, AttributeError):
        blas = {"name": "unknown", "version": None}
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "jobs": JOBS,
        "git_commit": git_commit(),
    }


def measure_setup(args) -> list[float]:
    """Set-up time of fresh processes: interpreter start, imports and the
    workload's inputs, up to where the first timed operation would begin."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120, cwd=ROOT,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return times


def run_pass(wl, ledger, firsts, label, unit_times, tracer=None):
    """Runs every unit once; returns (wall seconds, outputs).  Only the
    units are timed, not the checks between them."""
    wall = 0.0
    outputs = []
    for i in range(wl.units_per_pass):
        if tracer is not None:
            tracer.unit = i
            span = tracer.open("bench.unit")
        error = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                raw = wl.run_unit(i, tracer)
            except Exception:  # a failed unit is counted, the run goes on
                raw, error = None, traceback.format_exc(limit=4)
            dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(span)
        wall += dt
        unit_times.append(dt)
        runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        ledger.check(f"{label} unit {i} runs", raw is not None, error or "")
        ledger.check(f"{label} unit {i} raises no RuntimeWarning", not runtime, "; ".join(runtime))
        out = wl.collect(raw) if raw is not None else None
        outputs.append(out)
        if out is None:
            continue
        wl.unit_checks(ledger, i, out)
        key = wl.input_key(i)
        if key in firsts:
            ledger.check(f"{label} unit {i} repeats the first output", wl.same(out, firsts[key]),
                         "outputs differ for the same inputs")
        else:
            firsts[key] = out
    return wall, outputs


def measure(args, wl, ledger) -> dict:
    """Untraced passes while the next one fits in --seconds (exactly one
    when tracing, followed by the traced pass), then the run checks."""
    firsts: dict = {}
    m = {"unit_s": [], "pass_wall_s": []}
    t_run = time.perf_counter()
    while True:
        wall, outputs = run_pass(wl, ledger, firsts, f"pass {len(m['pass_wall_s'])}", m["unit_s"])
        m["pass_wall_s"].append(wall)
        elapsed = time.perf_counter() - t_run
        if args.trace or elapsed + statistics.median(m["pass_wall_s"]) > args.seconds:
            break
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        import tracing

        m["tracer"] = tracing.Tracer()
        m["tracer"].install()
        try:
            m["traced_wall_s"], _ = run_pass(wl, ledger, firsts, "traced", [], m["tracer"])
        finally:
            m["tracer"].uninstall()
    if outputs and outputs[0] is not None:
        try:
            wl.run_checks(ledger, outputs)
        except Exception:  # a broken check is a failed check
            ledger.check("run checks", False, traceback.format_exc(limit=4))
    else:
        ledger.check("run checks", False, "first unit produced no output")
    ok_outputs = [o for o in outputs if o is not None]
    m["error_ratio"] = wl.error_ratio(ok_outputs) if ok_outputs else float("nan")
    ledger.check("error_ratio finite", math.isfinite(m["error_ratio"]), repr(m["error_ratio"]))
    return m


def trace_table(tracer, traced_wall: float) -> list[str]:
    incl, self_t, calls = tracer.totals()
    lines = [f"  {'span':28s} {'incl_s':>10s} {'self_s':>10s} {'calls':>8s} {'incl/wall':>9s}"]
    for nm in sorted(incl, key=incl.get, reverse=True):
        lines.append(f"  {nm:28s} {incl[nm]:10.4f} {self_t[nm]:10.4f} {calls[nm]:8d} "
                     f"{incl[nm] / traced_wall:9.1%}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    set_blas_threads()
    wlmod = import_program()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    if args.setup_probe:
        wlmod.make(args.workload, args.seed, args.seconds, workdir).close()
        return 0

    ledger = wlmod.Ledger()
    setup_times: list[float] = []
    if not args.trace:
        try:
            setup_times = measure_setup(args)
            ledger.check("set-up probes", True)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            ledger.check("set-up probes", False, str(e))
    wl = wlmod.make(args.workload, args.seed, args.seconds, workdir)
    try:
        m = measure(args, wl, ledger)
    finally:
        wl.close()

    wall_s = statistics.median(m["pass_wall_s"])
    unit_s = m["unit_s"]
    lines = [f"{args.workload} seed={args.seed} trace={args.trace}"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_info()}
    if args.trace:
        tracer, traced_wall = m["tracer"], m["traced_wall_s"]
        metrics, notes = tracer.layer_metrics(), {}
        record.update(untraced_wall_s=wall_s, traced_wall_s=traced_wall,
                      trace_overhead_s=traced_wall - wall_s, self_s=tracer.totals()[1])
        lines.append(f"  traced wall {traced_wall:.4f} s, untraced {wall_s:.4f} s, "
                     f"overhead {traced_wall - wall_s:+.4f} s")
        lines += trace_table(tracer, traced_wall)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times) if setup_times else float("nan"), "s"),
            "wall_s": (wall_s, "s"),
            "op_p50_s": (statistics.median(unit_s), "s"),
            "peak_rss_mb": (m["peak_rss_mb"], "MB"),
            "error_ratio": (m["error_ratio"], "ratio"),
        }
        notes = {
            "setup_s": f"median of {len(setup_times)} fresh-process set-ups",
            "wall_s": f"median of {len(m['pass_wall_s'])} passes of "
                      f"{wl.units_per_pass} x {wl.unit_name}",
            "op_p50_s": f"median of {len(unit_s)} x {wl.unit_name}",
            "error_ratio": "pathfinder error / median random-mask error",
        }
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"  {name:34s} {value:.6g} {unit}{note}")
    lines.append(f"  {'fail_frac':34s} {ledger.failed / ledger.attempted:.6g}  ({ledger.failed} "
                 f"of {ledger.attempted} operations: units, CLI stage calls and output checks)")
    lines += [f"  FAILED {failure}" for failure in ledger.failures[:20]]
    lines.append(f"  machine {json.dumps(record['machine'], sort_keys=True)}")

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(result, failures=ledger.failures, units_per_pass=wl.units_per_pass,
                  pass_wall_s=m["pass_wall_s"], unit_s=unit_s, setup_probe_s=setup_times,
                  error_ratio=m["error_ratio"])
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}"
    with open(os.path.join(OUT, f"BENCH_{stem}_trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    if args.trace:
        m["tracer"].write(os.path.join(OUT, f"TRACE_{stem}.json.gz"),
                          {"workload": args.workload, "seed": args.seed,
                           "machine": record["machine"]})
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
