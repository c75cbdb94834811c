"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload crosscheck --seed 1 --seconds 40 --trace 0

The workload's battery of tasks is built from --seed and run as a closed
loop: one client runs the tasks one after another, checks each result,
and repeats the whole battery (a pass) while the next pass is expected
to end within --seconds; the time metrics are medians over passes.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced passes with passes under the span tracer
(perfbench/tracing.py) and prints the per-layer metrics of the traced
passes, the share of the traced wall time that top-level library spans
cover, and the tracing overhead against the untraced passes.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The full record (run environment, every
metric, task latencies, failures and, when traced, the spans of the
first traced pass) is written to .perfbench/results/ in the checkout.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread per process: finite_n's stdout check runs two pool
# workers on a two-core machine, and workers times BLAS threads must not
# exceed nproc.
# This has to happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("task_p50_s", "s"), ("task_tail_s", "s"),
              ("peak_rss_mb", "MB"))
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SETUP_REPEATS = 9
WORKLOAD_NAMES = ("crosscheck", "solve", "finite_n")
ALPHA = 1e-3             # chance level below which statistical misses fail


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("frac", "coverage")):
        return "frac"
    if name.endswith("ratio_max"):
        return "ratio"
    if name.endswith("per_call"):
        return "count/call"
    if name.endswith("per_solve"):
        return "count/solve"
    return "count"


def tail_percentile(tasks_per_pass):
    """Highest percentile with at least ten tasks of one pass beyond it.

    It depends only on the battery, so every run of a workload reports
    the same percentile however many passes fit in the run.
    """
    for p in TAIL_LADDER:
        if tasks_per_pass * (1.0 - p / 100.0) >= 10.0:
            return p
    return 50.0


def nearest_rank(values, p):
    ordered = sorted(values)
    k = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[k - 1]


def git_sha():
    """HEAD of the checkout, or None outside a git tree (git is not asked
    to look above the checkout)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, env={**os.environ,
                            "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:  # no git on this machine
        return None
    return out.stdout.strip() or None


def environment(args, threads):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy builds differ in what they expose
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "hjparisi").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "workers": threads,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Passes:
    """Wall and CPU time of each pass and the latency of each task."""

    def __init__(self):
        self.walls, self.cpus, self.latencies = [], [], []


def run_pass(battery, pass_index, timing, failures, tracer=None):
    from workloads import Miss

    w0, c0 = time.perf_counter(), time.process_time()
    for task in battery.tasks:
        if tracer is not None:
            tracer.task = f"{pass_index}:{task.name}"
        t0 = time.perf_counter()
        failure = None
        try:
            msg = task.run()
            if msg is not None:
                failure = {"error": str(msg),
                           "statistical": isinstance(msg, Miss)}
        except Exception as exc:  # a task that raises is a failed task
            failure = {"error": f"{type(exc).__name__}: {exc}",
                       "traceback": traceback.format_exc(limit=6)}
        timing.latencies.append(time.perf_counter() - t0)
        if failure is not None:
            failures.append({"pass": pass_index, "task": task.name,
                             **failure})
    timing.walls.append(time.perf_counter() - w0)
    timing.cpus.append(time.process_time() - c0)


def run_passes(battery, until, failures):
    """Repeat the battery, at least once, while the next pass is expected
    to end by the deadline (so a run measures at most about --seconds)."""
    timing = Passes()
    while not timing.walls or (time.perf_counter() + timing.walls[-1]
                               <= until):
        run_pass(battery, len(timing.walls), timing, failures)
    return timing


def chance_of_at_least(probs, k):
    """P(at least k of independent events with these probabilities)."""
    dist = [1.0]
    for p in probs:
        dist = [a * (1.0 - p) + b * p
                for a, b in zip(dist + [0.0], [0.0] + dist)]
    return sum(dist[k:])


def judge(battery, failures):
    """Split the failures into failed tasks and chance misses.

    A statistical check (a 3-sigma or chi-square bound at the acceptance
    gates' tolerance) also misses now and then on a correct program.  Its
    misses (failures marked statistical, see workloads.Miss) are chance
    misses while their number in one pass is what chance explains at
    level ALPHA; beyond that, every miss of the pass is a failed task.
    Every other failure (a deterministic check, a task that raises, the
    checks after the timed region) is a failed task.  The run is correct
    when no task failed.
    """
    probs = [t.false_alarm for t in battery.tasks if t.false_alarm > 0.0]
    per_pass = {}
    for f in failures:
        if f.get("statistical"):
            per_pass[f["pass"]] = per_pass.get(f["pass"], 0) + 1
    failed, misses = [], []
    for f in failures:
        chance = (f.get("statistical")
                  and chance_of_at_least(probs, per_pass[f["pass"]]) >= ALPHA)
        (misses if chance else failed).append(f)
    return failed, misses


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # build the battery and run the warm-up task, then exit (used to time
    # set-up in fresh processes)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "hjparisi" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports hjparisi and numpy

    workdir = OUT_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        battery, warm_failure = set_up(args, workloads, workdir)
        if args.setup_only:
            return 0
        return measure(args, battery, warm_failure)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def set_up(args, workloads, workdir):
    """Build the battery from the seed and run the untimed warm-up task."""
    battery = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    try:
        msg = battery.warmup.run()
    except Exception as exc:  # reported, but not counted as a task
        msg = f"{type(exc).__name__}: {exc}"
    return battery, msg


def setup_times(args):
    """Wall time of fresh processes that start the interpreter, import,
    build the battery and run the warm-up task, SETUP_REPEATS times."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            args.workload, "--seed", str(args.seed), "--seconds", "0",
            "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def run_traced(battery, args, t_begin, failures):
    """Alternate untraced and traced passes while they fit in the run.

    Alternation exposes both kinds to the same machine conditions; the
    first pass (untraced) also absorbs what the warm-up task left cold and
    is left out of the overhead estimate when a later untraced pass exists.
    Returns the untraced and traced pass timings, the per-layer metrics
    (median per traced pass) and the spans of the first traced pass.
    """
    from tracing import EXACT_COUNTS, Tracer, pass_metrics, span_table

    until = t_begin + args.seconds
    untraced, traced_timing = Passes(), Passes()
    tracer = Tracer()
    per_pass, spans_kept = [], []
    index = 0
    while index < 2 or time.perf_counter() + max(
            untraced.walls[-1], traced_timing.walls[-1]) <= until:
        if index % 2 == 0:
            run_pass(battery, index, untraced, failures)
        else:
            tracer.install()
            try:
                run_pass(battery, index, traced_timing, failures, tracer)
            finally:
                tracer.uninstall()
            spans, counts = tracer.begin_pass()
            per_pass.append(pass_metrics(spans, counts,
                                         traced_timing.walls[-1]))
            if not spans_kept:
                spans_kept.append(span_table(spans))
        index += 1
    # median_low keeps a value one pass measured (and counts integral)
    traced = {k: statistics.median_low(m[k] for m in per_pass)
              for k in per_pass[0]}
    baseline = untraced.walls[1:] or untraced.walls
    traced["trace.overhead_frac"] = (statistics.median(traced_timing.walls)
                                     / statistics.median(baseline) - 1.0)
    for key in EXACT_COUNTS:
        seen = {m[key] for m in per_pass}
        if len(seen) > 1:
            failures.append({"pass": None, "task": "trace",
                             "error": f"{key} differs between traced "
                                      f"passes: {sorted(seen)}"})
    return untraced, traced_timing, traced, spans_kept[0]


def measure(args, battery, warm_failure):
    warm_failures = [warm_failure] if warm_failure is not None else []
    setups = setup_times(args)
    setup_s = statistics.median(setups)

    failures = []
    t_begin = time.perf_counter()
    if args.trace:
        timing, traced_timing, traced, spans = run_traced(
            battery, args, t_begin, failures)
        n_passes = len(timing.walls) + len(traced_timing.walls)
    else:
        timing = run_passes(battery, t_begin + args.seconds, failures)
        n_passes = len(timing.walls)
    attempted = n_passes * len(battery.tasks)
    if battery.after is not None:
        attempted += 1
        for msg in battery.after():
            failures.append({"pass": None, "task": "after", "error": msg})
    failed, misses = judge(battery, failures)
    correct = not failed

    p_tail = tail_percentile(len(battery.tasks))
    latencies = timing.latencies
    tail = nearest_rank(latencies, p_tail)
    untraced = {
        "setup_s": setup_s,
        "wall_s": statistics.median(timing.walls),
        "cpu_s": statistics.median(timing.cpus),
        "task_p50_s": statistics.median(latencies),
        "task_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    units = dict(END_TO_END)
    if args.trace:
        from tracing import PER_LAYER
        metrics = {k: {"value": traced[k], "unit": _unit(k)}
                   for k in PER_LAYER}
    else:
        metrics = {k: {"value": untraced[k], "unit": units[k]}
                   for k, _ in END_TO_END}

    env = environment(args, battery.threads)
    beyond = sum(1 for x in latencies if x > tail)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={n_passes} tasks/pass={len(battery.tasks)} "
          f"workers={battery.threads}")
    label = "untraced passes" if args.trace else "end to end"
    print(f"  {label}:")
    for k, _ in END_TO_END:
        extra = ""
        if k == "task_tail_s":
            extra = (f"  (p{p_tail:g} of {len(latencies)} tasks, "
                     f"{beyond} beyond it)")
        print(f"    {k:<14} {untraced[k]:.6g} {units[k]}{extra}")
    print(f"    {'fail_frac':<14} {len(failed) / attempted:.6g} "
          f"({len(failed)}/{attempted})")
    print(f"    {'miss_frac':<14} {len(misses) / attempted:.6g} "
          f"({len(misses)}/{attempted} statistical misses within chance)")
    if args.trace:
        print("  per layer (traced passes, median per pass):")
        for k in PER_LAYER:
            print(f"    {k:<40} {traced[k]:.6g} {_unit(k)}")
    for f in failed[:20]:
        kind = "statistical " if f.get("statistical") else ""
        print(f"  FAILED {kind}{f['task']} (pass {f['pass']}): {f['error']}")
    for f in misses[:20]:
        print(f"  missed by chance {f['task']} (pass {f['pass']}): "
              f"{f['error']}")
    for msg in warm_failures:
        print(f"  warm-up failed: {msg}")
    print("env " + json.dumps(env, sort_keys=True))

    record = {
        "env": env,
        "correct": correct,
        "end_to_end": untraced,
        "fail_frac": len(failed) / attempted,
        "miss_frac": len(misses) / attempted,
        "task_tail_percentile": p_tail,
        "pass_walls_s": timing.walls,
        "pass_cpus_s": timing.cpus,
        "task_latencies_s": latencies,
        "task_names": [t.name for t in battery.tasks],
        "failures": failed,
        "chance_misses": misses,
        "warmup_failures": warm_failures,
        "setup_repeats_s": setups,
    }
    if args.trace:
        record["per_layer"] = traced
        record["traced_pass_walls_s"] = traced_timing.walls
        record["spans_first_traced_pass"] = spans
        record["span_columns"] = ["name", "start", "end", "parent", "task",
                                  "pool_item"]
    out = OUT_DIR / "results" / (f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record))

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
