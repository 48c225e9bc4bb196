#!/usr/bin/env python3
"""Benchmark of the cartan-invariants CLI.

    python3 perfbench/run.py --workload chern-forms --seed 1 --seconds 30 --trace 0

With ``--trace 0`` each query is a fresh CLI process (``src`` on the path),
one at a time: a closed loop with one client.  The run repeats the
workload's queries, in the order the seed fixes, for at least ``--seconds``
and at least three passes, and reports the end-to-end metrics.  With
``--trace 1`` the queries run in-process through ``cartan_invariants.cli.run``,
alternating untraced and traced passes, and the run reports the per-layer
metrics.  Every output is checked against ``golden.json``.  The last line of
stdout is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
CLI = [sys.executable, "-c", "from cartan_invariants.cli import main; main()"]
SETUP = [sys.executable, "-c", """
import json, sys
import cartan_invariants as ci
for family, params in json.loads(sys.argv[1]):
    if family == "file":
        ci.parse_model_file(params["path"])
    else:
        ci.build_model(family, **params)
"""]
MIN_PASSES = 3
SETUP_PER_PASS = 3
REFERENCE_ITERATIONS = 25_000
# Seconds per reference task at the reference speed: a fixed conversion,
# about the task's time on a 2-vCPU Xeon VM under Python 3.11.
REFERENCE_S = 0.2
QUERY_TIMEOUT_S = 60.0
# A run ends within this many seconds: a query or set-up sample starts only
# while it could still run for its full QUERY_TIMEOUT_S before then, so a
# hang is cut by the fixed timeout, never by the run's own limit.
RUN_LIMIT_S = 170.0
THREADS_ENV = "CARTAN_INVARIANTS_THREADS"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop(THREADS_ENV, None)  # serial: the pool is measured slower
    return env


def run_child(argv: list[str], timeout: float):
    """Run one process; return (exit code or None on timeout, stdout, stderr,
    wall seconds, max RSS in KiB)."""
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    # Reaped here, so that wait4 gives this child's own rusage.
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if timed_out.is_set() else proc.returncode
    return (code, out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"), wall, usage.ru_maxrss)


def time_left(started: float) -> bool:
    """Whether a query started now could run its full timeout within the
    run's limit."""
    return perf_counter() - started + QUERY_TIMEOUT_S <= RUN_LIMIT_S


def describe(samples: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    xs = sorted(samples)
    text = f"median {statistics.median(xs):.4f}"
    k = len(xs) - 11  # index of the highest order statistic with 10 above it
    if k >= 0:
        text += f", p{100 * (k + 1) // len(xs)} {xs[k]:.4f}"
    return text + f", n={len(xs)}"


def write_model_files(workload: str) -> list:
    """Write the model files the workload reads with `model build`; return
    its model specs with file paths resolved."""
    WORK.mkdir(exist_ok=True)
    resolved = []
    for family, params in workloads.WORKLOADS[workload][1]:
        if family == "file":
            name = params["path"]
            path = WORK / name
            argv = CLI + ["model", "build", *workloads.MODEL_FILES[name], "-o", str(path)]
            code, _, err, _, _ = run_child(argv, QUERY_TIMEOUT_S)
            if code != 0:
                raise RuntimeError(f"set-up failed to write {name}: {err.strip()}")
            params = {"path": str(path)}
        resolved.append((family, params))
    return resolved


def time_setup(resolved: list) -> float:
    """Wall time of one fresh interpreter that imports the package and builds
    or parses the given models."""
    code, _, err, wall, _ = run_child(SETUP + [json.dumps(resolved)], QUERY_TIMEOUT_S)
    if code != 0:
        raise RuntimeError(f"set-up interpreter failed: {err.strip()}")
    return wall


def reference_task() -> float:
    """Seconds for a fixed stdlib loop shaped like the engine's inner loops
    (Fraction arithmetic into a dict), timed in this process."""
    t0 = perf_counter()
    acc: dict[int, Fraction] = {}
    for i in range(1, REFERENCE_ITERATIONS):
        k = i % 251
        acc[k] = acc.get(k, 0) + Fraction(i % 97 - 48, i % 89 + 1) * Fraction(i % 13 + 1, 7)
    return perf_counter() - t0


def read_steal() -> int | None:
    """Steal jiffies summed over CPUs, from /proc/stat (read only)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "loadavg": list(os.getloadavg()),
        "steal_jiffies": read_steal(),
        "threads_env_set": THREADS_ENV in os.environ,
        "seed": seed,
        "src.lines": src_lines(),
    }


def measure(workload: str, seed: int, seconds: float, started: float):
    """End-to-end run: fresh processes, untraced.

    On a VM with a shared host the CPU's speed can drift by half over
    minutes.  So every set-up sample and every query is bracketed by the
    reference task, and its wall time is scaled by REFERENCE_S over the mean
    of the two reference times: seconds at the reference speed.
    """
    resolved = write_model_files(workload)
    golden = workloads.load_golden()
    queries = workloads.plan(workload, seed, str(WORK))
    jobs = [None] * SETUP_PER_PASS + queries  # None is a set-up sample
    raw: dict[str, list[float]] = {"setup": [], **{q.name: [] for q in queries}}
    norm: dict[str, list[float]] = {name: [] for name in raw}
    refs = [reference_task()]
    peak_kib = attempted = failed = passes = 0
    out_of_time = False
    t0 = perf_counter()
    while not out_of_time and (passes < MIN_PASSES or perf_counter() - t0 < seconds):
        for job in jobs:
            if not time_left(started):
                out_of_time = True
                break
            if job is None:
                name, wall = "setup", time_setup(resolved)
            else:
                name = job.name
                code, out, err, wall, rss = run_child(CLI + job.argv, QUERY_TIMEOUT_S)
                attempted += 1
                why = workloads.failure(golden, job, code, out, err)
                if why:
                    failed += 1
                    print(f"FAIL {name} lam={job.lam}: {why}", file=sys.stderr)
                peak_kib = max(peak_kib, rss)
            refs.append(reference_task())
            raw[name].append(wall)
            norm[name].append(wall * REFERENCE_S / ((refs[-2] + refs[-1]) / 2))
        if not out_of_time:
            passes += 1
    if not all(raw.values()):
        raise RuntimeError(f"out of time before every query and set-up ran once "
                           f"(run limit {RUN_LIMIT_S:.0f} s)")
    raw_wall_s = sum(statistics.median(raw[q.name]) for q in queries)
    raw_setup_s = statistics.median(raw["setup"])
    for q in queries:
        print(f"query {q.name} lam={q.lam}: raw s {describe(raw[q.name])}; "
              f"normalized s {describe(norm[q.name])}")
    print(f"set-up interpreter: raw s {describe(raw['setup'])}; "
          f"normalized s {describe(norm['setup'])}")
    print(f"reference task s: {describe(refs)}")
    print(f"raw wall_s {raw_wall_s:.4f} s, raw setup_s {raw_setup_s:.4f} s")
    print(f"fail_rate {failed / max(attempted, 1):.4f} ratio ({failed} of {attempted} executions)")
    metrics = {
        "wall_s": (sum(statistics.median(norm[q.name]) for q in queries), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
        "setup_s": (statistics.median(norm["setup"]), "s"),
        "pass_rate": ((attempted - failed) / max(attempted, 1), "ratio"),
    }
    # Not gated: kept so the normalized figures trace back to real seconds.
    record = {"passes": passes, "raw_wall_s": raw_wall_s, "raw_setup_s": raw_setup_s,
              "reference_s_median": statistics.median(refs)}
    return metrics, attempted, failed, record


class QueryTimeout(BaseException):
    """Raised by SIGALRM in an in-process query; no handler in the program
    catches a BaseException that is not an Exception."""


def _alarm(signum, frame):
    raise QueryTimeout


def run_in_process(query, golden, timeout: float, tracer=None):
    """Run one query through ``cli.run``; return (wall s, failure or None)."""
    from cartan_invariants import cli

    run = tracer.wrap("cli", cli.run) if tracer else cli.run
    out, err = io.StringIO(), io.StringIO()
    signal.signal(signal.SIGALRM, _alarm)
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                code = run(query.argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except QueryTimeout:
            code = None
        except Exception:  # the check reports it as a traceback
            traceback.print_exc()
            code = -1
    wall = perf_counter() - t0
    return wall, workloads.failure(golden, query, code, out.getvalue(), err.getvalue())


def layer_metrics(tracer, pass_s: float) -> dict:
    self_s, counts = tracer.self_s, tracer.counts
    enumerated = counts["forms.invariant_basis.masks"]
    out = {f"{layer}.self_s": self_s[layer] for layer in
           ("charforms.atiyah", "charforms.chern", "charforms.polarize",
            "charforms.transgression", "forms.masks", "forms.invariant_basis",
            "forms.differential", "linalg", "relations.find_primitive",
            "relations.find_relations", "models", "modelio", "model.validate",
            "invariants.parse", "cli")}
    for key in ("charforms.form_terms", "forms.masks.count", "forms.differential.calls",
                "linalg.cells", "linalg.nonzeros", "relations.find_primitive.columns",
                "models.calls", "modelio.bytes_parsed", "model.validate.calls"):
        out[key] = counts[key]
    for fn in ("rref", "rank", "nullspace", "solve", "row_space_rref"):
        out[f"linalg.{fn}.calls"] = counts[f"linalg.{fn}.calls"]
    out["forms.invariant_basis.yield"] = (counts["forms.invariant_basis.dim"] / enumerated
                                          if enumerated else 0.0)
    out["traced_pass_s"] = pass_s
    return out


# Mathematical results, not costs: the golden check covers them, so they are
# printed for people and not reported as metrics.
INVARIANTS = ("forms.invariant_basis.dim", "relations.find_primitive.not_exact")


UNITS = {"self_s": "s", "overhead_s": "s", "yield": "ratio", "bytes_parsed": "bytes",
         "lines": "lines"}


def layer_groups(metrics: dict) -> dict[str, float]:
    """Self time per layer, with the charforms sub-layers summed."""
    groups: dict[str, float] = {}
    for key, value in metrics.items():
        if key.endswith(".self_s"):
            layer = key[: -len(".self_s")]
            group = "charforms" if layer.startswith("charforms.") else layer
            groups[group] = groups.get(group, 0.0) + value
    return groups


def trace(workload: str, seed: int, seconds: float, started: float):
    """Per-layer run: in-process, alternating untraced and traced passes."""
    sys.path.insert(0, str(SRC))
    os.environ.pop(THREADS_ENV, None)
    import layers

    write_model_files(workload)
    golden = workloads.load_golden()
    queries = workloads.plan(workload, seed, str(WORK))
    tracer = layers.Tracer()
    plain, traced = [], []
    attempted = failed = 0
    t0 = perf_counter()
    out_of_time = False
    while not out_of_time and (not traced or perf_counter() - t0 < seconds):
        for tr in (None, tracer):
            total = 0.0
            if tr:
                tr.reset()
                tr.install()
            try:
                for q in queries:
                    if not time_left(started):
                        out_of_time = True
                        break
                    wall, why = run_in_process(q, golden, QUERY_TIMEOUT_S, tr)
                    total += wall
                    attempted += 1
                    if why:
                        failed += 1
                        print(f"FAIL {q.name} lam={q.lam}: {why}", file=sys.stderr)
            finally:
                if tr:
                    tr.uninstall()
            if out_of_time:  # a cut pass is not a pass
                break
            if tr:
                traced.append(layer_metrics(tr, total))
                invariants = {k: tr.counts[k] for k in INVARIANTS}
            else:
                plain.append(total)
    if not traced:
        raise RuntimeError(f"out of time before a traced pass ended "
                           f"(run limit {RUN_LIMIT_S:.0f} s)")
    # Counts repeat exactly from pass to pass; times take the median.
    metrics = {k: statistics.median(p[k] for p in traced) if k.endswith("_s") else v
               for k, v in traced[0].items()}
    metrics["trace.overhead_s"] = metrics.pop("traced_pass_s") - statistics.median(plain)
    metrics["src.lines"] = src_lines()
    groups = layer_groups(metrics)
    intended = workloads.WORKLOADS[workload][2]
    share = sum(groups[g] for g in intended)
    rival, rival_s = max(((g, v) for g, v in groups.items() if g not in intended),
                         key=lambda gv: gv[1])
    print(f"{len(traced)} traced and {len(plain)} untraced passes; "
          f"untraced pass s: {describe(plain)}")
    print(f"intended layer {'+'.join(intended)} self {share:.4f} s; largest other layer "
          f"{rival} {rival_s:.4f} s; intended is largest: {'yes' if share > rival_s else 'NO'}")
    print("per pass, checked by the golden outputs: " + ", ".join(
        f"{k} {v}" for k, v in invariants.items()))
    units = {k: UNITS.get(k.rsplit(".", 1)[-1], "count") for k in metrics}
    record = {"traced_passes": len(traced), "untraced_passes": len(plain)}
    return {k: (v, units[k]) for k, v in metrics.items()}, attempted, failed, record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = perf_counter()
    if not (SRC / "cartan_invariants" / "cli.py").is_file():
        print(f"error: no cartan_invariants sources under {SRC}", file=sys.stderr)
        return 2
    # Queries and the reference task share one CPU, so they see the same
    # contention.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = environment(args.seed)
    run = trace if args.trace else measure
    try:
        metrics, attempted, failed, record = run(args.workload, args.seed, args.seconds,
                                                 started)
    except RuntimeError as e:  # set-up failed: no result to report
        print(f"error: {e}", file=sys.stderr)
        return 1
    env["loadavg_after"] = list(os.getloadavg())
    env["steal_jiffies_after"] = read_steal()
    env.update(record)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
