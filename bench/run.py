"""Benchmark runner for the oncells CLI.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

One client, closed loop: the jobs of a workload run one at a time, as
`python -m oncells.cli` subprocesses, so interpreter start, import and scheme
load count as they do for a user.  A run makes a fixed number of passes over
the workload's job list, each drawn and shuffled from the seed, sized so the
run measures about --seconds at the commit that defined the benchmark (see
workloads.plan).  It checks every job's exit code and output outside the
timed region, prints each metric by name and unit, writes a results file
under bench/results/, and ends with one JSON line.

With --trace 1 the first half of those passes runs in-process instead, once
plain and once with spans around every call into the oncells modules (see
spans.py); the per-layer numbers are medians over the traced passes, and the
difference in wall time between the two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import spans as tracing
import stats
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

# A job that runs longer than this is killed and counted as failed; the
# largest job of any workload takes about 1.5 s on a 2-core x86 host.
JOB_BUDGET_S = 10.0
# A run skips its remaining passes when one more would end past this many
# times --seconds, so a slow host cannot stretch it without bound; the
# skipped passes are recorded in the results file.
OVERRUN = 1.25
SETUP_REPEATS = 5
STARTUP_REPEATS = 5


@dataclass
class Outcome:
    code: int
    out: str
    err: str
    wall_s: float
    rss_mib: float = 0.0
    over_budget: bool = False


def _cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_subprocess(argv) -> Outcome:
    """Run one CLI job, killing it at the budget; records wall time and peak RSS."""
    work = workloads.WORK
    with open(work / "job.out", "w+b") as out, open(work / "job.err", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "oncells.cli", *argv],
            stdout=out,
            stderr=err,
            env=_cli_env(),
            cwd=ROOT,
        )
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(JOB_BUDGET_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(
            proc.returncode,
            out.read().decode(),
            err.read().decode(),
            wall,
            usage.ru_maxrss / 1024,
            killed.is_set(),
        )


def run_in_process(argv) -> Outcome:
    """Run one CLI job through `oncells.cli.main` in this process, capturing its output."""
    main = importlib.import_module("oncells.cli").main
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return Outcome(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def timed_setup() -> float:
    """Median wall time of the set-up: stress schemes and tampered file, then one warm-up call."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workloads.setup()
        warm = run_subprocess(["--help"])
        times.append(time.perf_counter() - start)
        if warm.code != 0:
            raise RuntimeError(f"warm-up call failed: {warm.err.strip()}")
    return statistics.median(times)


def _overrun(passes: list[float], seconds: float) -> bool:
    """Whether one more pass of the usual length would end past OVERRUN * seconds."""
    return bool(passes) and sum(passes) + statistics.median(passes) > OVERRUN * seconds


def measure(plan: list[list], seconds: float) -> dict:
    """Untraced closed-loop passes of subprocess jobs; end-to-end metrics."""
    passes, records = [], []
    for jobs in plan:
        if _overrun(passes, seconds):
            break
        start = time.perf_counter()
        ran = [(job, run_subprocess(job.argv)) for job in jobs]
        passes.append(time.perf_counter() - start)
        records += ran
    walls = [o.wall_s for _, o in records]
    # the percentile follows the planned job count, so skipped passes do not move it
    q = stats.tail_percentile(sum(map(len, plan)))
    tail = stats.percentile(walls, q)
    return {
        "metrics": {
            "wall_s": statistics.median(passes),
            "job_p50_s": statistics.median(walls),
            "job_tail_s": tail,
            "peak_rss_mb": max(o.rss_mib for _, o in records),
        },
        "extra": {
            "tail_percentile": q,
            "passes": passes,
            "passes_skipped": len(plan) - len(passes),
        },
        "records": records,
    }


def measure_traced(plan: list[list], seconds: float, checker) -> dict:
    """In-process passes, plain then traced; per-layer metrics, medians over passes.

    In-process jobs cannot be killed, so the job budget applies to the
    untraced runs only.
    """
    from oncells import eval_at_memo

    per_pass, records, spans, passes = [], [], [], []
    for jobs in plan:
        if _overrun(passes, seconds):
            break
        start = time.perf_counter()
        records += [(job, run_in_process(job.argv)) for job in jobs]
        plain = time.perf_counter() - start
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            start = time.perf_counter()
            for job in jobs:
                tracer.job = len(records)
                records.append((job, run_in_process(job.argv)))
            traced = time.perf_counter() - start
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_s"] = traced - plain
        memo = 0.0
        for job in jobs:
            if job.kind == "value" and job.expect_exit == 0:
                scheme = checker.scheme(job.member)
                start = time.perf_counter()
                eval_at_memo(scheme, job.n)
                memo += time.perf_counter() - start
        metrics["sequence.memo_s"] = memo
        per_pass.append(metrics)
        spans += [dataclasses.asdict(s) for s in tracer.spans]
        passes.append(plain + traced)
    startup = [run_subprocess(["--help"]).wall_s for _ in range(STARTUP_REPEATS)]
    metrics = tracing.median_metrics(per_pass)
    metrics["cli.startup_s"] = statistics.median(startup)
    extra = {"passes": passes, "passes_skipped": len(plan) - len(passes)}
    return {"metrics": metrics, "extra": extra, "records": records, "spans": spans}


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return done.stdout.strip() or "unknown"


def _corpus_meta(checker) -> dict:
    out = {}
    for name, member in workloads.CORPUS.items():
        scheme = checker.scheme(name)
        out[name] = {
            "p": member.p,
            "vars": list(member.vars),
            "poly": member.expr,
            "states": scheme.state_count,
            "entries_per_digit": [tracing.entries(scheme, d) for d in range(member.p)],
        }
    return out


def check_all(records, checker) -> tuple[list[dict], int]:
    """Every failed job with the reason, and how many of them gave a wrong exit or output."""
    failures, wrong = [], 0
    for job, outcome in records:
        if outcome.over_budget:
            failures.append({"job": job.label, "why": f"over the {JOB_BUDGET_S} s budget"})
            continue
        problem = checker.check(job, outcome.code, outcome.out, outcome.err)
        if problem:
            wrong += 1
            failures.append({"job": job.label, "why": problem})
    return failures, wrong


def print_report(workload: str, metrics: dict, extra: dict, failures: list, attempted: int) -> None:
    for name, metric in metrics.items():
        detail = ""
        if name == "job_tail_s":
            detail = f"  (p{extra['tail_percentile']} of {attempted} jobs)"
        print(f"{workload:14s} {name:26s} {metric['value']:14.6g} {metric['unit']}{detail}")
    frac = extra["failed_frac"]
    print(f"{workload:14s} {'failed_frac':26s} {frac:14.6g} 1  ({len(failures)} of {attempted} jobs)")
    for failure in failures:
        print(f"{workload:14s} FAILED {failure['job']}: {failure['why']}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """Set up, measure, check and report one workload; returns the final JSON object."""
    # a traced run makes each pass twice, so it takes the first half of the plan
    plan = workloads.plan(workload, seed, seconds / 2 if trace else seconds)
    setup_s = timed_setup()
    checker = workloads.Checker()
    measured = measure_traced(plan, seconds, checker) if trace else measure(plan, seconds)
    records = measured["records"]
    failures, wrong = check_all(records, checker)

    values = dict(measured["metrics"], setup_s=setup_s)
    names = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    extra = dict(measured["extra"], failed_frac=len(failures) / len(records))
    print_report(workload, metrics, extra, failures, len(records))

    result = {
        "meta": {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "commit": _commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "job_budget_s": JOB_BUDGET_S,
            "jobs": {
                "attempted": len(records),
                "failed": len(failures),
                "by_kind": Counter(job.kind for job, _ in records),
            },
            "corpus": _corpus_meta(checker),
        },
        "metrics": metrics,
        "extra": extra,
        "failures": failures,
        "jobs": [
            {"job": job.label, "exit": o.code, "wall_s": o.wall_s, "rss_mib": o.rss_mib}
            for job, o in records
        ],
    }
    if trace:
        result["spans"] = measured["spans"]
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result))
    return {
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }


def use_source_tree() -> None:
    """Import oncells from the checkout's src/; exit with an error when it is missing."""
    if not (ROOT / "src" / "oncells" / "__init__.py").is_file() or not (ROOT / "schemes").is_dir():
        sys.exit(f"error: no oncells source tree under {ROOT}; run from a full checkout")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_source_tree()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        print(json.dumps(run_workload(name, args.seed, args.seconds, bool(args.trace), spec)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
