#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``supercech`` command line.

Run from the repository root:

    python3 perfbench/run.py --workload gt-secondary --seed 1 --seconds 30 --trace 0

One client runs a workload's fixed job list in a closed loop inside this
process: each job is a ``supercech.cli.main(argv)`` call with its output
captured, and the next job starts when the previous one returns.  No threads
are started.  ``--seconds`` sets how many passes over the job list a run makes
(``seconds // PASS_SECONDS[workload]``, at least one), so every run of a
workload times the same number of jobs.

``--trace 0`` reports the end-to-end metrics:

* ``jobs_per_s``: jobs of one pass divided by the summed time of those
  jobs; the median over the passes.
* ``job_p50_ms``, ``job_tail_ms``: median job time, and the highest
  percentile that still has at least ten jobs beyond it (the percentile and
  sample count are printed beside it).
* ``setup_s``: fresh import of the package plus input generation; the
  median of three set-ups.
* ``peak_rss_mb``: peak resident memory of this process.
* ``cold_start_ms``: a fresh interpreter running ``supercech verify`` on
  ``split_p1.model``; the median of eleven, spread over the run's jobs.

Times are CPU seconds of the process doing the work (user plus system; for
the cold start, of the child).  The jobs are single-threaded and never wait,
so on an idle machine CPU time is wall time, but on a shared virtual machine
wall time also counts the time the host gives to other guests: on a
two-vCPU guest we measured a quarter of all CPU time stolen, with wall-clock
job times that varied by 30 % between runs of the same job.  Wall-clock
figures are kept in the result file beside the metrics.

``--trace 1`` runs one untraced pass, then a traced pass (see tracing.py)
on the seed and one on the next seed, and reports the per-layer metrics of
the first traced pass; span times there are wall-clock.  It fails when a
seed-free counter differs between the two seeds, when a predicted boundary
records no calls, or when the layer self times add up to more than the
traced wall time.  The exact counters of two traced runs on one seed are
equal; compare the ``exact_counters`` of their result files.

Every job's exit code is checked, the sha256 of its output is compared with
``digests.json`` (on the recorded seed, and on every seed for jobs whose
inputs do not depend on it), and oracle checks run on its output (oracle.py).
A result file with the environment, every job's size and latency, and the
layer table is written to ``.perfbench/results/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``--record-digests`` runs one pass and stores the output digests of this seed
in ``digests.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = "src"
STATE = ".perfbench"
DIGESTS = os.path.join(HERE, "digests.json")
PASS_SECONDS = {"gt-secondary": 15, "obstruction-solve": 15, "gluing-transform": 5}
SETUPS = 3
COLD_STARTS = 11
COLD_ARGV = ["verify", "--input", os.path.join(SRC, "supercech", "corpus", "split_p1.model"),
             "--format", "structured"]
MODULES = ("supercech", "supercech.cli")


def _clean_import():
    """Import the package as a new process would; bytecode is never written,
    so every import compiles from source."""
    for name in [n for n in sys.modules if n == "supercech" or n.startswith("supercech.")]:
        del sys.modules[name]
    import importlib
    for name in MODULES:
        importlib.import_module(name)
    return sys.modules["supercech"]


def _run_cli(sc, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sc.cli.main(argv)
        except SystemExit as exc:          # argparse rejects an argument list
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def setup(workload, seed, work, sc=None):
    """Import (unless ``sc`` is given) plus input generation; returns
    (CPU seconds, wall seconds, package, jobs)."""
    import workloads
    if os.path.isdir(work):
        shutil.rmtree(work)
    os.makedirs(work)
    t0, c0 = time.perf_counter(), time.process_time()
    sc = sc or _clean_import()
    jobs = workloads.WORKLOADS[workload](sc, seed, work, lambda argv: _run_cli(sc, argv))
    return time.process_time() - c0, time.perf_counter() - t0, sc, jobs


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Checker:
    """Exit code, recorded digest and oracle checks for each job."""

    def __init__(self, workload, seed):
        with open(DIGESTS, encoding="utf-8") as fh:
            data = json.load(fh)
        self.recorded_seed = data["recorded_seed"]
        self.digests = data["workloads"].get(workload, {})
        self.seed = seed
        self.checks = 0
        self.failures: list[str] = []

    def job(self, job, code, out) -> bool:
        problems = []
        self.checks += 1
        if code != job.code:
            problems.append(f"exit {code}, want {job.code}")
        if self.seed == self.recorded_seed or not job.seeded:
            self.checks += 1
            want = self.digests.get(job.id)
            if want != _digest(out):
                problems.append("output digest differs" if want else "no recorded digest")
        if code == job.code:
            for check in job.checks:
                self.checks += 1
                msg = check(out)
                if msg:
                    problems.append(msg)
        if problems and len(self.failures) < 50:
            self.failures.append(f"{job.id}: {'; '.join(problems)}")
        return not problems


def run_pass(sc, jobs, checker, tracer=None, record=None, after_job=None):
    """One pass over the job list; returns one dict per job."""
    import oracle
    results = []
    for job in jobs:
        gc.collect()
        if tracer is not None:
            tracer.start_job()
        t0, c0 = time.perf_counter(), time.process_time()
        code, out = _run_cli(sc, job.argv)
        dt, cpu = time.perf_counter() - t0, time.process_time() - c0
        if job.writes:
            with open(job.writes, "w", encoding="utf-8") as fh:
                fh.write(oracle.model_text(out))
        if record is not None:
            record[job.id] = _digest(out)
        ok = checker.job(job, code, out)
        sizes = {}
        if tracer is not None:
            # columns of the widest system: its unknowns, plus one when it
            # was eliminated together with a right-hand side
            sizes = {"eliminations": tracer.job_eliminations,
                     "max_cols": tracer.job_max_cols}
        results.append({"id": job.id, "latency_s": dt, "cpu_s": cpu, "ok": ok, "code": code,
                        **sizes})
        if after_job is not None:
            after_job()
    return results


class ColdStarts:
    """Fresh interpreters running one job, spread evenly over the run's
    jobs so that they sample the whole run, not one moment of it."""

    def __init__(self, checker, total_jobs):
        self.checker = checker
        self.due = Counter(int((i + 0.5) * total_jobs / COLD_STARTS)
                           for i in range(COLD_STARTS))
        self.jobs_done = 0
        self.cpu, self.wall, self.failed = [], [], 0
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        self.env = env

    def after_job(self):
        for _ in range(self.due[self.jobs_done]):
            self.run_one()
        self.jobs_done += 1

    def run_one(self):
        cmd = [sys.executable, "-c",
               "import sys; from supercech.cli import main; sys.exit(main())", *COLD_ARGV]
        t0 = time.perf_counter()
        c0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=120)
        c1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.wall.append(time.perf_counter() - t0)
        self.cpu.append(c1.ru_utime + c1.ru_stime - c0.ru_utime - c0.ru_stime)
        self.checker.checks += 1
        if proc.returncode != 0 or "gluing.ok=True" not in proc.stdout:
            self.failed += 1
            if len(self.checker.failures) < 50:
                self.checker.failures.append(f"cold start: exit {proc.returncode}")


def tail(latencies):
    """(value, percentile): the highest percentile with >= 10 jobs beyond it;
    the maximum when there are ten jobs or fewer."""
    xs = sorted(latencies)
    n = len(xs)
    i = n - 11 if n > 10 else n - 1
    return xs[i], 100.0 * (i + 1) / n


def environment(args, passes):
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "dont_write_bytecode": sys.dont_write_bytecode,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "platform": platform.platform(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "passes": passes}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _summary(runs, key):
    """jobs_per_s, p50 and tail (seconds) of the ``key`` times of a run."""
    times = [r[key] for p in runs for r in p]
    tail_s, tail_pct = tail(times)
    rate = statistics.median(len(p) / sum(r[key] for r in p) for p in runs)
    return rate, statistics.median(times), tail_s, tail_pct, len(times)


def measure(args, work, report):
    setups = []
    for _ in range(SETUPS):
        cpu_s, wall_s, sc, jobs = setup(args.workload, args.seed, work)
        setups.append((cpu_s, wall_s))
    gc.collect()
    gc.freeze()
    checker = Checker(args.workload, args.seed)
    passes = max(1, int(args.seconds // PASS_SECONDS[args.workload]))
    cold = ColdStarts(checker, passes * len(jobs))
    runs = [run_pass(sc, jobs, checker, after_job=cold.after_job) for _ in range(passes)]
    rate, p50, tail_s, tail_pct, n = _summary(runs, "cpu_s")
    failed = sum(not r["ok"] for p in runs for r in p) + cold.failed
    attempted = n + len(cold.cpu)
    metrics = {
        "jobs_per_s": _metric(rate, "1/s"),
        "job_p50_ms": _metric(1000 * p50, "ms"),
        "job_tail_ms": _metric(1000 * tail_s, "ms"),
        "setup_s": _metric(statistics.median(c for c, _ in setups), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "cold_start_ms": _metric(1000 * statistics.median(cold.cpu), "ms"),
    }
    w_rate, w_p50, w_tail, _, _ = _summary(runs, "latency_s")
    report.update(environment(args, passes))
    report.update({
        "jobs": [{"id": j.id, "argv": j.argv, "expect_code": j.code, "size": j.size,
                  "cpu_ms": [round(1000 * p[i]["cpu_s"], 3) for p in runs],
                  "wall_ms": [round(1000 * p[i]["latency_s"], 3) for p in runs]}
                 for i, j in enumerate(jobs)],
        "tail": {"percentile": tail_pct, "samples": n},
        "setup_s_cpu_wall": setups,
        "wall_clock": {"jobs_per_s": w_rate, "job_p50_ms": 1000 * w_p50,
                       "job_tail_ms": 1000 * w_tail,
                       "cold_start_ms": 1000 * statistics.median(cold.wall)},
        "failed_ratio": failed / attempted,
        "oracle_checks": checker.checks, "failures": checker.failures,
    })
    print(f"{args.workload} seed={args.seed}: {passes} passes x {len(jobs)} jobs; "
          f"tail = p{tail_pct:.1f} of {n} jobs; cold start median of {len(cold.cpu)}; "
          f"failed_ratio = {failed}/{attempted}; oracle checks = {checker.checks}")
    return metrics, attempted, failed, not checker.failures


def traced(args, work, report):
    import tracing
    import workloads
    _, _, sc, jobs = setup(args.workload, args.seed, work)
    gc.collect()
    gc.freeze()
    checker = Checker(args.workload, args.seed)
    untraced = run_pass(sc, jobs, checker)
    second_seed = args.seed + 1
    *_, jobs2 = setup(args.workload, second_seed, work + "-seed2", sc)
    checker2 = Checker(args.workload, second_seed)
    passes, tracers = [], []
    for job_list, chk in ((jobs, checker), (jobs2, checker2)):
        tracer = tracing.Tracer(sc)
        tracer.install()
        try:
            passes.append(run_pass(sc, job_list, chk, tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    first = tracers[0]
    wall_u = sum(r["latency_s"] for r in untraced)
    wall_t = sum(r["latency_s"] for r in passes[0])
    problems = []
    counters = [t.exact_counters() for t in tracers]
    diff = {k: (counters[0][k], counters[1][k]) for k in tracing.SEED_FREE_COUNTERS
            if counters[0][k] != counters[1][k]}
    if diff:
        problems.append(f"seed-free counters differ on seed {second_seed}: {diff}")
    zero = [b for b in workloads.PREDICTED_BOUNDARIES[args.workload] if not first.calls[b]]
    if zero:
        problems.append(f"predicted boundaries with no calls: {zero}")
    layer_sum = sum(first.layer_self.values())
    if layer_sum > wall_t:
        problems.append(f"layer self times {layer_sum:.3f}s exceed traced wall {wall_t:.3f}s")
    values = first.metrics()
    values.update({"trace.untraced_wall_s": wall_u, "trace.traced_wall_s": wall_t,
                   "trace.overhead_s": wall_t - wall_u,
                   "trace.bookkeeping_s": first.bookkeeping})
    metrics = {k: _metric(v, _unit(k)) for k, v in sorted(values.items())}
    shares = {layer: round(s / layer_sum, 4) for layer, s in
              sorted(first.layer_self.items(), key=lambda kv: -kv[1])}
    all_runs = [untraced] + passes
    failed = sum(not r["ok"] for p in all_runs for r in p)
    attempted = sum(len(p) for p in all_runs)
    report.update(environment(args, len(all_runs)))
    report.update({
        "jobs": [{"id": j.id, "argv": j.argv, "size": {**j.size, **{
                  k: passes[0][i][k] for k in ("eliminations", "max_cols")}},
                  "traced_ms": round(1000 * passes[0][i]["latency_s"], 3)}
                 for i, j in enumerate(jobs)],
        "layer_shares": shares, "exact_counters": counters,
        "functions": first.function_table(), "trace_problems": problems,
        "failed_ratio": failed / attempted,
        "oracle_checks": checker.checks + checker2.checks,
        "failures": checker.failures + checker2.failures,
    })
    print(f"{args.workload} seed={args.seed} traced: layer shares "
          + ", ".join(f"{k} {100 * v:.1f}%" for k, v in shares.items())
          + f"; overhead {wall_t - wall_u:.2f}s on {wall_u:.2f}s untraced")
    for p in problems:
        print(f"trace check failed: {p}")
    ok = not (checker.failures or checker2.failures or problems)
    return metrics, attempted, failed, ok


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.startswith("modelfile.bytes"):
        return "bytes"
    return "count"


def record(args, work):
    *_, sc, jobs = setup(args.workload, args.seed, work)
    checker = Checker(args.workload, args.seed)
    digests = {}
    run_pass(sc, jobs, checker, record=digests)
    with open(DIGESTS, encoding="utf-8") as fh:
        data = json.load(fh)
    if data["recorded_seed"] != args.seed:
        raise SystemExit(f"digests are recorded for seed {data['recorded_seed']}")
    data["workloads"][args.workload] = dict(sorted(digests.items()))
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests for {args.workload}")


def main(argv=None) -> int:
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "supercech", "cli.py")):
        print("perfbench: no supercech sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(SRC))
    work = os.path.join(STATE, "work", args.workload)
    if args.record_digests:
        record(args, work)
        return 0
    report = {}
    if args.trace:
        metrics, attempted, failed, ok = traced(args, work, report)
    else:
        metrics, attempted, failed, ok = measure(args, work, report)
    report["metrics"] = metrics
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    path = os.path.join(STATE, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for msg in report["failures"][:10]:
        print(f"check failed: {msg}")
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main())
