"""Benchmark of the fadingrate CLI: end-to-end metrics per workload
by default, per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload mc_timeshare --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one after another
    python3 perfbench/run.py --smoke

Each job runs in its own fresh interpreter, one at a time (a closed loop
with one client), with BLAS/OpenMP threads capped at the CPU count.  A
pass runs every job of the workload once; passes start until --seconds
have passed, so the last one may run over, and there are at least two
(one of each kind with --trace 1).  With --trace 1 half of
the time goes to untraced passes and half to traced ones, and the
difference of their run_s is the tracing overhead.  Human-readable
results and the run environment go to stdout and to
.bench_work/results/; the last stdout line is the JSON result.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
import spans
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MODULES = ("cli", "mcrates", "model", "quadrature", "rates", "prediction", "entropy", "simulate")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    nproc = str(os.cpu_count() or 1)
    for var in THREAD_VARS:
        env[var] = nproc
    return env


def run_job(job, workdir, seed, trace, env, deadline):
    """Launch one job, wait for it, check its output."""
    result_path = os.path.join(workdir, job.name + ".result.json")
    launch = time.perf_counter()
    stdout = stderr = None
    with subprocess.Popen(
            [sys.executable, os.path.join(HERE, "job.py"), result_path, repr(launch),
             "1" if trace else "0", "--"] + job.argv,
            cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:  # timed out, or this harness is being stopped
                proc.kill()
                proc.communicate()
    if stdout is None:
        return {"job": job.name, "status": "failed", "detail": "killed at the run's time limit",
                "rows": 0, "run_s": 0.0, "setup_s": None, "maxrss_kib": 0}
    try:
        with open(result_path) as fh:
            res = json.load(fh)
    except (OSError, ValueError):
        res = {"rc": proc.returncode, "run_s": 0.0, "setup_s": None, "maxrss_kib": 0}
        stderr += f"\nno job result (exit {proc.returncode})"
    status, detail, rows, digest = checks.check_job(job, res["rc"], stdout, stderr, workdir, seed)
    res.update(job=job.name, status=status, detail=detail, rows=rows, sha256=digest)
    return res


def run_pass(jobs, workdir, seed, trace, env, deadline):
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    return [run_job(job, workdir, seed, trace, env, deadline) for job in jobs]


def run_passes(jobs, workdir, seed, trace, env, budget, deadline, min_passes):
    """Passes until the budget is spent and min_passes are done; the last
    one may run over the budget, but none starts that would end after the
    deadline."""
    passes = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append(run_pass(jobs, workdir, seed, trace, env, deadline))
        now = time.perf_counter()
        if (now - t0 >= budget and len(passes) >= min_passes) or now + (now - start) > deadline:
            return passes


def summary(values):
    """(median, q1, q3, n) of a list of numbers."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def end_to_end(passes):
    run_s = [sum(r["run_s"] for r in p) for p in passes]
    rows = [sum(r["rows"] for r in p) for p in passes]
    jobs = [r for p in passes for r in p]
    ok = sum(r["status"] == "ok" for r in jobs)
    return {
        "setup_s": ("s", [r["setup_s"] for r in jobs if r["setup_s"] is not None]),
        "run_s": ("s", run_s),
        "rows_per_s": ("rows/s", [n / t for n, t in zip(rows, run_s) if t > 0]),
        "peak_rss_mb": ("MiB", [max(r["maxrss_kib"] for r in p) / 1024.0 for p in passes]),
        "fail_frac": ("ratio", [1.0 - ok / len(jobs)]),
        "pass_frac": ("ratio", [ok / len(jobs)]),
    }


def per_layer(passes):
    """Per-pass layer metrics (lists over passes)."""
    names = spans.span_names()
    out = {}
    for p in passes:
        agg = {}
        samples = 0
        for r in p:
            samples += r.get("mc_samples", 0)
            for name, (calls, total, self_s) in spans.aggregate(r.get("spans", [])).items():
                c0, t0, s0 = agg.get(name, (0, 0.0, 0.0))
                agg[name] = (c0 + calls, t0 + total, s0 + self_s)
        values = {}
        for name in names:
            calls, total, self_s = agg.get(name, (0, 0.0, 0.0))
            values[name + ".calls"] = ("count", calls)
            values[name + ".total_s"] = ("s", total)
            values[name + ".self_s"] = ("s", self_s)
        for module in MODULES:
            values[module + ".self_s"] = ("s", sum(
                s for name, (_, _, s) in agg.items() if name.split(".")[0] == module))
        values["mcrates.samples"] = ("count", samples)
        for key, (unit, value) in values.items():
            out.setdefault(key, (unit, []))[1].append(value)
    return out


def environment(smoke_status):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    env = child_env()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: env[var] for var in THREAD_VARS},
        "clients": 1,
        "smoke_test": smoke_status,
    }


def print_metrics(title, metrics):
    print(title)
    for name, (unit, values) in metrics.items():
        med, q1, q3, n = summary(values)
        print(f"  {name:<44} {med:>14.6g} {unit:<7} q1 {q1:.6g}  q3 {q3:.6g}  n={n}")


# ---------------------------------------------------------------- smoke test

# the layer each workload's tiny jobs must show in their spans
SMOKE_LAYERS = {
    "mc_timeshare": "mcrates.sethuraman_lower_ts",
    "mc_fixed": "mcrates.rate_lower_cm",
    "analytic": "quadrature.szego_log_integral",
    "oracle": "prediction.pred_error_finite",
}


def _negative_controls(job, workdir, seed):
    """Damaged copies of a passing output that the check must reject."""
    if job.kind == "value":
        with open(os.path.join(checks.REFERENCE_DIR, job.ref + ".txt")) as fh:
            value = float(fh.read()) * (1 + 1e-6)
        return [("value off by 1e-6", checks.check_value(repr(value), job.ref))]
    path = os.path.join(workdir, job.argv[job.argv.index("--out") + 1])
    with open(path, "rb") as fh:
        data = fh.read()
    damaged = os.path.join(workdir, "damaged")
    cases = []
    if job.kind == "dump":
        cases.append(("truncated", data[:-8]))
        scaled = checks.np.frombuffer(data, dtype=checks.np.complex64,
                                      offset=checks.DUMP_HEADER.size) * 1.5
        cases.append(("scaled by 1.5", data[:checks.DUMP_HEADER.size] + scaled.tobytes()))
    else:
        comments, header, rows = checks.read_csv(path)
        mc = checks._mc_columns(header)
        analytic = next(i for i, name in enumerate(header)
                        if name not in mc and rows[0][i] and float(rows[0][i]) != 0.0
                        and name not in ("f_d", "snr_db"))
        bumped = [row[:] for row in rows]
        bumped[0][analytic] = repr(float(rows[0][analytic]) * (1 + 1e-6))
        cases.append((f"{header[analytic]} off by 1e-6", bumped))
        cases.append(("last row dropped", rows[:-1]))
        low = next((name for name in checks.MC_LOWER if name in header), None)
        if low:
            high = [row[:] for row in rows]
            se = float(rows[0][header.index(low + "_stderr")])
            high[0][header.index(low)] = repr(
                float(rows[0][header.index("coherent")]) + 2 * checks.MC_SLACK * se)
            cases.append((f"{low} above the upper bound", high))
        cases = [(what, ("\n".join(comments + [",".join(header)] + [",".join(r) for r in body])
                         + "\n").encode()) for what, body in cases]
    out = []
    for what, blob in cases:
        with open(damaged, "wb") as fh:
            fh.write(blob)
        if job.kind == "dump":
            problem = checks.check_dump(damaged, job.dump)
        else:
            problem = checks.check_csv(damaged, job.ref, job.argv[0], seed)
        out.append((what, problem))
    return out


def smoke(env, deadline):
    """Every workload at a tiny size through the checks and the traced
    run, plus damaged outputs that the checks must reject."""
    ok, lines = True, []
    workdir = os.path.join(WORK, f"smoke-{os.getpid()}")
    try:
        for workload, make in WORKLOADS.items():
            jobs = make(0, small=True)
            results = run_pass(jobs, workdir, 0, True, env, deadline)
            seen = {}
            for job, r in zip(jobs, results):
                for name, (calls, _, _) in spans.aggregate(r.get("spans", [])).items():
                    seen[name] = seen.get(name, 0) + calls
                good = r["status"] == "ok"
                ok &= good
                lines.append(f"{workload}/{job.name}: {r['status']} {r['detail']}")
                if not good:
                    continue
                for what, problem in _negative_controls(job, workdir, 0):
                    ok &= problem is not None
                    lines.append(f"  damaged ({what}): "
                                 + (f"rejected: {problem}" if problem else "NOT REJECTED"))
            layer = SMOKE_LAYERS[workload]
            traced = seen.get(spans.MAIN) == len(jobs) and seen.get(layer, 0) > 0
            ok &= traced
            lines.append(f"{workload}: spans {'ok' if traced else 'MISSING'} "
                         f"({spans.MAIN} x{seen.get(spans.MAIN, 0)}, {layer} x{seen.get(layer, 0)})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return ok, lines


def cached_smoke(env, deadline):
    """Smoke-test status for this exact source and benchmark code, running
    the smoke test once per code version."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".py", ".csv", ".txt")):
                    with open(os.path.join(dirpath, name), "rb") as fh:
                        digest.update(name.encode() + fh.read())
    path = os.path.join(WORK, f"smoke-{digest.hexdigest()[:16]}.json")
    if not os.path.isfile(path):
        ok, lines = smoke(env, deadline)
        os.makedirs(WORK, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"ok": ok, "lines": lines}, fh)
    with open(path) as fh:
        return "passed" if json.load(fh)["ok"] else "failed"


def write_reference(env):
    """Store the seed-0 outputs of every job that has a reference; run
    only when the benchmark's jobs change."""
    for make in WORKLOADS.values():
        for job in make(0):
            if job.ref is None:
                continue
            done = subprocess.run([sys.executable, "-m", "fadingrate.cli"] + job.argv,
                                  cwd=checks.REFERENCE_DIR, env=env, check=True,
                                  stdout=subprocess.PIPE, text=True)
            if job.kind == "value":
                with open(os.path.join(checks.REFERENCE_DIR, job.ref + ".txt"), "w") as fh:
                    fh.write(done.stdout)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="the workload to run (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's smoke test and exit")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the seed-0 reference outputs and exit")
    return parser.parse_args(argv)


def run_workload(workload, seed, seconds, trace, env):
    """One measured run of a workload: prints its tables and returns the
    result object (correct, attempted, failed, metrics)."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    jobs = WORKLOADS[workload](seed)
    workdir = os.path.join(WORK, f"{workload}-{os.getpid()}")
    smoke_status = cached_smoke(env, deadline)
    try:
        if trace:
            plain = run_passes(jobs, workdir, seed, False, env, seconds / 2, deadline, 1)
            traced = run_passes(jobs, workdir, seed, True, env, seconds / 2, deadline, 1)
        else:
            plain = run_passes(jobs, workdir, seed, False, env, seconds, deadline, 2)
            traced = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every = plain + traced
    jobs_run = [r for p in every for r in p]
    failed = sum(r["status"] == "failed" for r in jobs_run)
    refused = sum(r["status"] == "refused" for r in jobs_run)
    e2e = end_to_end(plain)
    print(f"workload {workload}  seed {seed}  trace {trace}  "
          f"{len(plain)} untraced + {len(traced)} traced passes of {len(jobs)} jobs")
    print_metrics("end to end (untraced passes):", e2e)
    print(f"  of {len(jobs_run)} jobs run: {refused} known refusal(s), {failed} unexpected failure(s)")
    layers = {}
    if traced:
        layers = per_layer(traced)
        plain_run = summary(e2e["run_s"][1])[0]
        traced_run = summary(end_to_end(traced)["run_s"][1])[0]
        layers["trace.untraced_run_s"] = ("s", [plain_run])
        layers["trace.traced_run_s"] = ("s", [traced_run])
        layers["trace.overhead_s"] = ("s", [traced_run - plain_run])
        print_metrics("per layer (traced passes):", {k: v for k, v in layers.items()
                                                      if any(v[1])})
    env_record = environment(smoke_status)
    print("env: " + json.dumps(env_record))
    for r in plain[-1] + (traced[-1] if traced else []):
        print(f"job {r['job']}: {r['status']} rows {r['rows']} sha256 {r['sha256']} {r['detail']}")

    record = {
        "workload": workload, "seed": seed, "trace": trace, "env": env_record,
        "end_to_end": {k: {"unit": u, "values": v} for k, (u, v) in e2e.items()},
        "per_layer": {k: {"unit": u, "values": v} for k, (u, v) in layers.items()},
        "jobs": [[{k: r.get(k) for k in ("job", "status", "detail", "rows", "run_s",
                                          "setup_s", "maxrss_kib", "sha256")} for r in p]
                 for p in every],
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    wanted = layers if trace else {k: e2e[k] for k in
                                   ("setup_s", "run_s", "rows_per_s", "peak_rss_mb", "pass_frac")}
    return {
        "correct": failed == 0 and smoke_status == "passed",
        "attempted": len(jobs_run),
        "failed": failed,
        "metrics": {k: {"value": summary(v)[0], "unit": u} for k, (u, v) in wanted.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    # a stopped benchmark still kills its running job and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "fadingrate", "cli.py")):
        print("error: src/fadingrate is missing; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    env = child_env()
    if args.write_reference:
        write_reference(env)
        return 0
    if args.smoke:
        ok, lines = smoke(env, time.perf_counter() + RUN_LIMIT_S)
        print("\n".join(lines))
        print("smoke test " + ("passed" if ok else "FAILED"))
        return 0 if ok else 1

    seed = args.seed % 2**31  # the CLI takes nonnegative seeds
    if args.workload:
        print(json.dumps(run_workload(args.workload, seed, args.seconds, args.trace, env)))
        return 0
    # every workload: one result object whose metric names carry the workload
    results = {w: run_workload(w, seed, args.seconds, args.trace, env) for w in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
