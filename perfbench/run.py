"""Benchmark of the casimir-stability CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every job runs the workload's ops through ``casimir_stability.cli.run`` in a
fresh interpreter (``worker.py``), so the coefficient-table, Wigner-3j and
Bessel caches start cold as they do for a CLI user.  With ``--trace 0`` the
run first times ``SETUP_PROBES`` bare imports, then repeats the job while
another one fits in ``--seconds``, and reports the medians of the end-to-end
metrics.  With ``--trace 1`` it runs the job once untraced and once traced
and reports the per-layer metrics.  Every output CSV is checked.  The last
line of standard output is the JSON result; the lines before it record the
environment and the per-op detail.  See README.md for every metric.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

import checks
from reference import REFERENCE_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_PROBES = 5
# The matrices are small (order <= 210), so one BLAS thread is as fast as
# two and steadier on shared cores.  Never more than nproc.
BLAS_THREADS = 1
# every run must end within 180 s
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "first_result_s": "s",
    "peak_rss_mb": "MB",
    "op_success_rate": "ratio",
}

PER_LAYER = {
    "translation.first_call_s": "s",
    "translation.matrix_calls": "count",
    "translation.matrix_s": "s",
    "translation.matrix_warm_ms": "ms",
    "translation.entries_built": "count",
    "translation.gradient_calls": "count",
    "translation.gradient_s": "s",
    "specfun.wigner3j_calls": "count",
    "specfun.wigner3j_s": "s",
    "specfun.log_bessel_k_calls": "count",
    "scattering.tmatrix_calls": "count",
    "scattering.tmatrix_s": "s",
    "scattering.fresnel_calls": "count",
    "casimir.plates_s": "s",
    "casimir.integrand_calls": "count",
    "casimir.integrand_s": "s",
    "casimir.assemble_self_s": "s",
    "linalg.slogdet_calls": "count",
    "linalg.slogdet_s": "s",
    "linalg.slogdet_flops": "flop",
    "linalg.solve_s": "s",
    "linalg.inv_s": "s",
    "stability.force_s": "s",
    "stability.laplacian_fd_s": "s",
    "stability.decomposition_s": "s",
    "classical.metropolis_s": "s",
    "classical.step_us": "us",
    "classical.acceptance_rate": "ratio",
    "classical.estimator_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.unattributed_share_max": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a measurement."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run deadline reached")
    return left


def probe_setup(env, deadline):
    """(seconds from starting an interpreter until casimir_stability.cli is
    imported, the reference kernel's time in that interpreter just after)."""
    code = (
        "import sys; import casimir_stability.cli; print('ready', flush=True); "
        f"sys.path.insert(0, {str(HERE)!r}); import reference; "
        "print(reference.reference_s(), flush=True)"
    )
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          env=env, cwd=ROOT, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            ref = proc.stdout.readline()
            proc.wait(timeout=remaining(deadline))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line != "ready\n" or proc.returncode != 0:
        raise BenchError("importing casimir_stability.cli failed")
    return elapsed, float(ref)


def scaled_ops(result):
    """Op times scaled to the reference speed, each by the mean of the
    reference timings taken just before and just after it."""
    refs = result["reference_s"]
    return [t * REFERENCE_S / (0.5 * (a + b))
            for t, a, b in zip(result["op_s"], refs, refs[1:])]


class Job:
    """The workload's ops written out as config files under ``workdir``."""

    def __init__(self, ops, workdir):
        self.ops = ops
        self.workdir = Path(workdir)
        self.outputs = [self.workdir / f"op{i}.csv" for i in range(len(ops))]
        self.argvs = []
        for i, op in enumerate(ops):
            config = self.workdir / f"op{i}.yaml"
            config.write_text(yaml.safe_dump(op.config), encoding="utf-8")
            self.argvs.append([op.command, str(config), *op.args,
                               "--output", str(self.outputs[i])])

    def run(self, env, deadline, trace=False):
        """Run once in a fresh worker; returns (worker result, problems per op)."""
        for path in self.outputs:
            path.unlink(missing_ok=True)
        spec = self.workdir / "spec.json"
        result_path = self.workdir / "result.json"
        result_path.unlink(missing_ok=True)
        spec.write_text(json.dumps({"src": str(SRC), "trace": trace, "ops": self.argvs}))
        cmd = [sys.executable, str(HERE / "worker.py"), str(spec), str(result_path)]
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=remaining(deadline))
        except subprocess.TimeoutExpired as exc:
            raise BenchError("job exceeded the run deadline") from exc
        if proc.returncode != 0 or not result_path.exists():
            sys.stderr.write(proc.stderr)
            raise BenchError(f"worker exited with code {proc.returncode}")
        result = json.loads(result_path.read_text())
        problems = []
        for op, code, path in zip(self.ops, result["exit_codes"], self.outputs):
            if code != 0:
                problems.append([f"exit code {code}"])
            else:
                problems.append(checks.check_output(path, op.check))
        for op, found in zip(self.ops, problems):
            for problem in found:
                sys.stderr.write(f"check failed: {op.command}: {problem}\n")
        if any(problems):
            sys.stderr.write(proc.stderr)
        return result, problems


def mc_acceptance(job):
    for op, path in zip(job.ops, job.outputs):
        if op.command == "mc":
            return checks.number(checks.read_csv(path)[0], "acceptance_rate")
    return 0.0


def measure(job, env, seconds, deadline):
    """End-to-end metrics: medians over setup probes and repeated jobs."""
    probes = [probe_setup(env, deadline) for _ in range(SETUP_PROBES)]
    results, problems, walls = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result, found = job.run(env, deadline)
        walls.append(time.perf_counter() - t0)
        results.append(result)
        problems.extend(found)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    failed = sum(1 for p in problems if p)
    ops = [scaled_ops(r) for r in results]
    metrics = {
        "setup_s": statistics.median(t * REFERENCE_S / ref for t, ref in probes),
        "job_s": statistics.median(sum(o) for o in ops),
        "first_result_s": statistics.median(o[0] for o in ops),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "op_success_rate": 1.0 - failed / len(problems),
    }
    detail = {
        "setup_raw_s": [t for t, _ in probes],
        "setup_reference_s": [ref for _, ref in probes],
        "jobs": [{"op_raw_s": r["op_s"], "reference_s": r["reference_s"],
                  "op_s": o, "import_s": r["import_s"],
                  "peak_rss_mb": r["peak_rss_mb"]}
                 for r, o in zip(results, ops)],
    }
    return metrics, detail, results[-1]["environment"], len(problems), failed


def measure_layers(job, env, deadline):
    """Per-layer metrics from a traced job, with an untraced job for the overhead."""
    plain, plain_problems = job.run(env, deadline)
    traced, traced_problems = job.run(env, deadline, trace=True)
    problems = plain_problems + traced_problems
    failed = sum(1 for p in problems if p)
    plain_s, traced_s = sum(plain["op_s"]), sum(traced["op_s"])
    metrics = dict(traced["layers"])
    metrics["classical.acceptance_rate"] = (
        mc_acceptance(job) if not any(traced_problems) else 0.0
    )
    metrics["trace.overhead_s"] = traced_s - plain_s
    ops = traced["ops"]
    metrics["trace.unattributed_share"] = (
        sum(d * s for d, s in ops) / sum(d for d, _ in ops)
    )
    metrics["trace.unattributed_share_max"] = max(s for _, s in ops)
    detail = {
        "untraced_job_s": plain_s,
        "traced_job_s": traced_s,
        "spans": traced["spans"],
        "ops": [{"command": op.command, "seconds": d, "unattributed_share": s}
                for op, (d, s) in zip(job.ops, ops)],
    }
    return metrics, detail, traced["environment"], len(problems), failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "casimir_stability" / "cli.py").is_file():
        sys.stderr.write(f"no casimir_stability sources under {SRC}\n")
        return 2
    env = child_env()
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        job = Job(WORKLOADS[args.workload](args.seed), workdir)
        if args.trace:
            metrics, detail, envinfo, attempted, failed = measure_layers(job, env, deadline)
            units = PER_LAYER
        else:
            metrics, detail, envinfo, attempted, failed = measure(
                job, env, args.seconds, deadline)
            units = END_TO_END
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    envinfo["blas_threads_requested"] = env["OPENBLAS_NUM_THREADS"]
    print(json.dumps({"environment": envinfo}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
