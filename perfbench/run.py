"""qbath benchmark: seeded workloads through the real CLI, ``qbath.cli.main``.

    python3 perfbench/run.py --workload <spectral|cat-purity|configs> --seed <n> \
        --seconds <s> --trace <0|1> [--size full|tiny]

Run from the root of a checkout; qbath is imported from ``src`` there.  One run:

1. set-up: a fresh interpreter imports qbath and writes the workload's configs,
   repeated and reported as the median (``setup_s``);
2. warm-up: one pass of the workload's tiny job list, in this process;
3. measurement: whole passes over the job list until ``--seconds`` have gone
   by; ``wall_s`` sums each job's fastest pass.  After each pass, outside
   the timed window, every job's artifacts are checked (``checks.py``);
4. with ``--trace 1`` the first half of the time is measured untraced and the
   second half traced (``spans.py``), and the per-layer metrics are reported
   instead of the end-to-end ones.

The last line of standard output is the result as one JSON object; the line
before it holds the machine block and the per-pass details.  Spans of the last
traced pass go to ``perfbench/out/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# BLAS threads for every benchmark process; pinned so both sides of a comparison match.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = {"full": 5, "tiny": 2}

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _pin_environment() -> None:
    """Must run before numpy is imported in this process."""
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("QBATH_THREADS", None)  # the CLI's --threads stays at its default


def _machine() -> dict:
    import numpy as np
    import scipy

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": None,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            info["caches"][f"L{level}-{kind}"] = (idx / "size").read_text().strip()
    with contextlib.suppress(TypeError, KeyError):  # show_config differs across numpy versions
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    return info


def _measure_setup(workload: str, seed: int, size: str, work: Path) -> tuple[float, Path]:
    """Median seconds from starting a fresh interpreter to having the configs on disk."""
    times, texts = [], []
    for rep in range(SETUP_REPS[size]):
        target = work / f"setup-{rep}"
        cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
               "--seed", str(seed), "--size", size, "--dir", str(target)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: set-up failed ({proc.returncode}): {proc.stderr.strip()}")
        texts.append({p.name: p.read_bytes() for p in sorted(target.glob("*.json"))})
    if any(t != texts[0] for t in texts):
        raise SystemExit("benchmark: set-up wrote different configs for the same seed")
    return statistics.median(times), work / "setup-0"


def _run_pass(cli, jobs, cfg_dir: Path, out_dir: Path) -> tuple[list[float], list[int], str]:
    """Run every job once through cli.main; returns (seconds per job, exit codes, stderr)."""
    for job in jobs:
        shutil.rmtree(out_dir / job.name, ignore_errors=True)
    sink, errors = io.StringIO(), io.StringIO()
    times, codes = [], []
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errors):
        for job in jobs:
            argv = [job.subcommand, "--config", str(cfg_dir / f"{job.config}.json"),
                    "--out", str(out_dir / job.name)]
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejecting the arguments
                code = exc.code
            except Exception as exc:  # an escaped exception fails the job, not the run
                print(f"{job.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                code = -1
            times.append(time.perf_counter() - start)
            codes.append(code)
    return times, codes, errors.getvalue()


def _list_seconds(job_times: list[list[float]]) -> float:
    """Seconds for the whole job list once: each job's fastest pass, summed.

    A job does the same work in every pass, so a slower pass measures other
    processes on the machine, not the program.  On a shared host their load
    comes and goes within a run; each job's fastest pass is the steady
    estimate, while the median pass moves with the neighbours' load.
    """
    return sum(min(per_job) for per_job in zip(*job_times))


def _check_pass(jobs, codes, cfg_dir: Path, out_dir: Path) -> tuple[int, list[str]]:
    """(number of failed jobs, their problems), from exit codes and artifacts."""
    import checks

    failed, problems = 0, []
    for job, code in zip(jobs, codes):
        config = json.loads((cfg_dir / f"{job.config}.json").read_text())
        found = checks.check_job(job.subcommand, code, out_dir / job.name, config)
        failed += bool(found)
        problems += [f"{job.name}: {p}" for p in found]
    return failed, problems


def _bytes_written(jobs, out_dir: Path) -> int:
    """Bytes of the data artifacts; the manifest is left out because it holds a wall time."""
    return sum(p.stat().st_size for job in jobs for p in (out_dir / job.name).glob("*")
               if p.name != "manifest.json")


class _Passes:
    """Runs whole passes until a deadline and keeps their results."""

    def __init__(self, cli, jobs, cfg_dir: Path, out_dir: Path) -> None:
        self.cli, self.jobs, self.cfg_dir, self.out_dir = cli, jobs, cfg_dir, out_dir
        self.job_times: list[list[float]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, seconds: float, before_pass=None, after_pass=None) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            if before_pass is not None:
                before_pass()
            times, codes, stderr = _run_pass(self.cli, self.jobs, self.cfg_dir, self.out_dir)
            self.job_times.append(times)
            if after_pass is not None:
                after_pass()
            failed, problems = _check_pass(self.jobs, codes, self.cfg_dir, self.out_dir)
            if problems and stderr:
                problems.append(f"stderr: {stderr.strip()[-2000:]}")
            self.attempted += len(self.jobs)
            self.failed += failed
            self.problems += problems
            if time.perf_counter() >= deadline:
                return


def _layer_metrics(runs: list[dict], problems: list[str]) -> dict:
    """Counts from the first traced pass (they must repeat), medians of the timings."""
    import spans

    metrics = {}
    for name, first in runs[0].items():
        values = [run[name] for run in runs]
        if isinstance(first, int):
            if len(set(values)) != 1:
                problems.append(f"trace: count {name} differs between passes: {values}")
            value = first
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": spans.unit_of(name)}
    return metrics


def main(argv=None) -> int:
    _pin_environment()
    sys.path.insert(0, str(HERE))
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="tiny shrinks every job, for the benchmark's own smoke tests")
    args = ap.parse_args(argv)
    workloads.import_qbath()  # exits here when the checkout has no qbath sources
    import qbath.cli

    work = OUT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_s, cfg_dir = _measure_setup(args.workload, args.seed, args.size, work)
        jobs = workloads.build(args.workload, args.seed, args.size)[1]
        warm_jobs = workloads.write_configs(args.workload, args.seed, "tiny", work / "warm")
        _run_pass(qbath.cli, warm_jobs, work / "warm", work / "warm-out")

        passes = _Passes(qbath.cli, jobs, cfg_dir, work / "jobs")
        detail = {"workload": args.workload, "seed": args.seed, "size": args.size,
                  "jobs": len(jobs), "machine": _machine()}
        if args.trace:
            import spans

            passes.run(args.seconds / 2)
            plain = list(passes.job_times)
            tracer = spans.Tracer()
            detail["untraced_functions"] = tracer.install()
            runs = []

            def collect():
                layer = tracer.metrics()
                layer["cli.bytes_written"] = _bytes_written(jobs, work / "jobs")
                runs.append(layer)

            try:
                passes.run(args.seconds / 2, before_pass=tracer.reset, after_pass=collect)
            finally:
                tracer.uninstall()
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl", [j.name for j in jobs])
            traced = passes.job_times[len(plain):]
            metrics = _layer_metrics(runs, passes.problems)
            metrics["trace.overhead_frac"] = {
                "value": _list_seconds(traced) / _list_seconds(plain) - 1.0,
                "unit": spans.unit_of("trace.overhead_frac")}
            detail["pass_seconds_untraced"] = [sum(t) for t in plain]
            detail["pass_seconds_traced"] = [sum(t) for t in traced]
        else:
            passes.run(args.seconds)
            metrics = {
                "wall_s": _list_seconds(passes.job_times),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
            detail["pass_seconds"] = [sum(t) for t in passes.job_times]
            detail["job_seconds"] = passes.job_times
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail["setup_s"] = setup_s
    detail["fail_frac"] = passes.failed / passes.attempted
    detail["problems"] = passes.problems[:50]
    print(json.dumps(detail))
    print(json.dumps({"correct": not passes.problems, "attempted": passes.attempted,
                      "failed": passes.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
