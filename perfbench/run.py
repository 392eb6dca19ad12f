"""Cold-CLI benchmark for orbitdesigns.

    python3 perfbench/run.py --workload <table|certify|verify|scan>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Every job is a fresh
`python -m orbitdesigns.cli ... --format json` process that imports the
package from <checkout>/src. One client runs one job at a time (a closed
loop) in whole rounds, each round one job per input of the workload, until
another round would pass --seconds. Each job's output is checked; a job with
a wrong exit code or output counts as failed and is left out of the timings.

--trace 0 prints the end-to-end metrics. --trace 1 runs every job twice,
plain and through shim.py, alternating which goes first, and prints the
per-layer metrics from the traced runs together with the tracing overhead.
The last line of stdout is the result object; the line before it holds
provenance, sample counts and any failures.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from jobs import WORKLOADS, Job, check
from spans import PER_LAYER_UNITS, layer_metrics, overhead

SHIM = Path(__file__).resolve().parent / "shim.py"
# timed `import orbitdesigns` launches after the warm-up, half before the jobs
# and half after them, so that set-up is sampled at both ends of the run
SETUP_LAUNCHES = 12
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples above it
RUN_DEADLINE_S = 150.0  # jobs still running this long after the start are killed
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PROBE = ("import json, sys, numpy, orbitdesigns; print(json.dumps({"
         "'python': sys.version.split()[0], 'numpy': numpy.__version__, "
         "'package': orbitdesigns.__file__}))")


@dataclass
class Launch:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mib: float


class Launcher:
    """Starts one child at a time with the checkout's src on PYTHONPATH."""

    def __init__(self, src: Path, work: Path, deadline: float):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.work = work
        self.deadline = deadline
        self._n = 0

    def __call__(self, cmd: list) -> Launch:
        self._n += 1
        out_path = self.work / f"{self._n}.out"
        err_path = self.work / f"{self._n}.err"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.work)
            killer = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            launch = Launch(proc.returncode, out.read().decode(errors="replace"),
                            err.read().decode(errors="replace"), wall,
                            usage.ru_maxrss / 1024.0)
        out_path.unlink()
        err_path.unlink()
        return launch


def _cli(job: Job) -> list:
    return [*job.argv, "--format", "json"]


def _run(launch: Launcher, job: Job, traced: bool, spans_path: Path) -> tuple:
    """Launch one job; return (launch, failure reason or None, spans or None)."""
    if traced:
        cmd = [sys.executable, str(SHIM), str(spans_path), spans_path.stem, *_cli(job)]
    else:
        cmd = [sys.executable, "-m", "orbitdesigns.cli", *_cli(job)]
    res = launch(cmd)
    reason = check(job, res.returncode, res.stdout)
    spans = None
    if traced:
        try:
            spans = json.loads(spans_path.read_text())
        except (OSError, ValueError) as exc:
            reason = reason or f"no spans: {exc}"
        spans_path.unlink(missing_ok=True)
    return res, reason, spans


def _tail(values: list) -> tuple:
    """(value, details) of the highest percentile with TAIL_BEYOND samples above it."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:  # too few samples for a tail: report the maximum
        return xs[-1], {"percentile": 100.0, "samples": n, "beyond": 0}
    return xs[n - TAIL_BEYOND - 1], {"percentile": 100.0 * (n - TAIL_BEYOND) / n,
                                     "samples": n, "beyond": TAIL_BEYOND}


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(src.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _provenance(launch: Launcher, root: Path, src: Path) -> dict:
    """Versions and where the package came from; the launch is also the warm-up."""
    probe = launch([sys.executable, "-c", PROBE])
    if probe.returncode != 0:
        raise SystemExit(f"perfbench: cannot import orbitdesigns from {src}:\n{probe.stderr}")
    info = json.loads(probe.stdout)
    package = Path(info.pop("package")).resolve()
    if not package.is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: orbitdesigns was imported from {package}, not {src}")
    return {
        "commit": _commit(root),
        "src_sha256": _src_digest(src),
        "package_from": "<checkout>/src",
        **info,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_VARS},
    }


def _parse(argv) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def bench(args: argparse.Namespace, root: Path, work: Path) -> tuple[dict, dict]:
    """Run one workload; return (result object, details)."""
    src = root / "src"
    t_start = perf_counter()
    launch = Launcher(src, work, t_start + RUN_DEADLINE_S)
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "provenance": _provenance(launch, root, src)}

    def time_setup(n: int) -> list:
        return [launch([sys.executable, "-c", "import orbitdesigns"]).wall_s for _ in range(n)]

    setup = time_setup(SETUP_LAUNCHES // 2)

    rng = random.Random(args.seed)
    make_round = WORKLOADS[args.workload]
    walls, rss, traced_walls, traces = [], [], [], []
    by_input = {}
    failures = []
    attempted = rounds = n_jobs = 0
    t0 = perf_counter()
    while True:
        for job in make_round(rng, work):
            n_jobs += 1
            # plain then traced on odd jobs, traced then plain on even ones
            modes = (n_jobs % 2 == 0, n_jobs % 2 == 1) if args.trace else (False,)
            for traced in modes:
                attempted += 1
                res, reason, spans = _run(launch, job, traced, work / f"spans-{attempted}.json")
                if reason is not None:
                    failures.append({"argv": list(job.argv), "traced": traced, "reason": reason,
                                     "stderr": res.stderr.strip()[-300:]})
                elif traced:
                    traced_walls.append(res.wall_s)
                    traces.append(spans)
                else:
                    walls.append(res.wall_s)
                    rss.append(res.maxrss_mib)
                    by_input.setdefault(job.label, []).append(res.wall_s)
        rounds += 1
        elapsed = perf_counter() - t0
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break
    setup += time_setup(SETUP_LAUNCHES - len(setup))

    passed = attempted - len(failures)
    details.update({
        "job_kind": job.kind, "rounds": rounds, "run_s": elapsed,
        "attempted": attempted, "failed": len(failures),
        "error_rate": len(failures) / attempted, "failures": failures,
        "setup_launches_s": setup,
        "p50_s_by_input": {k: statistics.median(v) for k, v in sorted(by_input.items())},
    })
    if args.trace:
        oh = overhead(traced_walls, walls)
        values, absent = layer_metrics(traces, traced_walls, oh)
        units = PER_LAYER_UNITS
        details.update({"traced_jobs": len(traces), "absent_spans": absent,
                        "untraced_p50_s": statistics.median(walls) if walls else None,
                        "traced_p50_s": statistics.median(traced_walls) if traced_walls else None,
                        "trace_overhead_s": oh})
    else:
        p50 = tail = None
        if walls:
            # median over inputs of each input's median: a round runs every input
            # once, so with two fast and two slow inputs the median of all jobs
            # would fall in the gap between them and jump with noise
            p50 = statistics.median(statistics.median(v) for v in by_input.values())
            tail, details["tail"] = _tail(walls)
        values = {
            "setup_s": statistics.median(setup),
            "peak_rss_mib": max(rss) if rss else None,
            "success_rate": passed / attempted,
            "jobs_per_s": len(walls) / elapsed,
            "job.p50_s": p50,
            "job.tail_s": tail,
        }
        units = {"setup_s": "s", "peak_rss_mib": "MiB", "success_rate": "ratio",
                 "jobs_per_s": "1/s", "job.p50_s": "s", "job.tail_s": "s"}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return result, details


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "orbitdesigns" / "cli.py").is_file():
        print("perfbench: run from the root of an orbitdesigns checkout "
              "(src/orbitdesigns/cli.py not found)", file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, details = bench(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
