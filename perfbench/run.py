"""Benchmark launcher for gimbalsim.

    python3 perfbench/run.py --workload {run-presets,sweep,check} \\
        --seed N --seconds S --trace {0,1}

Runs from the root of a checkout and measures the package in its
``src``. Each workload runs in a fresh ``workloads.py`` process with
BLAS/OpenMP threads pinned to 1 and ``GIMBAL_OUT_DIR`` removed; all
simulator outputs go to a temporary directory under ``perfbench/`` that
is deleted before exit. Set-up time is sampled in extra processes that
only import and build the inputs, before and after the measured run,
and reported as the median.

Prints every metric by name with its unit, then, as the last line, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). The full result, with the machine it ran on, is also
written to ``perfbench/out/``. Exits non-zero without a result when the
package or its outputs cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("run-presets", "sweep", "check")
# Set-up samples: this many before the measured run and as many after
# it, plus the measured run's own. Spread over the run, they do not all
# fall in one of the machine's slow phases, which last seconds.
SETUP_SAMPLES_EACH_SIDE = 2
DEADLINE_S = 170.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env.pop("GIMBAL_OUT_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def environment() -> dict[str, object]:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    libc, libc_version = platform.libc_ver()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "libc": f"{libc} {libc_version}".strip(),  # libm ships with it
        "machine": platform.machine(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


class ChildFailed(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Start a workload process; return the seconds from start to its
    READY line, and the lines it printed after that. Kills it at the
    deadline (a time.monotonic value)."""
    cmd = [sys.executable, str(HERE / "workloads.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read().splitlines()
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or rc != 0:
        raise ChildFailed(f"workload process exited with status {rc}")
    return ready_s, rest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gimbalsim benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "gimbalsim" / "__init__.py").is_file():
        print(f"error: no gimbalsim package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = HERE / ".tmp" / f"{tag}-{os.getpid()}"
    outdir = HERE / "out"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds)]

    def setup_samples(first):
        return [spawn([*common, "--tmp", str(tmp / f"setup{k}"), "--setup-only"], deadline)[0]
                for k in range(first, first + SETUP_SAMPLES_EACH_SIDE)]

    try:
        setup = setup_samples(0)
        run = [*common, "--tmp", str(tmp / "run")]
        if args.trace:
            outdir.mkdir(exist_ok=True)
            run += ["--spans", str(outdir / f"{tag}.spans.jsonl")]
        ready_s, lines = spawn(run, deadline)
        result = json.loads(lines[-1])
        setup += [ready_s, *setup_samples(SETUP_SAMPLES_EACH_SIDE)]
    except (ChildFailed, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (HERE / ".tmp").rmdir()
        except OSError:
            pass

    metrics = {"setup_s": ("s", statistics.median(setup)), **result["metrics"]}
    attempted, failed = result["attempted"], result["failed"]
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  operations {result['operations']}")
    print("env " + "  ".join(f"{k} {v}" for k, v in env.items()))
    print("end-to-end:")
    for name, (unit, value) in {**metrics, **result["report"]}.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print(f"  {'fail_share':<28} {failed / attempted:>14.6g} ({failed} of {attempted} failed)")
    if args.trace:
        print("per-layer:")
        for name, (unit, value) in result["layers"].items():
            print(f"  {name:<40} {value:>14.6g} {unit}")
        print("accounting: " + "  ".join(f"{k} {v:.6g}" for k, v in result["accounting"].items()))

    shown = result["layers"] if args.trace else metrics
    out = {
        "correct": failed == 0 and not result["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in shown.items()},
    }
    outdir.mkdir(exist_ok=True)
    (outdir / f"{tag}.json").write_text(json.dumps(
        {**out, "env": env, "setup_samples_s": setup, "end_to_end": metrics,
         "report": result["report"], "op_walls_s": result["op_walls_s"],
         "layers": result.get("layers"),
         "accounting": result.get("accounting"), "errors": result["errors"]}, indent=1) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
