"""Benchmark of the pingpong-eve command line, end to end and per layer.

Run from the repository root:

    python3 benchmarks/run.py --workload mc-stats --seed 1 --seconds 30 --trace 0

Workloads are defined, with the reasons for each, in ``workloads.py``.
With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it prints the per-layer metrics of a separate traced run
(``tracer.py``).  Op times are given in refs, multiples of a fixed
reference work timed throughout the run (see ``END_TO_END_UNITS``); the
same times in seconds are printed on a comment line.  The last stdout
line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it state the sample counts
and where the run came from.

The program is imported from ``src/`` of the checkout the benchmark sits
in; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# Fresh processes that measure set-up; setup_s is their median.
SETUP_REPS = 9
SETUP_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 140
# --smoke divides every round count by this and measures set-up once.
SMOKE_SCALE = 50

# Op times are given in refs: one ref is the mean wall time of the worker's
# fixed reference work, timed in the same process before every op.  The
# machine's speed drifts by 15-40% over minutes; ops and reference drift
# together, so their ratio is steady where the bare wall time is not.
END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_ref": "1/ref",
    "op_ref_p50": "ref",
    "op_ref_p90": "ref",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PINGPONG_EVE_SEED", None)
    env["PYTHONPATH"] = SRC
    # A fixed hash seed removes one source of run-to-run variance.
    env["PYTHONHASHSEED"] = "0"
    # One process, no extra threads: keep numpy's BLAS pool at one thread.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_worker(mode: str, args, workdir: str, scale: int, timeout: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", str(scale), "--src", SRC, "--workdir", workdir,
    ]
    try:
        proc = subprocess.run(
            cmd, env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process did not finish within {timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited {proc.returncode}")
    return json.loads(lines[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "pingpong_eve")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def provenance(args, package: dict) -> dict:
    return {
        "package_version": package["version"],
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": package["python"],
        "numpy": package["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(ops: list[dict], ref_s: float, setups: list[float], peak_rss_mb: float) -> dict:
    refs = [op["s"] / ref_s for op in ops]
    values = {
        "setup_s": statistics.median(setups),
        "items_per_ref": sum(op["items"] for op in ops) / sum(refs),
        "op_ref_p50": statistics.median(refs),
        "op_ref_p90": _p90(refs),
        "peak_rss_mb": peak_rss_mb,
        "pass_ratio": sum(op["ok"] for op in ops) / len(ops),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def wall_clock(ops: list[dict], ref_s: float) -> dict:
    """The same op times in seconds, for reading; they are not gated."""
    seconds = [op["s"] for op in ops]
    return {
        "items_per_s": sum(op["items"] for op in ops) / sum(seconds),
        "op_ms_p50": statistics.median(seconds) * 1e3,
        "op_ms_p90": _p90(seconds) * 1e3,
        "ref_ms": ref_s * 1e3,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help=f"rounds divided by {SMOKE_SCALE}, one set-up process (tests)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pingpong_eve", "cli.py")):
        print(f"no pingpong_eve sources under {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(WORK_ROOT, f"{args.workload}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    scale = SMOKE_SCALE if args.smoke else 1
    try:
        setups = []
        if not args.trace:
            for _ in range(1 if args.smoke else SETUP_REPS):
                setup_dir = os.path.join(workdir, "setup")
                os.makedirs(setup_dir, exist_ok=True)
                setups.append(
                    run_worker("setup", args, setup_dir, scale, SETUP_TIMEOUT_S)["setup_s"]
                )
        result = run_worker("run", args, workdir, scale, WORKER_TIMEOUT_S)
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1

    ops = result["ops"]
    failed = sum(not op["ok"] for op in ops)
    wall = None
    if args.trace:
        metrics = result["layers"]
    else:
        ref_s = statistics.fmean(result["ref_samples"])
        metrics = end_to_end(ops, ref_s, setups, result["peak_rss_mb"])
        wall = wall_clock(ops, ref_s)
    report = {
        "provenance": provenance(args, result["package"]),
        "metrics": metrics,
        "wall_clock": wall,
        "op_seconds": [op["s"] for op in ops],
        "ref_seconds": result["ref_samples"],
        "setup_seconds": setups,
    }
    with open(os.path.join(workdir, "result.json"), "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    workload = WORKLOADS[args.workload]
    print(f"# workload {workload.name}: closed loop, one client; {len(ops)} ops timed, "
          f"{failed} failed; {len(setups)} set-up processes")
    print(f"# stresses {workload.stresses}; bypasses {workload.bypasses}")
    if args.trace:
        print(f"# spans: {result['trace_file']}")
    else:
        print("# wall clock " + json.dumps({k: round(v, 3) for k, v in wall.items()}))
    print("# provenance " + json.dumps(report["provenance"], sort_keys=True))
    print(json.dumps(
        {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
