"""One workload process: set-up, then the closed loop of timed ops.

Run by ``run.py``, never by hand: ``worker.py setup ...`` measures set-up
in a fresh process and ``worker.py run ...`` runs the timed loop.  Both
print one JSON object on their last stdout line.  The program's own stdout
is captured per call, so that line is the only thing this process prints.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
import tracemalloc

from checks import audit_problems, csv_problems, expectation, pooled_problems, simulate_problems
from workloads import WORKLOADS, audit_paths, workload_rng

MAX_PROBLEMS_SHOWN = 20
# Size of the reference work; about 25 ms on a 2-vCPU Xeon virtual machine.
REFERENCE_ITEMS = 12_000
# Before each op the reference work is repeated until it has taken this
# share of the previous op's time, at most REFERENCE_MAX_REPS times, so the
# samples spread over the whole run in proportion to its time.
REFERENCE_SHARE = 0.05
REFERENCE_MAX_REPS = 16


def reference_work(n: int = REFERENCE_ITEMS) -> float:
    """Fixed interpreter work that does not touch the program: tuple keys,
    dict inserts, a sort and a float sum, the same kinds of work the
    program's own Python code does."""
    table = {}
    for i in range(n):
        table[i * 7919 % 10007, i & 7] = i * 0.5
    return sum(value for _, value in sorted(table.items()))


def reference_seconds() -> float:
    """Wall time of one ``reference_work``, with the cyclic collector held
    off so that the program's heap does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_block(budget_s: float) -> list[float]:
    samples = [reference_seconds()]
    while sum(samples) < budget_s and len(samples) < REFERENCE_MAX_REPS:
        samples.append(reference_seconds())
    return samples


def import_cli(src: str):
    """Import ``pingpong_eve.cli`` from ``src`` and nowhere else."""
    sys.path.insert(0, src)
    import pingpong_eve.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"pingpong_eve imported from {cli.__file__}, not from {src}")
    return cli


def run_op(cli, op) -> tuple[float, list]:
    """Issue an op's calls back to back; return summed call time and
    (argv, exit code, stdout) per call."""
    elapsed = 0.0
    results = []
    for argv in op.calls:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            elapsed += time.perf_counter() - start
        results.append((argv, code, out.getvalue()))
    return elapsed, results


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def op_outputs(op, results, workdir: str) -> dict[str, str]:
    """Digest of every output channel of an op: stdout of each call and
    every file it wrote."""
    outputs = {f"stdout:{' '.join(argv[:3])}": hashlib.sha256(out.encode()).hexdigest()
               for argv, _, out in results}
    paths = [op.stats_path, op.csv_path] if op.sim else list(audit_paths(workdir).values())
    outputs.update({os.path.basename(p): _digest(p) for p in paths if p})
    return outputs


class Checker:
    """Checks every op and keeps what the pooled gates and the
    byte-identity check need across ops."""

    def __init__(self, sims, workdir: str) -> None:
        self.workdir = workdir
        self.expectations = {sim: expectation(sim) for sim in sims}
        self.pools = collections.defaultdict(list)  # sim -> [(record, stats)]
        self.first_audit = None

    def check(self, op, results, record: dict, pool: bool = True) -> None:
        problems = [f"{' '.join(argv[:3])} exited {code}" for argv, code, _ in results if code]
        if not problems and op.sim:
            with open(op.stats_path) as handle:
                doc = json.load(handle)
            problems += simulate_problems(
                op.sim, op.items, op.seed, doc, results[0][2], self.expectations[op.sim]
            )
            if op.csv_path:
                problems += csv_problems(op.csv_path, op.items, doc["stats"])
            if pool:
                self.pools[op.sim].append((record, doc["stats"]))
        elif not problems:
            problems += audit_problems(results)
            outputs = op_outputs(op, results, self.workdir)
            if self.first_audit is None:
                self.first_audit = outputs
            problems += [f"{name} differs from the first pass"
                         for name, digest in outputs.items() if self.first_audit[name] != digest]
        record["problems"] += problems

    def pooled(self) -> None:
        for sim, pool in self.pools.items():
            problems = pooled_problems(sim, self.expectations[sim], [s for _, s in pool])
            for record, _ in pool:
                record["problems"] += problems


def _record(op, seconds: float) -> dict:
    return {"s": seconds, "items": op.items, "rounds": op.items if op.sim else 0,
            "problems": []}


def _timed_loop(cli, workload, args, checker, tracer):
    """Run whole cycles for about ``args.seconds``.

    The first cycle always runs; another starts only if, at the pace of the
    last one, it ends within ``args.seconds``.  Untraced, each op is timed
    once, after a block of timed ``reference_work`` whose samples are
    returned.  Traced, each op runs twice with the same argv, with and
    without the tracer, in alternating order; the outputs of the two must
    be identical, and only the untraced copy is pooled.
    """
    rng = workload_rng(workload.name, args.seed)
    records, pairs, traced_records = [], [], []
    ref_samples, last_s = [], 0.0
    csv_bytes = 0
    start = cycle_start = time.perf_counter()
    while True:
        for op in workload.cycle(rng, args.workdir, args.scale):
            if tracer is None:
                ref_samples += reference_block(REFERENCE_SHARE * last_s)
                last_s, results = _guarded(cli, op)
                records.append(_record(op, last_s))
                checker.check(op, results, records[-1])
                continue
            seconds, outputs = {}, {}
            for traced in (False, True) if len(pairs) % 2 == 0 else (True, False):
                seconds[traced], results = _traced(cli, op, tracer) if traced else _guarded(cli, op)
                record = _record(op, seconds[traced])
                records.append(record)
                checker.check(op, results, record, pool=not traced)
                outputs[traced] = record["problems"] or op_outputs(op, results, args.workdir)
                if traced:
                    traced_records.append(record)
            if outputs[True] != outputs[False]:
                records[-1]["problems"].append("traced output differs from untraced output")
            if op.csv_path and os.path.exists(op.csv_path):
                csv_bytes += os.path.getsize(op.csv_path)
            pairs.append((seconds[False], seconds[True]))
        now = time.perf_counter()
        if (now - start) + (now - cycle_start) > args.seconds:
            break
        cycle_start = now
    return records, pairs, traced_records, csv_bytes, ref_samples


def _traced(cli, op, tracer):
    tracer.op_id += 1
    before = tracer.snapshot()
    tracer.install()
    try:
        return _guarded(cli, op)
    finally:
        tracer.uninstall()
        tracer.end_op(before)


def _guarded(cli, op):
    """run_op at the loop boundary: an exception fails the op, not the run."""
    try:
        return run_op(cli, op)
    except Exception:
        traceback.print_exc()
        return 0.0, [(op.calls[0], "exception", "")]


def _bytes_per_round(cli, workload, args) -> float:
    """tracemalloc peak of one op, divided by its rounds."""
    op = workload.cycle(workload_rng(workload.name, args.seed), args.workdir, args.scale)[0]
    if not op.sim:
        return 0.0
    tracemalloc.start()
    try:
        run_op(cli, op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / op.items


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--src", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    setup_ops = workload.setup(args.workdir, args.scale)

    start = time.perf_counter()
    cli = import_cli(args.src)
    if args.mode == "setup":
        for op in setup_ops:
            _, results = run_op(cli, op)
            failed = [argv for argv, code, _ in results if code != 0]
            if failed:
                print(f"set-up call failed: {failed}", file=sys.stderr)
                return 1
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0

    import numpy

    sims = {op.sim for op in workload.cycle(workload_rng(workload.name, 0), args.workdir, 1)}
    checker = Checker(sims - {None}, args.workdir)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    for op in setup_ops:
        run_op(cli, op)
    if tracer:
        tracer.uninstall()
        setup_totals = tracer.snapshot()
    records, pairs, traced_records, csv_bytes, ref_samples = _timed_loop(
        cli, workload, args, checker, tracer
    )
    checker.pooled()
    result = {
        "ops": [{k: r[k] for k in ("s", "items")} | {"ok": not r["problems"]} for r in records],
        "ref_samples": ref_samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "package": {"version": cli.__version__, "numpy": numpy.__version__,
                    "python": sys.version.split()[0]},
    }
    if tracer:
        from tracer import diff, layer_metrics

        timed = diff(tracer.snapshot(), setup_totals)
        result["layers"] = layer_metrics(
            timed,
            setup_totals,
            n_ops=len(traced_records),
            rounds=sum(r["rounds"] for r in traced_records),
            csv_bytes=csv_bytes,
            bytes_per_round=_bytes_per_round(cli, workload, args),
            pairs=pairs,
        )
        result["trace_file"] = os.path.join(args.workdir, "trace.json")
        tracer.write(result["trace_file"])
    problems = [p for r in records for p in r["problems"]]
    for problem in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
