"""The benchmark's workloads: what each one runs, and why.

Every workload is a closed loop with one client in one process: each
command starts only after the previous one returned.  Commands are issued
through ``pingpong_eve.cli.main(argv)`` in-process, so the program sees
only the generated argv.  Every ``--seed`` it receives is derived from the
benchmark seed, so the same benchmark seed gives the same commands.

An op is the unit that is timed, checked and counted.  A cycle is the
shortest sequence of ops that covers every input shape of a workload once;
a run measures whole cycles, so per-op percentiles always see the same mix.
"""

from __future__ import annotations

import dataclasses
import os
import random
from typing import Callable

MC_STATS_SCHEMES = ("improved", "improved-symmetrized", "none", "wojcik-reference")
MC_STATS_ETAS = (0.9, 0.8)
MC_STATS_ROUNDS = 100_000
MC_RECORDS_ROUNDS = 20_000
SETUP_ROUNDS = 100
# Each solve-conventions call and each verify pass classify 576 candidates;
# verify solves twice (census plus determinism re-check).
AUDIT_CANDIDATES_PER_PASS = 3 * 576


@dataclasses.dataclass(frozen=True)
class SimConfig:
    """The inputs of one simulate command that the output checks depend on."""

    scheme: str
    eta: float
    c0: float = 0.5
    control_prob: float = 0.5


@dataclasses.dataclass(frozen=True)
class Op:
    """One timed operation: CLI calls issued back to back.

    ``items`` is the op's unit of work: Monte Carlo rounds for simulate,
    convention candidates classified for an audit pass.
    """

    calls: tuple[tuple[str, ...], ...]
    items: int
    sim: SimConfig | None = None
    seed: int | None = None
    stats_path: str | None = None
    csv_path: str | None = None


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stresses: str
    bypasses: str
    # (rng, workdir, scale) -> the ops of one cycle; scale divides round counts
    cycle: Callable[[random.Random, str, int], list[Op]]
    # (workdir, scale) -> the tiny first calls that fill the program's caches
    setup: Callable[[str, int], list[Op]]


def _simulate_op(
    sim: SimConfig, rounds: int, seed: int, workdir: str, with_csv: bool
) -> Op:
    stats_path = os.path.join(workdir, "stats.json")
    csv_path = os.path.join(workdir, "records.csv") if with_csv else None
    argv = [
        "simulate",
        "--rounds", str(rounds),
        "--scheme", sim.scheme,
        "--eta", repr(sim.eta),
    ]
    if sim.c0 != 0.5:
        argv += ["--c0", repr(sim.c0)]
    argv += ["--seed", str(seed)]
    if csv_path:
        argv += ["--out", csv_path]
    argv += ["--stats", stats_path]
    return Op((tuple(argv),), rounds, sim, seed, stats_path, csv_path)


def _draw_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


MC_STATS_CONFIGS = tuple(
    SimConfig(scheme, eta) for scheme in MC_STATS_SCHEMES for eta in MC_STATS_ETAS
)


def _mc_stats_cycle(rng: random.Random, workdir: str, scale: int) -> list[Op]:
    configs = list(MC_STATS_CONFIGS)
    rng.shuffle(configs)
    return [
        _simulate_op(sim, MC_STATS_ROUNDS // scale, _draw_seed(rng), workdir, False)
        for sim in configs
    ]


def _mc_stats_setup(workdir: str, scale: int) -> list[Op]:
    return [_simulate_op(sim, SETUP_ROUNDS, 1, workdir, False) for sim in MC_STATS_CONFIGS]


MC_RECORDS_CONFIG = SimConfig("improved-symmetrized", 0.8, c0=0.3)


def _mc_records_cycle(rng: random.Random, workdir: str, scale: int) -> list[Op]:
    return [
        _simulate_op(
            MC_RECORDS_CONFIG, MC_RECORDS_ROUNDS // scale, _draw_seed(rng), workdir, True
        )
    ]


def _mc_records_setup(workdir: str, scale: int) -> list[Op]:
    return [_simulate_op(MC_RECORDS_CONFIG, SETUP_ROUNDS, 1, workdir, True)]


def audit_paths(workdir: str) -> dict[str, str]:
    return {
        name: os.path.join(workdir, name)
        for name in ("curve.csv", "report.json", "census.csv")
    }


def _audit_pass(workdir: str) -> Op:
    paths = audit_paths(workdir)
    return Op(
        (
            ("verify",),
            ("analyze", "--scheme", "improved",
             "--curve", paths["curve.csv"], "--report", paths["report.json"]),
            ("analyze", "--scheme", "wojcik"),
            ("solve-conventions", "--out", paths["census.csv"]),
        ),
        AUDIT_CANDIDATES_PER_PASS,
    )


def _audit_cycle(rng: random.Random, workdir: str, scale: int) -> list[Op]:
    # The audit commands take no random input, so the seed changes nothing.
    return [_audit_pass(workdir)]


def _audit_setup(workdir: str, scale: int) -> list[Op]:
    return [_audit_pass(workdir)]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="mc-stats",
            why=(
                "Monte Carlo at 1e5 rounds without --out: the per-round sampler "
                "does about 97% of the work, and rotating all four schemes at "
                "eta 0.9 and 0.8 measures a shared-sampler change on every "
                "scheme it touches."
            ),
            stresses="protocol: round_rng, sample_from, run_round, aggregate",
            bypasses="the CSV writer; engine and attacks (menus are cached at set-up); "
            "conventions, information, verify",
            cycle=_mc_stats_cycle,
            setup=_mc_stats_setup,
        ),
        Workload(
            name="mc-records",
            why=(
                "Monte Carlo at 2e4 rounds with --out and --stats: the same "
                "sampler, plus record materialization and the CSV writer; the "
                "biased prior (c0=0.3) exercises both message bits and the "
                "symmetrization coin, and the smaller call makes per-call costs "
                "show."
            ),
            stresses="protocol: sampler, RoundRecord materialization, write_records_csv",
            bypasses="conventions, information, verify; engine and attacks after set-up",
            cycle=_mc_records_cycle,
            setup=_mc_records_setup,
        ),
        Workload(
            name="exact-audit",
            why=(
                "One audit pass per op: verify, analyze --scheme improved with "
                "curve and report, analyze --scheme wojcik, solve-conventions "
                "--out.  The exact layers do all the work (conventions.solve "
                "three times per pass) and the sampler none."
            ),
            stresses="conventions.solve, verify battery, engine, attacks, information",
            bypasses="protocol sampler and writers (no simulate call)",
            cycle=_audit_cycle,
            setup=_audit_setup,
        ),
    )
}


def workload_rng(workload: str, seed: int) -> random.Random:
    """The generator all of a run's inputs come from."""
    return random.Random(f"pingpong-eve-bench/{workload}/{seed}")
