"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest benchmarks

They are outside the package's ``testpaths`` so the package's own suite
does not pay for the smoke runs.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from checks import (  # noqa: E402
    CENSUS_LINE,
    audit_problems,
    csv_problems,
    expectation,
    pooled_problems,
    simulate_problems,
)
from run import END_TO_END_UNITS  # noqa: E402
from tracer import LAYER_UNITS  # noqa: E402
from workloads import MC_RECORDS_CONFIG, WORKLOADS, SimConfig, workload_rng  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def _bench(script: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench(os.path.join(HERE, "run.py"), workload, trace)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0


def test_benchmark_json_names_what_the_harness_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == LAYER_UNITS


def test_inputs_come_from_the_seed():
    def argvs(seed):
        ops = WORKLOADS["mc-stats"].cycle(workload_rng("mc-stats", seed), "w", 1)
        return [op.calls for op in ops]

    assert argvs(1) == argvs(1)
    assert argvs(1) != argvs(2)


def test_no_sources_means_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(str(tmp_path / "benchmarks" / "run.py"), "mc-stats", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


# --- the output checker marks doctored results as failed -------------------------


def _simulate(tmp_path, sim: SimConfig, rounds: int, seed: int, with_csv=False):
    import pingpong_eve.cli as cli

    stats_path = tmp_path / "stats.json"
    csv_path = tmp_path / "records.csv"
    argv = ["simulate", "--rounds", str(rounds), "--scheme", sim.scheme,
            "--eta", repr(sim.eta), "--c0", repr(sim.c0), "--seed", str(seed),
            "--stats", str(stats_path)]
    if with_csv:
        argv += ["--out", str(csv_path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(stats_path.read_text()), out.getvalue(), csv_path


@pytest.mark.parametrize("scheme", ["improved", "improved-symmetrized", "none", "wojcik-reference"])
def test_simulate_check_passes_real_output_and_fails_a_detection(tmp_path, scheme):
    sim = SimConfig(scheme, 0.8)
    doc, stdout, _ = _simulate(tmp_path, sim, 3000, 9)
    exp = expectation(sim)
    assert simulate_problems(sim, 3000, 9, doc, stdout, exp) == []
    doctored = copy.deepcopy(doc)
    doctored["stats"]["n_detection"] = 1
    assert any("detections" in p for p in simulate_problems(sim, 3000, 9, doctored, stdout, exp))


def test_simulate_check_fails_a_round_in_a_forbidden_cell(tmp_path):
    sim = SimConfig("improved", 0.8)
    doc, stdout, _ = _simulate(tmp_path, sim, 3000, 9)
    doc["stats"]["counts_s_off"][0][1][1] += 1  # P(k=1, m=1 | j=0) = 0 without the coin
    doc["stats"]["n_message_attacked"] += 1
    doc["stats"]["n_qber_errors"] += 1
    problems = simulate_problems(sim, 3000, 9, doc, stdout, expectation(sim))
    assert any("forbidden cell" in p for p in problems)


def test_csv_check_fails_a_dropped_row(tmp_path):
    doc, _, csv_path = _simulate(tmp_path, MC_RECORDS_CONFIG, 2000, 4, with_csv=True)
    assert csv_problems(str(csv_path), 2000, doc["stats"]) == []
    lines = csv_path.read_text().splitlines(keepends=True)
    csv_path.write_text("".join(lines[:-1]))
    assert csv_problems(str(csv_path), 2000, doc["stats"])


def test_pooled_gate_passes_real_output_and_fails_a_shifted_loss(tmp_path):
    sim = MC_RECORDS_CONFIG
    stats = [_simulate(tmp_path, sim, 5000, seed)[0]["stats"] for seed in (1, 2)]
    exp = expectation(sim)
    assert pooled_problems(sim, exp, stats) == []
    doctored = copy.deepcopy(stats)
    for entry in doctored:
        entry["n_control_lost"] = int(entry["n_control_lost"] * 1.5)
    assert any("control loss" in p for p in pooled_problems(sim, exp, doctored))


def test_audit_check_passes_a_real_pass_and_fails_a_wrong_census(tmp_path):
    import pingpong_eve.cli as cli

    op = WORKLOADS["exact-audit"].cycle(None, str(tmp_path), 1)[0]
    calls = []
    for argv in op.calls:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        calls.append((argv, code, out.getvalue()))
    assert audit_problems(calls) == []
    argv, code, stdout = calls[-1]
    calls[-1] = (argv, code, stdout.replace(CENSUS_LINE, CENSUS_LINE.replace("216", "215")))
    assert audit_problems(calls)
