"""CLI contract tests: flags, exit codes, metadata, file formats, determinism."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from pingpong_eve import cli, conventions, information, protocol, verify
from pingpong_eve.attacks import ATTACKS, F_KETS, attack_ab, attack_ba
from pingpong_eve.engine import PureState
from pingpong_eve.cli import main
from pingpong_eve.conventions import report_rows, solve

ETA_STAR_IMPROVED = 0.777294010664580
ETA_STAR_WOJCIK = 0.554588021329161


def run_main(argv) -> int:
    return main(argv)


def assert_unwritable_is_usage_error(argv, capsys, path):
    with pytest.raises(SystemExit) as excinfo:
        run_main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage: pingpong-eve" in err
    assert f"error: cannot write {path}" in err


def refuse_work(*args, **kwargs):
    raise AssertionError("output paths must be checked before any work is done")


# --- verify ----------------------------------------------------------------------


def test_verify_passes_and_reports_discrepancy(capsys):
    assert run_main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS outbound-state" in out
    assert "FAIL" not in out
    # the known printed-formula disagreement is reported with both values
    assert "-0.176239" in out
    assert "0.073761" in out
    assert "32/32 checks passed" in out


# SHA-256 of `verify` stdout: every check's detail line, including the printed
# worst-case differences, so a change in the exact engine's rounding shows here.
# The report's header includes the package version.
GOLDEN_VERIFY = "4a3f9ebf8b3337a3c56329ca98db8eb76137b6a6eeecc69940c23a1506aa34fd"


def test_verify_golden_bytes(capsys):
    assert run_main(["verify"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN_VERIFY


# The expected `verify` stdout as text, so that a change which adds or moves
# a check shows its lines as a plain diff of this file.
VERIFY_STDOUT = Path(__file__).resolve().parent / "data" / "verify.stdout"


def test_verify_prints_the_expected_stdout_file(capsys):
    expected = VERIFY_STDOUT.read_bytes()
    assert hashlib.sha256(expected).hexdigest() == GOLDEN_VERIFY
    assert cli.main(["verify"]) == 0
    assert capsys.readouterr().out == expected.decode()


def test_verify_makes_fixed_information_calls_per_call(monkeypatch):
    """One call reads each information value it checks once: the closed
    forms' brute-force references serve the anchors, the mirror symmetry and
    the biased prior.  Every module that binds a counted name is patched, as
    the benchmark's tracer does; the profiles are warmed first, since their
    memo computes their values once per process."""
    counts = dict.fromkeys(("mutual_information", "exact_joint"), 0)
    package = [module for key, module in sys.modules.items() if key.startswith("pingpong_eve")]
    for name in counts:
        original = getattr(information, name)

        def counted(*args, original=original, name=name, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        for module in package:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    verify.improved_profile()
    verify.wojcik_profile()
    for _ in range(2):
        counts.update(dict.fromkeys(counts, 0))
        assert len(verify.run_all_checks()) == 32
        assert counts == {"mutual_information": 75, "exact_joint": 58}


def test_verify_builds_no_security_report(monkeypatch, capsys):
    """verify recomputes its bounds and curve on every call from the
    profiles: it passes with every name of ``security_report`` raising."""

    def no_report(profile):
        raise AssertionError("verify must not build a security report")

    monkeypatch.setattr(cli, "security_report", no_report)
    monkeypatch.setattr(information, "security_report", no_report)
    assert run_main(["verify"]) == 0
    assert "32/32 checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("memo", ["_census", "_analysis"])
def test_verify_never_reads_a_command_memo(monkeypatch, capsys, memo):
    """verify composes its census afresh and renders no curve: it passes
    with every name of either command's memo, in every module of the
    package, raising."""

    def no_memo(*args):
        raise AssertionError(f"verify must not read {memo}")

    target = getattr(cli, memo)
    package = [module for key, module in sys.modules.items() if key.startswith("pingpong_eve")]
    for module in package:
        for name in [name for name, value in vars(module).items() if value is target]:
            monkeypatch.setattr(module, name, no_memo)
    assert run_main(["verify"]) == 0
    assert "32/32 checks passed" in capsys.readouterr().out


def test_verify_solves_twice_while_the_census_memo_is_warm(monkeypatch, capsys):
    cli._census()
    calls = []
    for module in (verify, conventions):
        def counted(original=module.solve):
            calls.append(None)
            return original()

        monkeypatch.setattr(module, "solve", counted)
    for runs in (1, 2):
        assert run_main(["verify"]) == 0
        assert len(calls) == 2 * runs
    capsys.readouterr()


def test_verify_tabulates_each_attack_once_per_call(monkeypatch, capsys):
    """Every call builds each attack's [s, j] stack with one message round,
    and tabulates them afresh with the pinned states, as one (3, 2, 2, 54)
    stack in one call."""
    calls = []
    for name in ("message_amps", "message_outcome_tables"):
        def counted(*args, original=getattr(verify, name), name=name):
            calls.append((name, args))
            return original(*args)

        monkeypatch.setattr(verify, name, counted)
    for runs in (1, 2):
        assert run_main(["verify"]) == 0
        assert [name for name, _ in calls] == [
            "message_amps", "message_amps", "message_outcome_tables"
        ] * runs
        assert [args for name, args in calls if name == "message_amps"] == [
            ("improved",), ("wojcik",)
        ] * runs
    assert [args[0].shape for name, args in calls if name == "message_outcome_tables"] == [
        (3, 2, 2, 54)
    ] * 2
    capsys.readouterr()


def ulp_below(slices):
    """verify's tabulator with the tables of the given slices of its stack
    (0 the improved attack, 1 Wojcik's, 2 the pinned states) one ulp below."""
    tabulate = verify.message_outcome_tables

    def faulty(messages):
        tables = tabulate(messages)
        tables[slices] = np.nextafter(tables[slices], 0)
        return tables

    return faulty


def test_round_trip_stack_equals_the_per_state_loop(monkeypatch):
    # The reference is the loop over single states that the check replaces:
    # the same draws, norms and legs, so every row must match bit for bit.
    calls = {}
    for name in ("outbound_amps", "inbound_amps"):
        def record(amps, kernel=getattr(verify, name), name=name):
            calls[name] = (amps, kernel(amps))
            return calls[name][1]

        monkeypatch.setattr(verify, name, record)
    verify.run_all_checks()
    states, outbound = calls["outbound_amps"]
    assert calls["inbound_amps"][0] is outbound
    returned = calls["inbound_amps"][1]
    rng = np.random.default_rng(20260817)
    for row in range(100):
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        coeffs /= np.linalg.norm(coeffs)
        state = PureState.from_terms(dict(zip(F_KETS, coeffs)))
        assert states[row].tobytes() == state.amps.tobytes()
        assert outbound[row].tobytes() == attack_ba(state).amps.tobytes()
        assert returned[row].tobytes() == attack_ab(attack_ba(state)).amps.tobytes()


def test_verify_fails_a_perturbed_round_trip(monkeypatch, capsys):
    # One returned row off by 1e-9, far inside the norm tolerance of 1e-8.
    inbound_amps = verify.inbound_amps

    def perturbed(amps):
        returned = inbound_amps(amps)
        returned[37, F_KETS[2].index] += 1e-9
        return returned

    monkeypatch.setattr(verify, "inbound_amps", perturbed)
    assert run_main(["verify"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    assert len(failed) == 2
    assert failed[0].startswith("FAIL attack-round-trip: 100 random in-domain states")
    assert failed[1] == "31/32 checks passed, 1 FAILED"


def test_verify_outcome_tables_and_loss_are_exact(monkeypatch, capsys):
    # One ulp below the exact values, an error the size of a float
    # projection's: the checks compare with ==, so each one fails.  Both
    # attacks' tables move, so they still equal each other.
    profile = verify.improved_profile()
    monkeypatch.setattr(verify, "message_outcome_tables", ulp_below(slice(0, 2)))
    below = dataclasses.replace(profile, loss=np.nextafter(profile.loss, 0))
    monkeypatch.setattr(verify, "improved_profile", lambda: below)
    assert run_main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == [
        "FAIL control-no-photon",
        "FAIL plain-outcome-table",
        "FAIL symmetrized-outcome-table",
    ]


def test_verify_fails_equal_control_bits(monkeypatch, capsys):
    # A quarter of the attacked control rounds with t = pol0 and h = 0: the
    # loss stays 1/4, but the control results no longer always differ.
    table, control_outcomes = (0.25, 0.0, 0.25, 0.25, 0.25, 0.0), verify.control_outcomes
    monkeypatch.setattr(
        verify,
        "control_outcomes",
        lambda attack: table if attack == "improved" else control_outcomes(attack),
    )
    assert run_main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL control-anticorrelation: P(equal bits) = 0.25"
    ]


def test_verify_fails_a_reference_attack_off_its_pins(monkeypatch, capsys):
    # One fault at a time in what the reference attack's circuit gives, the
    # improved attack's left as it is: each fails the reference-attack line
    # and no other.
    control_outcomes = verify.control_outcomes

    def reference_control(reference):
        return lambda attack: reference if attack == "wojcik" else control_outcomes(attack)

    faults = [
        # equal control bits on a quarter of the rounds, the loss still 1/2
        ("control_outcomes", reference_control((0.25, 0.25, 0.25, 0.0, 0.25, 0.0))),
        # the improved attack's loss of 1/4 in place of 1/2
        ("control_outcomes", reference_control((0.25, 0.0, 0.0, 0.5, 0.25, 0.0))),
        # message tables one ulp below the improved attack's
        ("message_outcome_tables", ulp_below(1)),
    ]
    for name, fault in faults:
        with monkeypatch.context() as patch:
            patch.setattr(verify, name, fault)
            assert run_main(["verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == [
            "FAIL reference-attack"
        ]


def test_verify_fails_a_census_that_moves_one_deviation(monkeypatch, capsys):
    # The second solve moves one deviation by one ulp, which its 12-digit CSV
    # row does not show: the census must still compare unequal.
    solves = []

    def solve_again():
        reports = solve()
        if solves:
            moved = next(i for i, report in enumerate(reports) if report.deviation)
            deviation = math.nextafter(reports[moved].deviation, math.inf)
            reports[moved] = reports[moved]._replace(deviation=deviation)
            assert report_rows(reports) == report_rows(solves[0])
        solves.append(reports)
        return reports

    monkeypatch.setattr(verify, "solve", solve_again)
    assert run_main(["verify"]) == 1
    assert len(solves) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == [
        "FAIL solver-census"
    ]


def test_verify_refuses_an_unnormalized_round_trip_row(monkeypatch):
    # As a single PureState would: |psi|^2 = 1 + 2e-6 is outside 1e-8.
    inbound_amps = verify.inbound_amps

    def scaled(amps):
        returned = inbound_amps(amps)
        returned[37] *= 1.0 + 1e-6
        return returned

    monkeypatch.setattr(verify, "inbound_amps", scaled)
    with pytest.raises(ValueError, match="not normalized"):
        verify.run_all_checks()


# --- simulate --------------------------------------------------------------------


SIM_ARGS = ["simulate", "--rounds", "2000", "--seed", "7", "--eta", "0.9"]


def test_simulate_outputs_are_byte_identical(tmp_path, capsys):
    paths = []
    for name in ("first", "second"):
        out = tmp_path / f"{name}.csv"
        stats = tmp_path / f"{name}.json"
        assert run_main(SIM_ARGS + ["--out", str(out), "--stats", str(stats)]) == 0
        paths.append((out.read_bytes(), stats.read_bytes()))
    assert paths[0] == paths[1]
    capsys.readouterr()


def test_simulate_records_resolved_fraction(tmp_path, capsys):
    out = tmp_path / "records.csv"
    stats = tmp_path / "stats.json"
    assert run_main(SIM_ARGS + ["--out", str(out), "--stats", str(stats)]) == 0
    console = capsys.readouterr().out
    assert "# resolved_attack_fraction=0.4" in console
    assert "# rng_stream=pcg64-v4" in console.splitlines()
    lines = out.read_text().splitlines()
    assert "# resolved_attack_fraction=0.4" in lines
    assert "# seed=7" in lines
    assert "# rng_stream=pcg64-v4" in lines
    header_at = lines.index(
        "round_index,mode,attacked,j,k,m,alice_t_outcome,bob_h_outcome,"
        "s_applied,photon_lost,detection_event"
    )
    assert len(lines) - header_at - 1 == 2000
    payload = json.loads(stats.read_text())
    assert payload["metadata"]["resolved_attack_fraction"] == 0.4
    assert payload["metadata"]["seed"] == 7
    assert payload["metadata"]["rng_stream"] == "pcg64-v4"
    assert payload["stats"]["n_rounds"] == 2000
    assert "timestamp" not in json.dumps(payload)


# SHA-256 of (stdout, --out CSV, --stats JSON) of `simulate --seed 7 --eta 0.85
# --rounds 2*16384+5` plus the extra flags: the fixed-seed bytes of the
# pcg64-v4 stream, across two chunk edges.  The metadata they
# contain includes the package version.
GOLDEN_SIMULATE = [
    (
        ["--scheme", "none"],
        "b1ee09a8f413cb79d70f75de73418465e0df86824db249d3b5f6c9a55af88a39",
        "6b82542e024a78706f37d0e394635c9340a3caca79c318c45f2e17fa68f9ef28",
        "08047f40daccb2d46137e0ec5da2c921a533e866a1ce0310e6d6ddd0eeaed292",
    ),
    (
        ["--scheme", "improved"],
        "5eb54ecd45bbc3642f1d097b45f84f2d6afaca64f9347e9c83c0353c2e06335a",
        "fe5041f32e7234922131e203d9c1a547b94767e0d2f30dc9bbc129aa6756a962",
        "f1cca97825fc0572253885875c36a4fe5121f5c7501a4fde7460603e0f934162",
    ),
    (
        ["--scheme", "improved-symmetrized"],
        "efbb9b77804f99a7fe222e58476765919d3b64b8a9d7eecb6d7210443b81bc17",
        "7eea073dcf2b95c85cd29d624e1526b3533fdfe2ce1b672f6213b2a36f0036e8",
        "1ce98bd7a07c4238019b4eefa2b77385dd8c8c64a705f05aab3585de686bf657",
    ),
    (
        ["--scheme", "wojcik-reference"],
        "4df72e341f8d714b433a0bd42ef059a6e1a224d1d08f6ceb50a2f284fa986286",
        "cf63c0b10ab5c507a619904d06e3d819ca7a4390091848597d52616d7df3d9cc",
        "ff05377a631ac1f46232a0f5225d93dc05f456eb4199a855564c34809534ae02",
    ),
    (
        ["--scheme", "improved", "--c0", "0.3", "--attack-fraction", "0.4",
         "--control-prob", "0.3"],
        "c29559ac916c3243114eb8602daf1e1b5d8f004765f6d321e4ca7a4c9f49e093",
        "002140444d176c841b4615701747ba4f3be84837ed9b8a19eabb0a3251224710",
        "6b2e9d7891ced53be4a229b68e98b1bc91c4eabaad93c392636a2fdf59c14853",
    ),
]


# Ids that name the settings, not the digests, so that a re-pin keeps them.
@pytest.mark.parametrize(
    "extra, stdout_sha, csv_sha, stats_sha",
    GOLDEN_SIMULATE,
    ids=["none", "improved", "improved-symmetrized", "wojcik-reference", "improved-c0-0.3"],
)
def test_simulate_golden_bytes(tmp_path, capsys, extra, stdout_sha, csv_sha, stats_sha):
    out = tmp_path / "records.csv"
    stats = tmp_path / "stats.json"
    argv = ["simulate", "--seed", "7", "--eta", "0.85", "--rounds", str(2 * 16384 + 5)]
    assert run_main(argv + extra + ["--out", str(out), "--stats", str(stats)]) == 0
    digests = [
        hashlib.sha256(data).hexdigest()
        for data in (capsys.readouterr().out.encode(), out.read_bytes(), stats.read_bytes())
    ]
    assert digests == [stdout_sha, csv_sha, stats_sha]


# SHA-256 of the --out CSV of `simulate --seed 7 --rounds 100001 --scheme
# improved-symmetrized --eta 0.8 --c0 0.3`: round indices of one to six
# digits, the last one 100000, across six chunk edges.
GOLDEN_SIMULATE_CSV_100001 = "623d5a4ed36caa2a0f24c7f324c43b4a94bf925d84d2053310510c79927086b4"


def test_simulate_six_digit_csv_golden_bytes(tmp_path, capsys):
    out = tmp_path / "records.csv"
    argv = ["simulate", "--seed", "7", "--rounds", "100001", "--scheme", "improved-symmetrized",
            "--eta", "0.8", "--c0", "0.3", "--out", str(out)]
    assert run_main(argv) == 0
    capsys.readouterr()
    data = out.read_bytes()
    assert data.endswith(b"\n100000,message,true,0,1,psi_plus,,,true,false,false\r\n")
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SIMULATE_CSV_100001


def test_simulate_usage_errors_exit_2(capsys):
    for argv in (
        ["simulate", "--eta", "1.5", "--rounds", "10"],
        ["simulate", "--rounds", "0"],
        ["simulate", "--attack-fraction", "most"],
        ["simulate", "--scheme", "sneaky"],
        ["simulate", "--no-such-flag"],
        ["no-such-command"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            run_main(argv)
        assert excinfo.value.code == 2
        capsys.readouterr()


def test_seed_env_override(monkeypatch, capsys):
    monkeypatch.setenv("PINGPONG_EVE_SEED", "123")
    assert run_main(["simulate", "--rounds", "50"]) == 0
    assert "# seed=123" in capsys.readouterr().out
    # an explicit flag wins over the environment
    assert run_main(["simulate", "--rounds", "50", "--seed", "9"]) == 0
    assert "# seed=9" in capsys.readouterr().out
    monkeypatch.setenv("PINGPONG_EVE_SEED", "not-a-number")
    with pytest.raises(SystemExit) as excinfo:
        run_main(["simulate", "--rounds", "50"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_negative_seed_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("PINGPONG_EVE_SEED", "-5")
    for argv in (
        ["simulate", "--rounds", "10", "--seed", "-1"],
        ["simulate", "--rounds", "10"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            run_main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage: pingpong-eve" in err
        assert "error: seed must be non-negative" in err


UNWRITABLE = "cannot write {missing}: No such file or directory"
# An argument each command's parser refuses itself.
REFUSED_BY_PARSER = {
    "simulate": ["--eta", "abc"],
    "analyze": ["--scheme", "x"],
    "solve-conventions": ["--out", ""],
}


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["simulate", "--eta", "2"], None, "eta must be in [0, 1], got 2.0"),
        (["simulate", "--seed", "-1"], None, "seed must be non-negative, got -1"),
        (["simulate"], "-5", "seed must be non-negative, got -5"),
        (["simulate"], "abc", "PINGPONG_EVE_SEED must be an integer, got 'abc'"),
        (["simulate", "--stats", "{missing}"], None, UNWRITABLE),
        (["analyze", "--curve", "{missing}"], None, UNWRITABLE),
        (["solve-conventions", "--out", "{missing}"], None, UNWRITABLE),
    ],
    ids=["eta", "seed", "env-seed", "env-malformed", "simulate-out", "analyze-out", "solver-out"],
)
def test_usage_error_in_a_command_prints_its_usage(
    tmp_path, monkeypatch, capsys, argv, env, message
):
    """An error the command finds prints that command's usage, as argparse's
    own errors do, with the message unchanged."""
    monkeypatch.delenv("PINGPONG_EVE_SEED", raising=False)
    with pytest.raises(SystemExit) as excinfo:
        run_main([argv[0], *REFUSED_BY_PARSER[argv[0]]])
    assert excinfo.value.code == 2
    usage = capsys.readouterr().err.split(f"pingpong-eve {argv[0]}: error:")[0]
    assert usage.startswith(f"usage: pingpong-eve {argv[0]} [-h]")
    if env is not None:
        monkeypatch.setenv("PINGPONG_EVE_SEED", env)
    missing = tmp_path / "no-such-dir" / "x"
    with pytest.raises(SystemExit) as excinfo:
        run_main([arg.format(missing=missing) for arg in argv])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = message.format(missing=missing)
    assert captured.err == f"{usage}pingpong-eve {argv[0]}: error: {message}\n"


def test_default_seed_without_env(monkeypatch, capsys):
    monkeypatch.delenv("PINGPONG_EVE_SEED", raising=False)
    assert run_main(["simulate", "--rounds", "50"]) == 0
    assert "# seed=2026" in capsys.readouterr().out


def test_simulate_unwritable_output_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_simulation", refuse_work)
    monkeypatch.setattr(cli, "write_records_csv", refuse_work)
    missing = tmp_path / "no-such-dir" / "x"
    for flag in ("--out", "--stats"):
        argv = ["simulate", "--rounds", "10", flag, str(missing)]
        assert_unwritable_is_usage_error(argv, capsys, missing)
    assert_unwritable_is_usage_error(["simulate", "--out", str(tmp_path)], capsys, tmp_path)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--rounds", "10", "--out", ""],
        ["simulate", "--rounds", "10", "--stats", ""],
        ["analyze", "--curve", ""],
        ["analyze", "--report", ""],
        ["solve-conventions", "--out", ""],
    ],
)
def test_empty_output_path_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    for name in ("run_simulation", "write_records_csv", "_analysis", "_census"):
        monkeypatch.setattr(cli, name, refuse_work)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        run_main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {argv[-2]}: expected a file path, got ''" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_outputs_naming_one_file_are_usage_error(tmp_path, monkeypatch, capsys):
    for name in ("run_simulation", "write_records_csv", "_analysis"):
        monkeypatch.setattr(cli, name, refuse_work)
    monkeypatch.chdir(tmp_path)
    for argv in (
        ["simulate", "--rounds", "10", "--out", "x", "--stats", "./x"],
        ["analyze", "--curve", "x", "--report", "./x"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            run_main(argv)
        assert excinfo.value.code == 2
        assert "error: x and ./x are the same file" in capsys.readouterr().err
    # Only a regular file is refused: both outputs may go to the null device,
    # which is written but never cut to length.
    monkeypatch.undo()
    for argv in (
        ["simulate", "--rounds", "10", "--out", os.devnull, "--stats", os.devnull],
        ["analyze", "--curve", os.devnull, "--report", os.devnull],
        ["solve-conventions", "--out", os.devnull],
    ):
        assert run_main(argv) == 0
    capsys.readouterr()


STDOUT = "/dev/stdout"
STDOUT_OUTPUTS = pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--rounds", "5", "--out", STDOUT],
        ["simulate", "--rounds", "5", "--stats", STDOUT],
        ["analyze", "--report", STDOUT],
        ["solve-conventions", "--out", STDOUT],
    ],
    ids=["simulate-out", "simulate-stats", "analyze-report", "solver-out"],
)


@pytest.mark.skipif(not os.path.exists(STDOUT), reason="needs /dev/stdout")
@STDOUT_OUTPUTS
@pytest.mark.parametrize("mode", ["wb", "ab"], ids=["new", "appended"])
def test_output_on_stdouts_regular_file_is_usage_error(tmp_path, argv, mode):
    # Opened anew, the output would write from the file's start over what
    # stdout writes there (under >> too): stdout's own file is refused.
    log = tmp_path / "log.txt"
    log.write_bytes(b"earlier line\n")
    with open(log, mode) as stdout:
        result = subprocess.run(
            [sys.executable, "-m", "pingpong_eve.cli", *argv],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    assert result.returncode == 2
    assert result.stderr.endswith(f"error: {STDOUT} and standard output are the same file\n")
    assert "Traceback" not in result.stderr
    assert log.read_bytes() == (b"" if mode == "wb" else b"earlier line\n")


@pytest.mark.skipif(not os.path.exists(STDOUT), reason="needs /dev/stdout")
@STDOUT_OUTPUTS
def test_output_on_a_stdout_pipe_is_written(argv):
    # A pipe has no start to write over: the output and stdout's summary
    # both reach it, in the order they are written.
    result = subprocess.run(
        [sys.executable, "-m", "pingpong_eve.cli", *argv],
        capture_output=True,
        timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout


def test_refused_command_keeps_existing_files(tmp_path, monkeypatch, capsys):
    for name in ("run_simulation", "write_records_csv", "_analysis"):
        monkeypatch.setattr(cli, name, refuse_work)
    monkeypatch.chdir(tmp_path)
    data = b"round_index,mode\n0,control\n"
    Path("results.csv").write_bytes(data)
    missing = tmp_path / "missing" / "x.json"
    # an unwritable second output, then two outputs naming one file
    assert_unwritable_is_usage_error(
        ["simulate", "--rounds", "10", "--out", "results.csv", "--stats", str(missing)],
        capsys,
        missing,
    )
    assert Path("results.csv").read_bytes() == data
    for argv in (
        ["simulate", "--rounds", "10", "--out", "results.csv", "--stats", "./results.csv"],
        ["analyze", "--curve", "results.csv", "--report", "./results.csv"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            run_main(argv)
        assert excinfo.value.code == 2
        assert "are the same file" in capsys.readouterr().err
        assert Path("results.csv").read_bytes() == data


def test_refused_command_removes_only_the_files_it_created(tmp_path, monkeypatch, capsys):
    for name in ("run_simulation", "write_records_csv"):
        monkeypatch.setattr(cli, name, refuse_work)
    monkeypatch.chdir(tmp_path)
    missing = Path("missing") / "x.json"
    assert_unwritable_is_usage_error(
        ["simulate", "--rounds", "10", "--out", "new.csv", "--stats", str(missing)],
        capsys,
        missing,
    )
    assert not Path("new.csv").exists()
    with pytest.raises(SystemExit) as excinfo:
        run_main(["simulate", "--rounds", "10", "--out", "x", "--stats", "./x"])
    assert excinfo.value.code == 2
    assert "are the same file" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("second", ["unwritable", "same-file"])
def test_refused_command_removes_a_dangling_links_new_target(tmp_path, second):
    # Opening a dangling symlink creates its target: a refused command
    # removes that file and leaves the link as it was.
    link, target = tmp_path / "link", tmp_path / "target.csv"
    link.symlink_to("target.csv")
    other = tmp_path / "missing" / "x.json" if second == "unwritable" else target
    result = subprocess.run(
        [sys.executable, "-m", "pingpong_eve.cli", "simulate", "--rounds", "10",
         "--out", str(link), "--stats", str(other)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout) == (2, "")
    expected = f"cannot write {other}" if second == "unwritable" else "are the same file"
    assert expected in result.stderr and "Traceback" not in result.stderr
    assert not os.path.lexists(target)
    assert os.readlink(link) == "target.csv"
    assert sorted(tmp_path.iterdir()) == [link]


def test_simulate_out_opens_the_stream_once(tmp_path, monkeypatch, capsys):
    starts, requests = [], []
    open_stream = protocol.round_rng

    class Counted:
        def __init__(self, stream):
            self.stream = stream

        def random_raw(self, size):
            requests.append(size)
            return self.stream.random_raw(size)

    def counted(seed, start):
        starts.append(start)
        return Counted(open_stream(seed, start))

    monkeypatch.setattr(protocol, "round_rng", counted)
    out, stats = tmp_path / "rounds.csv", tmp_path / "stats.json"
    assert run_main(["simulate", "--rounds", "20000", "--out", str(out), "--stats", str(stats)]) == 0
    capsys.readouterr()
    assert starts == [0]
    assert requests == [16384, 3616]


# --- analyze ---------------------------------------------------------------------


def parse_curve(path):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith("eta,"):
            continue
        rows.append(tuple(float(f) for f in line.split(",")))
    return rows


def test_analyze_improved_files(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    report = tmp_path / "report.json"
    assert run_main(
        ["analyze", "--scheme", "improved", "--curve", str(curve), "--report", str(report)]
    ) == 0
    capsys.readouterr()
    payload = json.loads(report.read_text())
    assert abs(payload["eta_star"] - 0.777297) < 1e-4
    assert abs(payload["mu_star"] - 0.890812) < 1e-4
    assert payload["full_attack_edge"] == 0.75
    assert payload["scheme"] == "improved"
    assert set(payload) == {"scheme", "full_attack_edge", "eta_star", "mu_star", "metadata"}

    lines = curve.read_text().splitlines()
    header_at = lines.index("eta,mu,i_ae,i_ab,i_be")
    data = lines[header_at + 1 :]
    assert len(data) == 101
    for field in data[0].split(","):
        whole, frac = field.split(".")
        assert len(frac) == 9
    rows = parse_curve(curve)
    # crossing bracketed between consecutive grid points around eta_star
    signs = [(eta, i_ae - i_ab) for eta, _, i_ae, i_ab, _ in rows]
    brackets = [
        (a[0], b[0]) for a, b in zip(signs, signs[1:]) if a[1] >= 0.0 > b[1]
    ]
    assert brackets == [(0.77, 0.78)]
    assert brackets[0][0] <= payload["eta_star"] <= brackets[0][1]


def test_analyze_wojcik_bound(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert run_main(["analyze", "--scheme", "wojcik", "--report", str(report)]) == 0
    capsys.readouterr()
    payload = json.loads(report.read_text())
    assert abs(payload["eta_star"] - 0.554594) < 1e-4
    assert payload["full_attack_edge"] == 0.5


def test_analyze_stdout_summary(capsys):
    assert run_main(["analyze"]) == 0
    out = capsys.readouterr().out
    assert "eta*=0.777294010" in out
    assert "mu*=0.890823957" in out


def test_analyze_curve_deterministic(tmp_path, capsys):
    blobs = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.csv"
        assert run_main(["analyze", "--curve", str(path)]) == 0
        blobs.append(path.read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1]


# SHA-256 of (stdout, --curve CSV, --report JSON) of `analyze --scheme S`.  The
# metadata they contain includes the package version.
GOLDEN_ANALYZE = [
    (
        "improved",
        "c653d20dae681efc04671cf95ac4f0d78c40d64c3752d6672f33bfaedb57ce1e",
        "0bedcb8d9648eb04b77c74d6aef3c8accdbecf4c376d86f38318308a41e19ecb",
        "82a133d396cf3af3a0f6357139097ca81719c896b0d739672fa7db5655538d97",
    ),
    (
        "wojcik",
        "92e8905de3676ef38fa22fd04a0f5b20707fc8e0367ee5eb2df051f3e2f0e5ae",
        "d56ea35e4226bfc5c3cdf036db429659228962361341750f90bc97e8e793ab54",
        "3d4e1b427c99ac72311d7f824d3654a3f90b41bf7729b83c0c549a6e626d998b",
    ),
]


# Ids that name the scheme, not the digests, so that a re-pin keeps them.
@pytest.mark.parametrize(
    "scheme, stdout_sha, curve_sha, report_sha", GOLDEN_ANALYZE, ids=["improved", "wojcik"]
)
def test_analyze_golden_bytes(tmp_path, capsys, scheme, stdout_sha, curve_sha, report_sha):
    curve = tmp_path / "curve.csv"
    report = tmp_path / "report.json"
    argv = ["analyze", "--scheme", scheme, "--curve", str(curve), "--report", str(report)]
    assert run_main(argv) == 0
    digests = [
        hashlib.sha256(data).hexdigest()
        for data in (capsys.readouterr().out.encode(), curve.read_bytes(), report.read_bytes())
    ]
    assert digests == [stdout_sha, curve_sha, report_sha]


@pytest.mark.usefixtures("fresh_memos")
def test_analyze_renders_each_curve_once_per_process(tmp_path, monkeypatch, capsys):
    """Repeated analyze --curve calls, in either order of the schemes, render
    each report's curve once and write the same bytes every time."""
    rendered = []

    def counted(report, metadata, render=cli._curve_lines):
        rendered.append(report.scheme)
        return render(report, metadata)

    monkeypatch.setattr(cli, "_curve_lines", counted)
    curves = {}
    for order in (("improved", "wojcik"), ("wojcik", "improved"), ("improved", "wojcik")):
        for scheme in order:
            path = tmp_path / f"{scheme}.csv"
            assert run_main(["analyze", "--scheme", scheme, "--curve", str(path)]) == 0
            assert curves.setdefault(scheme, path.read_bytes()) == path.read_bytes()
    capsys.readouterr()
    assert sorted(rendered) == ["improved", "wojcik"]
    digests = {scheme: curve_sha for scheme, _, curve_sha, _ in GOLDEN_ANALYZE}
    assert {scheme: hashlib.sha256(curve).hexdigest() for scheme, curve in curves.items()} == (
        digests
    )


@pytest.mark.usefixtures("fresh_memos")
def test_analysis_memo_is_a_fresh_render_per_scheme():
    """Each scheme's outputs are rendered once, equal a render made anew,
    and are immutable, so every call can write them; the memo holds one
    entry per scheme, in either order of the calls."""
    for order in (("improved", "wojcik"), ("wojcik", "improved")):
        for scheme in order:
            memo = cli._analysis(scheme)
            assert cli._analysis(scheme) is memo
            assert memo == cli._analysis.__wrapped__(scheme)
            assert [type(part) for part in memo] == [bytes, bytes, str]
            report = information.security_report(cli.attack_profile(scheme))
            fresh = "\n".join(cli._curve_lines(report, cli._analyze_metadata(report))) + "\n"
            assert memo[0] == fresh.encode()
    info = cli._analysis.cache_info()
    assert (info.maxsize, info.misses, info.currsize) == (None, 2, len(ATTACKS))


def test_analyze_unwritable_output_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_analysis", refuse_work)
    missing = tmp_path / "no-such-dir" / "c.csv"
    for flag in ("--curve", "--report"):
        assert_unwritable_is_usage_error(["analyze", flag, str(missing)], capsys, missing)


# --- solve-conventions -----------------------------------------------------------


def test_solver_csv_and_summary(tmp_path, capsys):
    path = tmp_path / "candidates.csv"
    assert run_main(["solve-conventions", "--out", str(path)]) == 0
    out = capsys.readouterr().out
    assert "candidates=576" in out
    assert "matches=0" in out
    assert "mismatches=216" in out
    assert "invalid=360" in out
    lines = path.read_text().splitlines()
    header_at = lines.index(
        "candidate_id,sigma0,sigma1,flip0,flip1,control_position,active_on,status,deviation"
    )
    assert len(lines) - header_at - 1 == 576
    # deterministic re-emission
    path2 = tmp_path / "again.csv"
    assert run_main(["solve-conventions", "--out", str(path2)]) == 0
    capsys.readouterr()
    assert path.read_text().replace("again", "") == path2.read_text().replace("again", "")


def test_solver_stdout_rows(capsys):
    assert run_main(["solve-conventions"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("candidate_id,")
    assert len(lines) == 1 + 576


# SHA-256 of `solve-conventions` stdout: the full census CSV, every deviation
# printed to 12 significant digits.
GOLDEN_SOLVER = "67c8c378a216a01301f9b1d0d9fcfd1160a7fe1c7ff2cf939256f79ae74df97d"


def test_solver_golden_bytes(capsys):
    assert run_main(["solve-conventions"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN_SOLVER


@pytest.mark.usefixtures("fresh_memos")
def test_solver_composes_the_census_once_per_process(tmp_path, monkeypatch, capsys):
    """Repeated solve-conventions calls, to a file and to stdout, compose the
    census with one solve() and print the same bytes every time."""
    calls = []

    def counted():
        calls.append(None)
        return solve()

    monkeypatch.setattr(cli, "solve", counted)
    outputs = []
    for rep in range(3):
        path = tmp_path / f"census-{rep}.csv"
        assert run_main(["solve-conventions", "--out", str(path)]) == 0
        summary = capsys.readouterr().out
        assert run_main(["solve-conventions"]) == 0
        outputs.append((path.read_bytes(), summary, capsys.readouterr().out))
    assert len(calls) == 1
    assert outputs[1:] == outputs[:1] * 2
    assert hashlib.sha256(outputs[0][2].encode()).hexdigest() == GOLDEN_SOLVER


def test_solver_unwritable_output_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_census", refuse_work)
    missing = tmp_path / "no-such-dir" / "census.csv"
    assert_unwritable_is_usage_error(["solve-conventions", "--out", str(missing)], capsys, missing)


# --- rewriting existing outputs --------------------------------------------------

# An output is rewritten in place and cut to length, so a stale file at its
# path, longer or shorter than the output, leaves no byte behind.
LONGER, SHORTER = 2_000_000, 100
STALE_SIZES = pytest.mark.parametrize("size", [LONGER, SHORTER], ids=["longer", "shorter"])


def write_stale(size, *paths):
    for path in paths:
        Path(path).write_bytes((b"stale,row\n" * (size // 10 + 1))[:size])


def sha256_of(*blobs):
    return [hashlib.sha256(blob).hexdigest() for blob in blobs]


@STALE_SIZES
def test_simulate_rewrites_stale_outputs(tmp_path, capsys, size):
    extra, stdout_sha, csv_sha, stats_sha = GOLDEN_SIMULATE[1]
    out, stats = tmp_path / "records.csv", tmp_path / "stats.json"
    write_stale(size, out, stats)
    argv = ["simulate", "--seed", "7", "--eta", "0.85", "--rounds", str(2 * 16384 + 5)]
    assert run_main(argv + extra + ["--out", str(out), "--stats", str(stats)]) == 0
    blobs = capsys.readouterr().out.encode(), out.read_bytes(), stats.read_bytes()
    assert sha256_of(*blobs) == [stdout_sha, csv_sha, stats_sha]
    assert all(SHORTER < len(blob) < LONGER for blob in blobs[1:])


def test_simulate_out_rewrites_a_longer_run(tmp_path, capsys):
    argv = ["simulate", "--seed", "7", "--scheme", "improved-symmetrized",
            "--eta", "0.8", "--c0", "0.3", "--out"]
    records, fresh = tmp_path / "records.csv", tmp_path / "fresh.csv"
    assert run_main(argv + [str(records), "--rounds", "100001"]) == 0
    assert run_main(argv + [str(records), "--rounds", "7"]) == 0
    assert run_main(argv + [str(fresh), "--rounds", "7"]) == 0
    capsys.readouterr()
    assert records.read_bytes() == fresh.read_bytes()


def test_simulate_out_is_the_writers_bytes(tmp_path, monkeypatch, capsys):
    # The CLI only opens and cuts the file: write_records_csv into a BytesIO
    # gives every byte that simulate --out leaves over a longer stale file.
    config = protocol.ProtocolConfig(
        rounds=16384 + 5, seed=7, scheme="improved-symmetrized", eta=0.8, c0=0.3
    )
    passed = []

    def record(run_config, handle, metadata):
        passed.append((run_config, metadata))
        return protocol.write_records_csv(run_config, handle, metadata)

    monkeypatch.setattr(cli, "write_records_csv", record)
    out = tmp_path / "records.csv"
    write_stale(LONGER, out)
    argv = ["simulate", "--seed", "7", "--scheme", "improved-symmetrized", "--eta", "0.8",
            "--c0", "0.3", "--rounds", str(config.rounds), "--out", str(out)]
    assert run_main(argv) == 0
    capsys.readouterr()
    [(cli_config, metadata)] = passed
    assert cli_config == config
    handle = io.BytesIO()
    protocol.write_records_csv(config, handle, metadata)
    assert handle.getvalue() == out.read_bytes()


@STALE_SIZES
def test_analyze_rewrites_stale_outputs(tmp_path, capsys, size):
    scheme, stdout_sha, curve_sha, report_sha = GOLDEN_ANALYZE[0]
    curve, report = tmp_path / "curve.csv", tmp_path / "report.json"
    write_stale(size, curve, report)
    argv = ["analyze", "--scheme", scheme, "--curve", str(curve), "--report", str(report)]
    assert run_main(argv) == 0
    blobs = capsys.readouterr().out.encode(), curve.read_bytes(), report.read_bytes()
    assert sha256_of(*blobs) == [stdout_sha, curve_sha, report_sha]
    assert all(SHORTER < len(blob) < LONGER for blob in blobs[1:])


@STALE_SIZES
def test_solver_rewrites_a_stale_census(tmp_path, capsys, size):
    census, fresh = tmp_path / "census.csv", tmp_path / "fresh.csv"
    write_stale(size, census)
    assert run_main(["solve-conventions", "--out", str(census)]) == 0
    stdout = capsys.readouterr().out
    assert run_main(["solve-conventions", "--out", str(fresh)]) == 0
    assert capsys.readouterr().out == stdout
    assert census.read_bytes() == fresh.read_bytes()
    assert SHORTER < len(fresh.read_bytes()) < LONGER


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_solver_writes_its_census_to_a_pipe(tmp_path, capsys):
    # A pipe is written as it is: it cannot be cut, nor its position read.
    fresh = tmp_path / "census.csv"
    assert run_main(["solve-conventions", "--out", str(fresh)]) == 0
    read_end, write_end = os.pipe()
    received = []
    with os.fdopen(read_end, "rb") as pipe:
        reader = threading.Thread(target=lambda: received.append(pipe.read()))
        reader.start()
        try:
            assert run_main(["solve-conventions", "--out", f"/dev/fd/{write_end}"]) == 0
        finally:
            os.close(write_end)
            reader.join(timeout=60)
    assert not reader.is_alive()
    capsys.readouterr()
    assert received == [fresh.read_bytes()]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_simulate_writes_its_stats_whole_to_a_named_pipe(tmp_path, capsys):
    # Each output is opened once, so a named pipe's one reader, which reads
    # to the first EOF, gets every byte; a second open would wait for a
    # reader that has gone, hence the timeout.
    fifo, regular = tmp_path / "stats.fifo", tmp_path / "stats.json"
    os.mkfifo(fifo)
    received = []

    def read_once():
        with open(fifo, "rb") as pipe:
            received.append(pipe.read())

    reader = threading.Thread(target=read_once, daemon=True)
    reader.start()
    argv = ["simulate", "--rounds", "10", "--stats"]
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pingpong_eve.cli", *argv, str(fifo)],
            capture_output=True,
            timeout=60,
        )
    finally:
        if reader.is_alive():
            # A reader still waiting for a writer gets EOF from this one.
            with contextlib.suppress(OSError):
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=60)
    assert (result.returncode, result.stderr) == (0, b"")
    assert run_main([*argv, str(regular)]) == 0
    assert capsys.readouterr().out.encode() == result.stdout
    assert received == [regular.read_bytes()]


def test_short_writes_still_write_every_byte(tmp_path, monkeypatch, capsys):
    # The output layer writes with os.write and sends what a short write
    # left over; here no call writes more than 1000 bytes.
    write, short = os.write, []

    def write_at_most_1000(fd, data):
        if len(data) > 1000:
            short.append(len(data))
        return write(fd, data[:1000])

    monkeypatch.setattr(os, "write", write_at_most_1000)
    extra, stdout_sha, csv_sha, stats_sha = GOLDEN_SIMULATE[1]
    out, stats = tmp_path / "records.csv", tmp_path / "stats.json"
    argv = ["simulate", "--seed", "7", "--eta", "0.85", "--rounds", str(2 * 16384 + 5)]
    assert run_main(argv + extra + ["--out", str(out), "--stats", str(stats)]) == 0
    monkeypatch.undo()
    blobs = capsys.readouterr().out.encode(), out.read_bytes(), stats.read_bytes()
    assert sha256_of(*blobs) == [stdout_sha, csv_sha, stats_sha]
    assert short  # the writes did fall short, and were sent again


# A command that raises once its checks have passed, even by Ctrl-C, empties
# every output, so no previous run's bytes are left behind.
FAILURES = pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])


def failing(error):
    def fail(*args, **kwargs):
        raise error("failed after the output checks")

    return fail


@FAILURES
def test_failed_simulate_empties_its_outputs(tmp_path, monkeypatch, capsys, error):
    out, stats = tmp_path / "records.csv", tmp_path / "stats.json"
    write_stale(LONGER, out, stats)
    windows = []
    body = protocol._window_body

    def fail_after_the_first_window(*args):
        windows.append(args)
        if len(windows) > 1:
            raise error("failed after the first window")
        return body(*args)

    monkeypatch.setattr(protocol, "_window_body", fail_after_the_first_window)
    with pytest.raises(error):
        run_main(["simulate", "--rounds", "5000", "--out", str(out), "--stats", str(stats)])
    capsys.readouterr()
    assert len(windows) == 2
    assert out.read_bytes() == b"" and stats.read_bytes() == b""


@FAILURES
def test_failed_analyze_empties_its_outputs(tmp_path, monkeypatch, capsys, error):
    monkeypatch.setattr(cli, "_analysis", failing(error))
    curve, report = tmp_path / "curve.csv", tmp_path / "report.json"
    write_stale(LONGER, curve, report)
    with pytest.raises(error):
        run_main(["analyze", "--curve", str(curve), "--report", str(report)])
    assert capsys.readouterr().out == ""
    assert curve.read_bytes() == b"" and report.read_bytes() == b""


@FAILURES
def test_failed_solver_empties_its_census(tmp_path, monkeypatch, capsys, error):
    monkeypatch.setattr(cli, "_census", failing(error))
    census = tmp_path / "census.csv"
    write_stale(LONGER, census)
    with pytest.raises(error):
        run_main(["solve-conventions", "--out", str(census)])
    assert census.read_bytes() == b""
    # The null device cannot be emptied; the command's own error still goes on.
    with pytest.raises(error):
        run_main(["solve-conventions", "--out", os.devnull])
    assert capsys.readouterr().out == ""


# A write that fails once the checks have passed, here on the full device,
# empties every output like any failure, and then ends the command with one
# line on stderr and exit code 1 instead of a traceback.
FULL = "/dev/full"
NEEDS_FULL = pytest.mark.skipif(not os.path.exists(FULL), reason="needs /dev/full")
WRITE_FAILED = f"pingpong-eve: error: cannot write {FULL}: No space left on device\n"


@NEEDS_FULL
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--rounds", "5000", "--out", FULL, "--stats", "{other}"],
        ["simulate", "--rounds", "5000", "--out", "{other}", "--stats", FULL],
        ["analyze", "--curve", FULL, "--report", "{other}"],
        ["analyze", "--scheme", "wojcik", "--curve", "{other}", "--report", FULL],
        ["solve-conventions", "--out", FULL],
    ],
    ids=["simulate-out", "simulate-stats", "analyze-curve", "analyze-report", "solver-out"],
)
def test_failed_write_is_one_line_and_exit_1(tmp_path, capsys, argv):
    other = tmp_path / "other.out"
    write_stale(LONGER, other)
    with pytest.raises(SystemExit) as excinfo:
        run_main([arg.format(other=other) for arg in argv])
    assert excinfo.value.code == 1
    captured = capsys.readouterr()
    assert captured.err == WRITE_FAILED
    if "{other}" in argv:
        assert other.read_bytes() == b""
    if argv[0] == "solve-conventions":
        assert captured.out == ""


@NEEDS_FULL
def test_failed_write_prints_no_traceback():
    result = subprocess.run(
        [sys.executable, "-m", "pingpong_eve.cli", "solve-conventions", "--out", FULL],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr == WRITE_FAILED


# A closed stdout, as under `| head -1`, fails the command with exit code 1
# and nothing on stderr; its named outputs are emptied as for any failure.
# The read end of stdout's pipe is closed before the command starts, so its
# first write fails whether stdout is buffered or not.
@pytest.mark.parametrize(
    "argv, buffered",
    [
        (["solve-conventions"], True),
        (["simulate", "--rounds", "10"], False),
        (["verify"], True),
        (["solve-conventions", "--out", "{out}"], True),
    ],
    ids=["solver", "simulate-unbuffered", "verify", "solver-out"],
)
def test_closed_stdout_exits_1_without_a_word(tmp_path, argv, buffered):
    out = tmp_path / "out"
    if "{out}" in argv:
        write_stale(LONGER, out)
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pingpong_eve.cli", *(a.format(out=out) for a in argv)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (1, b"")
    if "{out}" in argv:
        assert out.read_bytes() == b""


# --- README ----------------------------------------------------------------------


def test_readme_numbers_match_the_cli(capsys):
    # Every physics figure of README's "Numbers worth knowing", in the order
    # the text gives them, against the verify and analyze stdout rounded to
    # the digits README prints.  Timings there are not checked.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Numbers worth knowing\n")[1].split("\n## ")[0]
    figures = re.findall(r"-?\d+\.\d{6}|1/4", section)
    stdout = {}
    for command in (["verify"], *(["analyze", "--scheme", s] for s in ("improved", "wojcik"))):
        assert run_main(command) == 0
        stdout[command[-1]] = capsys.readouterr().out
    sources = [
        ("verify", r"I_AE = I_AB = (\S+) "),
        ("verify", r"I_BE = (\S+) "),
        ("verify", r"mixture I_AB = (\S+) "),
        ("verify", r"QBER = (\S+),"),
        ("verify", r"P\(no photon\) = (\S+),"),
        ("improved", r"insecure below eta\*=(\S+) "),
        ("wojcik", r"insecure below eta\*=(\S+) "),
        ("verify", r"printed form gives (\S+),"),
        ("verify", r"brute force gives (\S+),"),
    ]
    assert len(figures) == len(sources)
    for figure, (command, pattern) in zip(figures, sources):
        value = float(re.search(pattern, stdout[command])[1])
        if figure == "1/4":
            assert value == 0.25, pattern
        else:
            assert f"{value:.{len(figure.split('.')[1])}f}" == figure, pattern


def test_readme_names_the_rng_stream():
    # README quotes the metadata line that names the stream; a stream that
    # moves without README saying so fails here.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert re.findall(r"`# rng_stream=([^`]*)`", readme) == [protocol.RNG_STREAM]


# --- packaging -------------------------------------------------------------------


def test_module_entry_point_version():
    result = subprocess.run(
        [sys.executable, "-m", "pingpong_eve.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "0.1.0"


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SUBCOMMANDS = ("verify", "simulate", "analyze", "solve-conventions")


def _declared_console_scripts() -> dict[str, str]:
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"].get("scripts", {})


def _assert_help_output(result):
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: pingpong-eve ")
    for sub in SUBCOMMANDS:
        assert sub in result.stdout


def test_console_script_help():
    # Check the [project.scripts] declaration and its target from the source
    # tree, then run the target the way the generated wrapper script does, so
    # this holds whether or not the package is installed.
    target = _declared_console_scripts().get("pingpong-eve")
    assert target == "pingpong_eve.cli:main"
    module_name, attr = target.split(":")
    module = importlib.import_module(module_name)
    assert getattr(module, attr) is main
    wrapper = f"import sys; from {module_name} import {attr}; sys.exit({attr}())"
    result = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"],
        capture_output=True,
        text=True,
    )
    _assert_help_output(result)


@pytest.mark.skipif(
    shutil.which("pingpong-eve") is None,
    reason="pingpong-eve console script is not installed on PATH",
)
def test_installed_console_script_help():
    result = subprocess.run(
        ["pingpong-eve", "--help"], capture_output=True, text=True
    )
    _assert_help_output(result)
