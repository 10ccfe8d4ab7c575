"""Command-line front end: verify, simulate, analyze, solve-conventions.

Outputs are plain CSV/JSON with an embedded metadata block (config echo,
seed, version) and no timestamps, so identical invocations produce
byte-identical files.  Exit codes: 0 success, 1 check failure or failed
write (a closed stdout too), 2 usage error.  The only environment hook is PINGPONG_EVE_SEED,
which overrides the default simulation seed when --seed is not given.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
from functools import lru_cache
from typing import Iterator

from . import __version__
from .attacks import improved_profile, wojcik_profile
from .conventions import CSV_HEADER, report_rows, solve, summarize
from .information import CurvePoint, SecurityReport, security_report
from .protocol import (
    RNG_STREAM,
    SCHEMES,
    ProtocolConfig,
    metadata_lines,
    open_output,
    run_simulation,
    write_records_csv,
)

DEFAULT_SEED = 2026
SEED_ENV_VAR = "PINGPONG_EVE_SEED"

ANALYZE_PROFILES = {"improved": improved_profile, "wojcik": wojcik_profile}


def _attack_fraction_arg(text: str):
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'auto', got {text!r}")


def _output_path(text: str) -> str:
    # An empty path would be skipped as an absent output, not refused.
    if not text:
        raise argparse.ArgumentTypeError("expected a file path, got ''")
    return text


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="pingpong-eve",
        description=(
            "Exact-state simulation and security analysis of an eavesdropping "
            "attack on the ping-pong protocol"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("verify", help="run every pinned-value self-check")

    simulate = sub.add_parser("simulate", help="Monte Carlo protocol run")
    simulate.add_argument("--scheme", choices=SCHEMES, default="improved")
    simulate.add_argument("--eta", type=float, default=1.0,
                          help="channel transmission efficiency")
    simulate.add_argument("--c0", type=float, default=0.5,
                          help="prior probability of message bit 0")
    simulate.add_argument("--control-prob", type=float, default=0.5,
                          help="probability a round is a control round")
    simulate.add_argument("--rounds", type=int, default=100000)
    simulate.add_argument("--seed", type=int, default=None,
                          help=f"RNG seed (default {DEFAULT_SEED}, or ${SEED_ENV_VAR})")
    simulate.add_argument("--attack-fraction", type=_attack_fraction_arg,
                          default="auto", metavar="FRACTION|auto")
    simulate.add_argument("--out", metavar="PATH", type=_output_path,
                          help="write per-round records CSV here")
    simulate.add_argument("--stats", metavar="PATH", type=_output_path,
                          help="write aggregate statistics JSON here")

    analyze = sub.add_parser("analyze", help="information curves and bounds")
    analyze.add_argument("--scheme", choices=sorted(ANALYZE_PROFILES), default="improved")
    analyze.add_argument("--curve", metavar="PATH", type=_output_path,
                         help="write the eta curve CSV here")
    analyze.add_argument("--report", metavar="PATH", type=_output_path,
                         help="write the security report JSON here")

    solver = sub.add_parser("solve-conventions",
                            help="enumerate gate-semantics candidates")
    solver.add_argument("--out", metavar="PATH", type=_output_path,
                        help="write the candidate report CSV here (default stdout)")

    return parser


def _resolve_seed(parser: argparse.ArgumentParser, seed: int | None) -> int:
    if seed is not None:
        return seed
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        parser.error(f"{SEED_ENV_VAR} must be an integer, got {raw!r}")


class _WriteError(Exception):
    """Writing a named output failed; the message names the output."""


@contextlib.contextmanager
def _writing(path: str) -> Iterator[None]:
    """Turn an OSError from writing the output ``path`` into a _WriteError,
    which _check_outputs reports in one line."""
    try:
        yield
    except OSError as error:
        raise _WriteError(f"cannot write {path}: {error.strerror}") from error


@contextlib.contextmanager
def _check_outputs(parser: argparse.ArgumentParser, *paths: str | None) -> Iterator[None]:
    """Check every output path before any work is done, so that an
    unwritable path, or two outputs naming one regular file, is a usage
    error rather than a late traceback or one output overwriting another.
    A refused command keeps existing files as they were and removes the
    files the check created, so it leaves the directory as it was.  The
    body then rewrites each output in place with ``open_output``, cut to
    length once written; if it raises, even by Ctrl-C, every output is
    emptied before the error goes on, so a failed command never leaves a
    previous run's bytes behind.  A failed write (a _WriteError) then ends
    the command with one line on stderr and exit code 1."""
    paths = [path for path in paths if path]
    created = []

    def refuse(message: str) -> None:
        for path in created:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        parser.error(message)

    for path in paths:
        new = not os.path.lexists(path)
        try:
            open(path, "a").close()
        except OSError as error:
            refuse(f"cannot write {path}: {error.strerror}")
        if new:
            created.append(path)
    for path, other in itertools.combinations(paths, 2):
        if os.path.isfile(path) and os.path.samefile(path, other):
            refuse(f"{path} and {other} are the same file")
    try:
        yield
        # Whatever stdout still buffers is the command's output too: a
        # closed stdout fails the command here, whether it is buffered or not.
        sys.stdout.flush()
    except BaseException as error:
        for path in paths:
            # The null device and pipes cannot be cut and keep nothing.
            with contextlib.suppress(OSError):
                os.truncate(path, 0)
        if isinstance(error, _WriteError):
            parser.exit(1, f"{parser.prog}: error: {error}\n")
        raise


def _fmt_rate(value: float) -> str:
    return "n/a" if math.isnan(value) else f"{value:.9f}"


def cmd_verify() -> int:
    from .verify import render_report, run_all_checks

    checks = run_all_checks()
    print(render_report(checks))
    return 0 if all(check.passed for check in checks) else 1


def cmd_simulate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    seed = _resolve_seed(parser, args.seed)
    try:
        config = ProtocolConfig(
            rounds=args.rounds,
            seed=seed,
            c0=args.c0,
            control_prob=args.control_prob,
            eta=args.eta,
            scheme=args.scheme,
            attack_fraction=args.attack_fraction,
        )
    except ValueError as error:
        parser.error(str(error))
    with _check_outputs(parser, args.out, args.stats):
        metadata = {
            "version": __version__,
            "command": "simulate",
            "scheme": config.scheme,
            "rounds": config.rounds,
            "seed": config.seed,
            "rng_stream": RNG_STREAM,
            "eta": config.eta,
            "c0": config.c0,
            "control_prob": config.control_prob,
            "attack_fraction": config.attack_fraction,
            # echo rounded to 12 decimals so 0.1/0.25 reads as the 0.4 it means
            "resolved_attack_fraction": round(config.resolved_attack_fraction(), 12),
            "attack_loss": config.attack_loss,
        }
        if args.out:
            with _writing(args.out):
                stats = write_records_csv(config, args.out, metadata)
        else:
            stats = run_simulation(config)
        if args.stats:
            with _writing(args.stats), open_output(args.stats) as handle:
                json.dump(
                    {"metadata": metadata, "stats": stats.to_json_dict()},
                    handle,
                    indent=2,
                    sort_keys=True,
                )
                handle.write("\n")
        for line in metadata_lines(metadata):
            print(line)
        print(f"rounds={stats.n_rounds} control={stats.n_control} message={stats.n_message}")
        print(
            f"control_loss_rate={_fmt_rate(stats.control_loss_rate)}"
            f" se={_fmt_rate(stats.control_loss_se)}"
        )
        print(
            f"detection_rate={_fmt_rate(stats.detection_rate)}"
            f" se={_fmt_rate(stats.detection_se)}"
        )
        print(f"qber={_fmt_rate(stats.qber)} se={_fmt_rate(stats.qber_se)}")
        print(
            f"message_attacked={stats.n_message_attacked}"
            f" stray_outcomes={stats.n_stray_outcomes}"
        )
    return 0


def _curve_lines(report: SecurityReport, metadata: dict) -> list[str]:
    lines = metadata_lines(metadata)
    lines.append(",".join(CurvePoint._fields))
    row = ",".join(["%.9f"] * len(CurvePoint._fields))
    lines += [row % point for point in report.curve]
    return lines


def cmd_analyze(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    with _check_outputs(parser, args.curve, args.report):
        report = security_report(ANALYZE_PROFILES[args.scheme]())
        metadata = {
            "version": __version__,
            "command": "analyze",
            "scheme": args.scheme,
            "full_attack_edge": report.full_attack_edge,
            "eta_star": f"{report.eta_star:.9f}",
            "mu_star": f"{report.mu_star:.9f}",
        }
        if args.curve:
            with _writing(args.curve), open_output(args.curve) as handle:
                handle.write("\n".join(_curve_lines(report, metadata)) + "\n")
        if args.report:
            payload = report.to_json_dict()
            payload["metadata"] = metadata
            with _writing(args.report), open_output(args.report) as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
        for line in metadata_lines(metadata):
            print(line)
        print(
            f"insecure below eta*={report.eta_star:.9f}"
            f" (optimal attack fraction mu*={report.mu_star:.9f},"
            f" full-attack domain up to eta={report.full_attack_edge})"
        )
    return 0


def cmd_solve_conventions(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    with _check_outputs(parser, args.out):
        reports = solve()
        rows = [CSV_HEADER] + report_rows(reports)
        counts = summarize(reports)
        metadata = {"version": __version__, "command": "solve-conventions"}
        if args.out:
            with _writing(args.out), open_output(args.out) as handle:
                handle.write("\n".join(metadata_lines(metadata) + rows) + "\n")
            for line in metadata_lines(metadata):
                print(line)
            print(
                f"candidates={len(reports)} matches={counts['match']}"
                f" mismatches={counts['mismatch']}"
                f" invalid={counts['invalid-double-occupancy']}"
            )
        else:
            print("\n".join(rows))
    return 0


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "verify":
        return cmd_verify()
    if args.command == "simulate":
        return cmd_simulate(parser, args)
    if args.command == "analyze":
        return cmd_analyze(parser, args)
    return cmd_solve_conventions(parser, args)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(parser, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # Stdout's reader has gone, as in ``solve-conventions | head -1``.  A
        # named output's errors never get here: _writing reports them.  The
        # command has failed, so exit 1, but quietly, and with stdout on the
        # null device so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
