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
import math
import os
import stat
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Iterator

from . import __version__
from .attacks import ATTACKS, attack_profile
from .conventions import CSV_HEADER, report_rows, solve, summarize
from .information import CurvePoint, SecurityReport, security_report
from .protocol import (
    RNG_STREAM,
    SCHEMES,
    ProtocolConfig,
    metadata_lines,
    run_simulation,
    write_records_csv,
)

DEFAULT_SEED = 2026
SEED_ENV_VAR = "PINGPONG_EVE_SEED"


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

    sub.add_parser("verify", help="run every pinned-value self-check").set_defaults(run=cmd_verify)

    simulate = sub.add_parser("simulate", help="Monte Carlo protocol run")
    simulate.set_defaults(run=cmd_simulate)
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
    analyze.set_defaults(run=cmd_analyze)
    analyze.add_argument("--scheme", choices=sorted(ATTACKS), default="improved")
    analyze.add_argument("--curve", metavar="PATH", type=_output_path,
                         help="write the eta curve CSV here")
    analyze.add_argument("--report", metavar="PATH", type=_output_path,
                         help="write the security report JSON here")

    solver = sub.add_parser("solve-conventions",
                            help="enumerate gate-semantics candidates")
    solver.set_defaults(run=cmd_solve_conventions)
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


class _Output:
    """A named output, opened once on the descriptor ``fd``."""

    def __init__(self, path: str, fd: int):
        self.path, self.fd, self.stat = path, fd, os.fstat(fd)

    def write(self, data) -> None:
        """Write every byte of ``data``, however short each write falls."""
        view = memoryview(data).cast("B")
        while view:
            view = view[self.call(os.write, view):]

    def call(self, function, *args):
        """``function(fd, *args)``, an OSError from it a _WriteError."""
        try:
            return function(self.fd, *args)
        except OSError as error:
            raise _WriteError(f"cannot write {self.path}: {error.strerror}") from error


@contextlib.contextmanager
def _outputs(parser: argparse.ArgumentParser, *paths: str | None) -> Iterator[list]:
    """Open each output path once, before any work is done, so that a named
    pipe's one reader gets every byte, and yield an _Output per path, or
    None where it is absent.  An unwritable path, or two outputs naming one
    regular file, stdout among them, is a usage error that removes only the
    files it created.
    Once the body is done, each regular file is cut at its final write
    position.  If the body raises, even by Ctrl-C, every output is emptied,
    so no previous run's bytes are left behind; a failed write or cut (a
    _WriteError) then ends the command with one line on stderr, exit 1."""
    # Not cut to zero first: on ext4 that flushes at close, 1.2-1.3 ms for an
    # 885 KB CSV against 0.05-0.08 ms in place (medians, 2-vCPU VM).
    opened: list[_Output] = []
    created = []

    def refuse(message: str) -> None:
        for path in created:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        parser.error(message)

    try:
        for path in filter(None, paths):
            # A dangling symlink names no file, and the open creates its
            # target: that file, not the link, is the one to remove.
            new = not os.path.exists(path)
            try:
                opened.append(_Output(path, os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)))
            except OSError as error:
                refuse(f"cannot write {path}: {error.strerror}")
            if new:
                created.append(os.path.realpath(path))
        # Opened anew, stdout's own regular file would be written from its
        # start, over stdout's bytes; a closed stdout names no file.
        stats = [(output.path, output.stat) for output in opened]
        with contextlib.suppress(OSError):
            stats.append(("standard output", os.fstat(1)))
        for (path, first), (other, second) in itertools.combinations(stats, 2):
            if stat.S_ISREG(first.st_mode) and os.path.samestat(first, second):
                refuse(f"{path} and {other} are the same file")
        named = iter(opened)
        try:
            yield [next(named) if path else None for path in paths]
            for output in opened:
                if stat.S_ISREG(output.stat.st_mode):
                    output.call(os.ftruncate, os.lseek(output.fd, 0, os.SEEK_CUR))
            # Whatever stdout still buffers is the command's output too: a
            # closed stdout fails the command here, buffered or not.
            sys.stdout.flush()
        except BaseException as error:
            for output in opened:
                # The null device and pipes cannot be cut and keep nothing.
                with contextlib.suppress(OSError):
                    os.ftruncate(output.fd, 0)
            if isinstance(error, _WriteError):
                parser.exit(1, f"{parser.prog}: error: {error}\n")
            raise
    finally:
        for output in opened:
            os.close(output.fd)


def _json_float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


# The text of each JSON scalar, by its exact type.
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _json_float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _json_text(value, newline: str = "\n") -> str:
    """The text ``json.dumps(value, indent=2, sort_keys=True)`` gives, for
    dicts with string keys, lists, tuples, strings, ints, floats, bools and
    None, subclasses included; any other value, or a key that is not a
    string, is a TypeError.  ``json`` writes an indented document with its
    pure-Python encoder, as its C encoder does not indent; this writer
    leaves only the string escapes to json's C code and joins the rest."""
    scalar = _JSON_SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(key, str) for key in value):
            raise TypeError(f"JSON object keys must be strings, got {list(value)!r}")
        items = [
            encode_basestring_ascii(key) + ": " + _json_text(value[key], inner)
            for key in sorted(value)
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    # json writes a subclass of these as its base type; bool cannot be subclassed.
    for kind in (str, int, float):
        if isinstance(value, kind):
            return _JSON_SCALARS[kind](value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _fmt_rate(value: float) -> str:
    return "n/a" if math.isnan(value) else f"{value:.9f}"


def cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
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
    with _outputs(parser, args.out, args.stats) as (out, stats_out):
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
        stats = write_records_csv(config, out, metadata) if out else run_simulation(config)
        if stats_out:
            document = {"metadata": metadata, "stats": stats.to_json_dict()}
            stats_out.write((_json_text(document) + "\n").encode())
        print("\n".join([
            *metadata_lines(metadata),
            f"rounds={stats.n_rounds} control={stats.n_control} message={stats.n_message}",
            f"control_loss_rate={_fmt_rate(stats.control_loss_rate)}"
            f" se={_fmt_rate(stats.control_loss_se)}",
            f"detection_rate={_fmt_rate(stats.detection_rate)}"
            f" se={_fmt_rate(stats.detection_se)}",
            f"qber={_fmt_rate(stats.qber)} se={_fmt_rate(stats.qber_se)}",
            f"message_attacked={stats.n_message_attacked}"
            f" stray_outcomes={stats.n_stray_outcomes}",
        ]))
    return 0


def _curve_lines(report: SecurityReport, metadata: dict) -> list[str]:
    lines = metadata_lines(metadata)
    lines.append(",".join(CurvePoint._fields))
    row = ",".join(["%.9f"] * len(CurvePoint._fields))
    lines += [row % point for point in report.curve]
    return lines


def cmd_analyze(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    with _outputs(parser, args.curve, args.report) as (curve, report_out):
        report = security_report(attack_profile(args.scheme))
        metadata = {
            "version": __version__,
            "command": "analyze",
            "scheme": args.scheme,
            "full_attack_edge": report.full_attack_edge,
            "eta_star": f"{report.eta_star:.9f}",
            "mu_star": f"{report.mu_star:.9f}",
        }
        if curve:
            curve.write(("\n".join(_curve_lines(report, metadata)) + "\n").encode())
        if report_out:
            payload = report.to_json_dict()
            payload["metadata"] = metadata
            report_out.write((_json_text(payload) + "\n").encode())
        for line in metadata_lines(metadata):
            print(line)
        print(
            f"insecure below eta*={report.eta_star:.9f}"
            f" (optimal attack fraction mu*={report.mu_star:.9f},"
            f" full-attack domain up to eta={report.full_attack_edge})"
        )
    return 0


def cmd_solve_conventions(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    with _outputs(parser, args.out) as (out,):
        reports = solve()
        rows = [CSV_HEADER] + report_rows(reports)
        counts = summarize(reports)
        metadata = {"version": __version__, "command": "solve-conventions"}
        if out:
            out.write(("\n".join(metadata_lines(metadata) + rows) + "\n").encode())
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.run(parser, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # Stdout's reader has gone, as in ``solve-conventions | head -1``
        # (_outputs reports a named output's errors): exit 1 quietly, with
        # stdout on the null device so that the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
