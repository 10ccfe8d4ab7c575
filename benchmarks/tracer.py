"""Span tracer for the traced run, kept entirely in the benchmark's files.

``Tracer.install`` replaces each traced function in every package namespace
that holds it (callers look names up in their own module, e.g. ``cli``
calls ``run_rounds`` through ``cli.run_rounds``) and ``uninstall`` puts the
originals back.  Each call pushes a frame; on return its duration is added
to the caller's child time, so a span's self time is its duration minus
the time its traced children cover.

Calls made once per op or per pass keep a full span record (name, start,
end, parent span, op id).  Calls made per round or per candidate, up to
hundreds of thousands per op, are folded into per-op totals instead: one
record each would cost more memory than the program under test.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time

SPAN = "span"
FOLDED = "folded"

_ENGINE_OPS = (
    "make_initial",
    "apply_polarization_gate",
    "apply_cnot",
    "project_mode",
    "mode_marginal",
    "bell_probabilities",
    "project_bell",
)


def _completed(result) -> int:
    return result.collision is None


# (home module, attribute, span name, kind, observe); observe maps a return
# value to a count that is summed per span name.
TARGETS = (
    ("cli", "main", "cli.main", SPAN, None),
    ("protocol", "run_rounds", "protocol.run_rounds", SPAN, None),
    ("protocol", "aggregate", "protocol.aggregate", SPAN, None),
    ("protocol", "write_records_csv", "protocol.write_records_csv", SPAN, None),
    ("protocol", "round_rng", "protocol.round_rng", FOLDED, None),
    ("engine", "sample_from", "protocol.sample_from", FOLDED, None),
    ("attacks", "exact_outcome_table", "attacks.exact_outcome_table", SPAN, None),
    ("attacks", "attack_ba", "attacks.attack_ba", FOLDED, None),
    ("attacks", "attack_ab", "attacks.attack_ab", FOLDED, None),
    ("conventions", "solve", "conventions.solve", SPAN, None),
    ("conventions", "compose_candidate", "conventions.compose_candidate", FOLDED, _completed),
    ("information", "security_report", "information.security_report", SPAN, None),
    ("information", "mutual_information", "information.mutual_information", FOLDED, None),
    ("verify", "run_all_checks", "verify.run_all_checks", SPAN, len),
    ("engine", "PureState.__init__", "engine.PureState", FOLDED, None),
) + tuple((("engine", op, f"engine.{op}", FOLDED, None) for op in _ENGINE_OPS))

MODULES = ("engine", "attacks", "information", "protocol", "conventions", "verify", "cli")


class Tracer:
    """Wraps the TARGETS of the ``pingpong_eve`` package and records spans."""

    def __init__(self) -> None:
        self.modules = [importlib.import_module(f"pingpong_eve.{m}") for m in MODULES]
        self.spans: list = []
        self.totals: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns]
        self.observed: dict[str, int] = {}
        self.op_id = 0
        self.op_folds: list = []
        self._child_ns: list[int] = []
        self._open_spans: list[int] = []
        self._patches: list = []
        self._wrappers = [self._wrap(*target) for target in TARGETS]

    def _wrap(self, home, attr, name, kind, observe):
        owner = importlib.import_module(f"pingpong_eve.{home}")
        if "." in attr:
            class_name, attr = attr.split(".")
            owners = [getattr(owner, class_name)]
        else:
            owners = None
        original = getattr(owners[0] if owners else owner, attr)
        stat = self.totals.setdefault(name, [0, 0, 0])
        self.observed.setdefault(name, 0)
        child_ns, open_spans, spans = self._child_ns, self._open_spans, self.spans
        observed, clock, keep = self.observed, time.perf_counter_ns, kind == SPAN

        def traced(*args, **kwargs):
            if keep:
                parent = open_spans[-1] if open_spans else -1
                span_id = len(spans)
                spans.append(None)
                open_spans.append(span_id)
            child_ns.append(0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                own_children = child_ns.pop()
                if child_ns:
                    child_ns[-1] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - own_children
                if keep:
                    open_spans.pop()
                    spans[span_id] = (name, start, end, parent, self.op_id)
            if observe is not None:
                observed[name] += observe(result)
            return result

        return owners, attr, original, traced

    def install(self) -> None:
        for owners, attr, original, traced in self._wrappers:
            targets = owners or [m for m in self.modules if getattr(m, attr, None) is original]
            for owner in targets:
                setattr(owner, attr, traced)
                self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        return {
            name: (calls, total, own, self.observed[name])
            for name, (calls, total, own) in self.totals.items()
        }

    def end_op(self, before: dict) -> None:
        """Keep the folded totals of the op that started at ``before``."""
        totals = diff(self.snapshot(), before)
        self.op_folds.append(
            {"op": self.op_id, "totals": {n: v for n, v in totals.items() if any(v)}}
        )

    def write(self, path: str) -> None:
        """Write every span record and per-op folded totals as JSON."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "clock": "perf_counter_ns",
                    "span_fields": ["name", "start_ns", "end_ns", "parent", "op"],
                    "spans": self.spans,
                    "ops": self.op_folds,
                },
                handle,
            )
            handle.write("\n")


def diff(after: dict, before: dict) -> dict:
    return {name: tuple(a - b for a, b in zip(after[name], before[name])) for name in after}


# name -> unit of every per-layer metric, in BENCHMARK.json order.
LAYER_UNITS = {
    "protocol.run_rounds.us_per_round": "us/round",
    "protocol.round_rng.s": "s/op",
    "protocol.round_rng.share": "ratio",
    "protocol.rng_streams_per_round": "count/round",
    "protocol.draws_per_round": "count/round",
    "protocol.bytes_per_round": "B/round",
    "protocol.aggregate.us_per_round": "us/round",
    "protocol.write_records_csv.s": "s/op",
    "protocol.csv_bytes": "B/op",
    "protocol.csv_mb_per_s": "MB/s",
    "protocol.self_s": "s/op",
    "engine.ops": "count/op",
    "engine.us_per_op": "us/call",
    "engine.states_built": "count/op",
    "engine.setup_ops": "count",
    "engine.self_s": "s/op",
    "attacks.attack_ba.calls": "count/op",
    "attacks.attack_ab.calls": "count/op",
    "attacks.exact_outcome_table.s": "s/op",
    "attacks.self_s": "s/op",
    "conventions.solve.s": "s/op",
    "conventions.compose_candidate.calls": "count/op",
    "conventions.completed_ratio": "ratio",
    "conventions.self_s": "s/op",
    "information.security_report.s": "s/op",
    "information.mutual_information.calls": "count/op",
    "information.self_s": "s/op",
    "verify.run_all_checks.self_s": "s/op",
    "verify.checks": "count/op",
    "cli.main.self_s": "s/op",
    "trace.ops": "count",
    "trace.overhead_ms_per_op": "ms/op",
    "trace.overhead_share": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    timed: dict,
    setup: dict,
    n_ops: int,
    rounds: int,
    csv_bytes: int,
    bytes_per_round: float,
    pairs: list[tuple[float, float]],
) -> dict[str, dict]:
    """Per-layer metrics from the folded totals of the traced ops.

    ``timed`` and ``setup`` map span name -> (calls, total ns, self ns,
    observed); ``pairs`` holds (untraced, traced) seconds of identical ops.
    Times and counts are means per traced op unless the unit says otherwise.
    """

    def calls(name):
        return timed[name][0]

    def secs(name):
        return timed[name][1] / 1e9

    def per_op(value):
        return _ratio(value, n_ops)

    def layer_self(layer):
        return per_op(sum(v[2] for n, v in timed.items() if n.startswith(layer + ".")) / 1e9)

    engine_ops = [f"engine.{op}" for op in _ENGINE_OPS]
    engine_calls = sum(calls(n) for n in engine_ops)
    overheads = [traced - untraced for untraced, traced in pairs]
    values = {
        "protocol.run_rounds.us_per_round": _ratio(secs("protocol.run_rounds") * 1e6, rounds),
        "protocol.round_rng.s": per_op(secs("protocol.round_rng")),
        "protocol.round_rng.share": _ratio(secs("protocol.round_rng"), secs("protocol.run_rounds")),
        "protocol.rng_streams_per_round": _ratio(calls("protocol.round_rng"), rounds),
        "protocol.draws_per_round": _ratio(calls("protocol.sample_from"), rounds),
        "protocol.bytes_per_round": bytes_per_round,
        "protocol.aggregate.us_per_round": _ratio(secs("protocol.aggregate") * 1e6, rounds),
        "protocol.write_records_csv.s": per_op(secs("protocol.write_records_csv")),
        "protocol.csv_bytes": per_op(csv_bytes),
        "protocol.csv_mb_per_s": _ratio(csv_bytes / 1e6, secs("protocol.write_records_csv")),
        "protocol.self_s": layer_self("protocol"),
        "engine.ops": per_op(engine_calls),
        "engine.us_per_op": _ratio(sum(secs(n) for n in engine_ops) * 1e6, engine_calls),
        "engine.states_built": per_op(calls("engine.PureState")),
        "engine.setup_ops": sum(setup[n][0] for n in engine_ops),
        "engine.self_s": layer_self("engine"),
        "attacks.attack_ba.calls": per_op(calls("attacks.attack_ba")),
        "attacks.attack_ab.calls": per_op(calls("attacks.attack_ab")),
        "attacks.exact_outcome_table.s": per_op(secs("attacks.exact_outcome_table")),
        "attacks.self_s": layer_self("attacks"),
        "conventions.solve.s": per_op(secs("conventions.solve")),
        "conventions.compose_candidate.calls": per_op(calls("conventions.compose_candidate")),
        "conventions.completed_ratio": _ratio(
            timed["conventions.compose_candidate"][3], calls("conventions.compose_candidate")
        ),
        "conventions.self_s": layer_self("conventions"),
        "information.security_report.s": per_op(secs("information.security_report")),
        "information.mutual_information.calls": per_op(calls("information.mutual_information")),
        "information.self_s": layer_self("information"),
        "verify.run_all_checks.self_s": per_op(timed["verify.run_all_checks"][2] / 1e9),
        "verify.checks": per_op(timed["verify.run_all_checks"][3]),
        "cli.main.self_s": per_op(timed["cli.main"][2] / 1e9),
        "trace.ops": n_ops,
        "trace.overhead_ms_per_op": statistics.median(overheads) * 1e3 if pairs else 0.0,
        "trace.overhead_share": statistics.median(
            [(traced - untraced) / untraced for untraced, traced in pairs]
        ) if pairs else 0.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
