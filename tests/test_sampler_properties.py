"""Property-based tests of the block sampler, with a fixed derandomized
profile so that every run of the suite tries the same examples.

The oracle for "zero-probability cell" is built here from the exact layers
(engine projections, ``attacks.exact_outcome_table`` and the profiles), not
from the sampler's own tables.
"""

from __future__ import annotations

import collections
import csv
import dataclasses
import io
import math
import operator
from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pingpong_eve.attacks import attack_ba, exact_outcome_table, wojcik_profile  # noqa: E402
from pingpong_eve.engine import BellOutcome, Occupation, make_initial, project_mode  # noqa: E402
from pingpong_eve.protocol import (  # noqa: E402
    _CSV_COLUMNS,
    BLOCK_ROUNDS,
    SCHEMES,
    ProtocolConfig,
    RoundRecord,
    _cell,
    _tally,
    aggregate,
    run_rounds,
    run_simulation,
    write_records_csv,
)

# No shrink phase: each shrink step replays a run of up to BLOCK_ROUNDS + 2000
# rounds, so shrinking a failure took minutes; the unshrunk example is
# reported at once.
DETERMINISTIC = settings(
    derandomize=True,
    max_examples=40,
    deadline=None,
    database=None,
    phases=[Phase.explicit, Phase.generate],
)

# derandomize seeds Hypothesis from a digest of each test's source, so an
# edit of a test body would draw other examples.  Each property is pinned with
# @seed to the seed its source gave when it was pinned, and keeps those 40
# examples, so its coverage and its timings compare across edits.  Hypothesis
# also draws, now and then, a literal constant of the package's own modules
# (not of the tests): a new float or large int literal in src/ can move the
# examples too, and a new string literal would for a string strategy.
ZERO_CELL_SEED = int(
    "3858138811034600342592186376635728880871116252132592429003"
    "3002680595103713088259809573117380056334611128945691480565"
)
AGGREGATE_SEED = int(
    "618119299458652843626391894389193116799332341971049785297"
    "1916046704321014638415327900649048445459092457129783033822"
)
CONFIG_REJECTS_SEED = int(
    "2150585796343732051377905400484214892594619530463741911715"
    "8553319475606419269759442703054448213395049128792502779577"
)

M_BIT = {BellOutcome.PSI_PLUS: 0, BellOutcome.PSI_MINUS: 1}

probability = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def configs(draw):
    return ProtocolConfig(
        # Without the explicit block edges no example would reach a second block.
        rounds=draw(
            st.integers(1, BLOCK_ROUNDS + 2000)
            | st.sampled_from([BLOCK_ROUNDS + d for d in (-1, 0, 1, 2000)])
        ),
        seed=draw(st.integers(0, 2**63)),
        c0=draw(probability),
        control_prob=draw(probability),
        eta=draw(probability),
        scheme=draw(st.sampled_from(SCHEMES)),
        attack_fraction=draw(st.just("auto") | probability),
    )


def control_probability(attacked: bool, scheme: str, t_out: Occupation, h_bit: int) -> float:
    """Exact P(t outcome, h bit) of a control round that reached Alice."""
    # The reference attack's published summary, typed here on purpose: the
    # sampler reads the table derived from the attack's circuit, and this
    # branch is the oracle that holds it to the published loss split evenly
    # over the h bits and to anticorrelated surviving outcomes.
    if attacked and scheme == "wojcik-reference":
        loss = wojcik_profile().loss
        if t_out is Occupation.VAC:
            return loss / 2
        return (1.0 - loss) / 2 * ((t_out, h_bit) in ((Occupation.POL1, 0), (Occupation.POL0, 1)))
    state = attack_ba(make_initial()) if attacked else make_initial()
    p_t, collapsed = project_mode(state, "t", t_out)
    if collapsed is None:
        return 0.0
    h_out = Occupation.POL0 if h_bit == 0 else Occupation.POL1
    return p_t * project_mode(collapsed, "h", h_out)[0]


def record_probability(config: ProtocolConfig, record) -> float:
    """Exact probability of a record's outcome under ``config``."""
    fraction = config.resolved_attack_fraction()
    eta = config.eta if config.scheme == "none" else 1.0
    if record.mode == "control":
        p = config.control_prob
        p *= fraction if record.attacked else 1.0 - fraction
        if record.photon_lost and not record.attacked:
            return p * (1.0 - eta) / 2
        return p * (1.0 if record.attacked else eta) * control_probability(
            record.attacked, config.scheme, record.alice_t_outcome, record.bob_h_outcome
        )
    p = 1.0 - config.control_prob
    p *= fraction if record.attacked else 1.0 - fraction
    if record.photon_lost:
        return p * (1.0 - eta)
    p *= config.c0 if record.j == 0 else 1.0 - config.c0
    if not record.attacked:
        decoded = BellOutcome.PSI_PLUS if record.j == 0 else BellOutcome.PSI_MINUS
        return p * eta * (record.m is decoded)
    if record.m not in M_BIT:
        return 0.0
    if config.scheme == "improved-symmetrized":
        p *= 0.5
    table = exact_outcome_table(apply_s=bool(record.s_applied))
    return p * table[record.j, record.k, M_BIT[record.m]]


@DETERMINISTIC
@seed(ZERO_CELL_SEED)
@given(configs())
def test_sampler_never_returns_a_zero_probability_cell(config):
    outcomes = {record[1:] for record in run_rounds(config)}
    for outcome in outcomes:
        record = RoundRecord(0, *outcome)
        assert record_probability(config, record) > 0.0, record


@DETERMINISTIC
@seed(AGGREGATE_SEED)
@given(configs())
def test_aggregate_invariants(config):
    stats = aggregate(run_rounds(config))
    assert stats.n_rounds == config.rounds
    assert stats.n_control + stats.n_message == stats.n_rounds
    assert stats.n_detection == 0
    assert stats.n_stray_outcomes == 0
    assert stats.to_json_dict() == run_simulation(config).to_json_dict()


@lru_cache(maxsize=None)
def parse_row(row: tuple[str, ...]) -> RoundRecord:
    """A CSV row read back into the record it was written from."""
    fields = dict(zip(_CSV_COLUMNS, row))

    def flag(name):
        return {"": None, "true": True, "false": False}[fields[name]]

    def number(name):
        return int(fields[name]) if fields[name] else None

    return RoundRecord(
        round_index=int(fields["round_index"]),
        mode=fields["mode"],
        attacked=flag("attacked"),
        j=number("j"),
        k=number("k"),
        m=BellOutcome(fields["m"]) if fields["m"] else None,
        alice_t_outcome=(
            Occupation.from_label(fields["alice_t_outcome"]) if fields["alice_t_outcome"] else None
        ),
        bob_h_outcome=number("bob_h_outcome"),
        s_applied=flag("s_applied"),
        photon_lost=flag("photon_lost"),
        detection_event=flag("detection_event"),
    )


# derandomize seeds Hypothesis from a digest of the test's source, so every
# edit of this body would draw other examples.  This is the seed its source
# gave before the reference formatted each distinct row once: the property
# keeps those 40 examples, and their timings compare.
CSV_BODY_SEED = int(
    "21457567382221356746986837997943774321125267307112131054041084954774078194049"
    "007555786711250147996031244734692169747"
)


@DETERMINISTIC
@seed(CSV_BODY_SEED)
@given(configs())
def test_csv_body_matches_the_records(config):
    reference = io.StringIO(newline="")
    writer = csv.writer(reference)
    writer.writerow(_CSV_COLUMNS)
    # Every record is written by csv.writer, field by field.  _cell is a
    # function of a value and its type, so the fields after the index are
    # formatted once per distinct (values, types) and the row reused.
    fields = operator.attrgetter(*_CSV_COLUMNS[1:])
    formatted = {}
    for record in run_rounds(config):
        values = fields(record)
        key = (values, tuple(map(type, values)))
        row = formatted.get(key)
        if row is None:
            row = formatted[key] = [None, *map(_cell, values)]
        row[0] = _cell(record.round_index)
        writer.writerow(row)
    handle = io.BytesIO()
    written = write_records_csv(config, handle, {})
    body = handle.getvalue().decode()
    expected_body = reference.getvalue()
    if body != expected_body:
        # Not `assert body == ...`: pytest's diff of two texts this long runs
        # for minutes.
        pairs = zip(body.splitlines(True), expected_body.splitlines(True))
        first = next((pair for pair in pairs if pair[0] != pair[1]), "a prefix")
        pytest.fail(f"the CSV body differs from the reference, first at {first!r}")
    head, *lines, last = body.split("\r\n")
    assert next(csv.reader([head])) == list(_CSV_COLUMNS)
    assert last == ""
    # The body equals the reference, so round indices are checked; read each
    # distinct row without its index back once, weighted by its count.
    distinct = collections.Counter(line.partition(",")[2] for line in lines)
    tallied = _tally(
        [parse_row(("0", *next(csv.reader([text]))))[1:] for text in distinct],
        list(distinct.values()),
    )
    expected = run_simulation(config).to_json_dict()
    assert tallied.to_json_dict() == expected
    assert written.to_json_dict() == expected


non_finite_or_outside = st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(
    allow_nan=False, allow_infinity=False
).filter(lambda x: not 0.0 <= x <= 1.0)


@DETERMINISTIC
@seed(CONFIG_REJECTS_SEED)
@given(
    configs(),
    st.sampled_from(["eta", "c0", "control_prob", "attack_fraction"]),
    non_finite_or_outside,
)
def test_config_rejects_non_finite_and_outside_probabilities(config, field, value):
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(config, **{field: value})
