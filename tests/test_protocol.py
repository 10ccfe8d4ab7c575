"""Monte Carlo protocol tests: determinism, loss accounting, exact-table recovery.

Empirical checks run at 10^5 rounds and compare against the exact
conditional tables within 3 standard errors per cell plus a chi-squared
test at the 99.9% quantile, per the stated validation contract.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from pingpong_eve import protocol
from pingpong_eve.attacks import improved_profile, wojcik_profile
from pingpong_eve.engine import BellOutcome, Occupation
from pingpong_eve.protocol import (
    _CSV_COLUMNS,
    _CSV_WINDOW_ROUNDS,
    _INDEX_LOW,
    BLOCK_ROUNDS,
    SCHEMES,
    ProtocolConfig,
    RoundRecord,
    RunStats,
    _branch_cells,
    _cell,
    _RoundTable,
    _threshold,
    aggregate,
    chi_squared,
    max_attack_fraction,
    metadata_lines,
    replay_round,
    round_rng,
    run_rounds,
    run_simulation,
    write_records_csv,
)

PLAIN_COND = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.25, 0.25], [0.25, 0.25]]])
SYM_COND = PLAIN_COND[::-1, ::-1, ::-1].copy()
MIX_COND = 0.5 * (PLAIN_COND + SYM_COND)


@lru_cache(maxsize=None)
def cached_records(**kwargs) -> tuple[RoundRecord, ...]:
    return tuple(run_rounds(ProtocolConfig(**kwargs)))


def cached_stats(**kwargs):
    return aggregate(cached_records(**kwargs))


def assert_table_matches(counts, expected, df_expected):
    """3 standard errors per cell, then chi-squared at the 99.9% quantile."""
    counts = np.asarray(counts)
    for j in (0, 1):
        n_j = counts[j].sum()
        assert n_j > 0
        for k in (0, 1):
            for m in (0, 1):
                p = expected[j, k, m]
                se = math.sqrt(p * (1.0 - p) / n_j)
                assert abs(counts[j, k, m] / n_j - p) <= 3.0 * se + 1e-12
    stat, df = chi_squared(counts, expected)
    assert df == df_expected
    assert stat <= chi2.ppf(0.999, df)


# --- max_attack_fraction ---------------------------------------------------------


def test_max_attack_fraction_values():
    assert max_attack_fraction(0.5, 0.5) == 1.0
    assert max_attack_fraction(0.75, 0.25) == 1.0
    assert max_attack_fraction(1.0, 0.25) == 0.0
    assert abs(max_attack_fraction(0.9, 0.25) - 0.4) < 1e-12
    assert max_attack_fraction(0.0, 0.25) == 1.0


def test_max_attack_fraction_errors():
    with pytest.raises(ValueError):
        max_attack_fraction(0.5, 0.0)
    with pytest.raises(ValueError):
        max_attack_fraction(0.5, -0.25)
    with pytest.raises(ValueError):
        max_attack_fraction(1.5, 0.25)


# --- configuration ---------------------------------------------------------------


def test_config_validation():
    ProtocolConfig(rounds=1, seed=0)
    with pytest.raises(ValueError):
        ProtocolConfig(rounds=0, seed=0)
    with pytest.raises(ValueError):
        ProtocolConfig(rounds=10, seed=0, scheme="sneaky")
    for field in ("c0", "control_prob", "eta"):
        with pytest.raises(ValueError):
            ProtocolConfig(rounds=10, seed=0, **{field: 1.2})
    with pytest.raises(ValueError):
        ProtocolConfig(rounds=10, seed=0, attack_fraction="most")
    with pytest.raises(ValueError):
        ProtocolConfig(rounds=10, seed=0, attack_fraction=-0.5)
    for fields in (
        dict(rounds=True, seed=0),
        dict(rounds=2.5, seed=0),
        dict(rounds="10", seed=0),
        dict(rounds=10, seed=True),
        dict(rounds=10, seed=1.0),
        dict(rounds=10, seed=-1),
    ):
        with pytest.raises(ValueError):
            ProtocolConfig(**fields)
    ProtocolConfig(rounds=np.int64(3), seed=np.int64(0))
    # non-numbers are bad values too, not a TypeError from the range check
    for fields in (
        dict(eta="0.5"),
        dict(c0=None),
        dict(attack_fraction=[0.1]),
        dict(eta=True),
    ):
        with pytest.raises(ValueError):
            ProtocolConfig(rounds=10, seed=0, **fields)
    ProtocolConfig(
        rounds=10,
        seed=0,
        c0=np.float64(0.3),
        control_prob=np.float32(0.5),
        eta=np.float64(0.9),
        attack_fraction=np.float64(0.2),
    )


def test_attack_loss_per_scheme():
    assert ProtocolConfig(rounds=1, seed=0, scheme="none").attack_loss is None
    assert ProtocolConfig(rounds=1, seed=0, scheme="improved").attack_loss == 0.25
    assert (
        ProtocolConfig(rounds=1, seed=0, scheme="improved-symmetrized").attack_loss
        == 0.25
    )
    assert (
        ProtocolConfig(rounds=1, seed=0, scheme="wojcik-reference").attack_loss == 0.5
    )
    for scheme, profile in (
        ("improved", improved_profile()),
        ("improved-symmetrized", improved_profile()),
        ("wojcik-reference", wojcik_profile()),
    ):
        assert ProtocolConfig(rounds=1, seed=0, scheme=scheme).attack_loss == profile.loss


def test_resolved_attack_fraction():
    assert ProtocolConfig(rounds=1, seed=0, scheme="none").resolved_attack_fraction() == 0.0
    auto = ProtocolConfig(rounds=1, seed=0, scheme="improved", eta=0.9)
    assert abs(auto.resolved_attack_fraction() - 0.4) < 1e-12
    full = ProtocolConfig(rounds=1, seed=0, scheme="improved", eta=0.75)
    assert full.resolved_attack_fraction() == 1.0
    explicit = ProtocolConfig(rounds=1, seed=0, scheme="improved", attack_fraction=0.7)
    assert explicit.resolved_attack_fraction() == 0.7


# --- determinism -----------------------------------------------------------------


def test_round_rng_substreams():
    assert round_rng(5, 7).random() == round_rng(5, 7).random()
    assert round_rng(5, 7).random() != round_rng(5, 8).random()
    assert round_rng(6, 7).random() != round_rng(5, 7).random()
    # The sampler reads the 53-bit integers behind random() directly.
    floats, raw = round_rng(5, 7), round_rng(5, 7).bit_generator
    for _ in range(3):
        assert floats.random() == (raw.random_raw() >> 11) * 2.0**-53
    assert np.array_equal(floats.random(1000), (raw.random_raw(1000) >> 11) * 2.0**-53)


def float_sample(config: ProtocolConfig, rng, n: int) -> np.ndarray:
    """Reference block sampler on floats: three uniforms per round, then a
    searchsorted on the normalized CDF of the round's branch."""
    u = rng.random((n, 3))
    branch = np.where(u[:, 0] < config.control_prob, 0, 2)
    branch += u[:, 1] < config.resolved_attack_fraction()
    cells = np.empty(n, dtype=np.intp)
    first = 0
    for b, weighted in enumerate(_branch_cells(config)):
        probs = [p for _, p in weighted if p > 0.0]
        rows = branch == b
        if probs:
            cdf = np.cumsum(probs)
            cells[rows] = first + np.searchsorted(cdf[:-1] / cdf[-1], u[rows, 2], side="right")
        else:
            assert not rows.any()
        first += len(probs)
    return cells


def reference_configs(scheme: str) -> list[ProtocolConfig]:
    """Every corner of (c0, eta, control_prob, attack_fraction), and one
    inner point."""
    configs = [
        ProtocolConfig(rounds=1, seed=17, scheme=scheme, c0=c0, eta=eta,
                       control_prob=control_prob, attack_fraction=fraction)
        for c0, eta, control_prob, fraction in itertools.product(
            (0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0, "auto")
        )
    ]
    configs.append(ProtocolConfig(rounds=1, seed=17, scheme=scheme, c0=0.3, eta=0.85,
                                  control_prob=0.3))
    return configs


@pytest.mark.parametrize("scheme", SCHEMES)
def test_sampler_equals_the_float_reference(scheme):
    for config in reference_configs(scheme):
        table = _RoundTable(config)
        for block, n in ((0, 1), (1, BLOCK_ROUNDS - 1), (2, BLOCK_ROUNDS)):
            expected = float_sample(config, round_rng(config.seed, block), n)
            assert np.array_equal(table.sample(block, n), expected), (config, block, n)


class ReplayedDraws:
    """A stand-in generator that emits fixed 64-bit outputs, both raw and as
    PCG64's random() makes floats of them."""

    def __init__(self, raw: np.ndarray) -> None:
        self.raw = raw
        self.bit_generator = self

    def random_raw(self, size: int) -> np.ndarray:
        return self.raw[:size].copy()

    def random(self, shape) -> np.ndarray:
        return ((self.raw >> 11) * 2.0**-53).reshape(shape)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_sampler_at_the_draw_boundaries(scheme, monkeypatch):
    """Draws one unit either side of every probability the sampler compares
    with: the mode and attack probabilities and each inner CDF bound."""
    config = ProtocolConfig(rounds=1, seed=0, scheme=scheme, c0=0.3, eta=0.85,
                            control_prob=0.3, attack_fraction=0.4)

    def straddle(probabilities):
        near = {math.ceil(p * 2**53) + d for p in probabilities for d in (-1, 0, 1)}
        return sorted(k for k in near if 0 <= k < 2**53)

    bounds = []
    for weighted in _branch_cells(config):
        cdf = np.cumsum([p for _, p in weighted if p > 0.0])
        bounds += (cdf[:-1] / cdf[-1]).tolist() if cdf.size else []
    ks = np.array(
        list(itertools.product(
            straddle([config.control_prob]),
            straddle([config.resolved_attack_fraction()]),
            straddle(bounds),
        )),
        dtype=np.uint64,
    ).ravel()
    # The low 11 bits of each output are not part of the draw.
    raw = (ks << np.uint64(11)) | np.uint64(0x5A5)
    n = raw.size // 3
    monkeypatch.setattr(protocol, "round_rng", lambda seed, block: ReplayedDraws(raw))
    expected = float_sample(config, ReplayedDraws(raw), n)
    assert np.array_equal(_RoundTable(config).sample(0, n), expected)


BUCKET_WIDTH = 1 << protocol._BUCKET_SHIFT
BUCKETS = 1 << protocol._BUCKET_BITS
# A prior whose message-table bound is the last key of a bucket.
LAST_KEY_C0 = (5 * BUCKET_WIDTH - 1) / 2**53


def brute_force_cells(keys: np.ndarray, table: _RoundTable) -> np.ndarray:
    """The number of table keys at or below each key, less one."""
    return (table.keys[None, :] <= keys[:, None]).sum(axis=1) - 1


@pytest.mark.parametrize("scheme", SCHEMES)
def test_bucket_table_invariants(scheme):
    """A bucket is marked straddling exactly when its first and last keys
    pick different cells, and its entry is the cell of its first key."""
    first = np.arange(BUCKETS, dtype=np.int64) * BUCKET_WIDTH
    last_key = ProtocolConfig(rounds=1, seed=17, scheme=scheme, c0=LAST_KEY_C0)
    assert ((_RoundTable(last_key).keys + 1) % BUCKET_WIDTH == 0).any()
    for config in reference_configs(scheme) + [last_key]:
        table = _RoundTable(config)
        at_first = brute_force_cells(first, table)
        at_last = brute_force_cells(first + BUCKET_WIDTH - 1, table)
        assert at_first.min() == 0
        assert np.array_equal(table.bucket_cell, at_first), config
        assert np.array_equal(table.straddles, at_first != at_last), config


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize(
    "kwargs",
    [
        {"c0": 0.3, "eta": 0.85, "control_prob": 0.3, "attack_fraction": 0.4},
        # thresholds and inner CDF bounds land exactly on bucket edges
        {"c0": 0.5, "eta": 1.0, "control_prob": 0.5, "attack_fraction": 0.25},
        {"c0": 0.5, "eta": 0.75, "control_prob": 0.5, "attack_fraction": 0.25},
        {"c0": LAST_KEY_C0, "eta": 1.0, "control_prob": 0.5, "attack_fraction": 0.25},
    ],
)
def test_sampler_at_the_bucket_edges(scheme, kwargs, monkeypatch):
    """Keys one unit either side of the start and the end of every bucket
    that holds a table key and of a spread of other buckets, in every
    branch a round can reach."""
    config = ProtocolConfig(rounds=1, seed=0, scheme=scheme, **kwargs)
    table = _RoundTable(config)
    if kwargs["c0"] == 0.5:
        inner = table.keys[table.keys % (1 << 53) != 0]
        assert (inner % BUCKET_WIDTH == 0).any()
    holding = (table.keys // BUCKET_WIDTH).tolist()
    buckets = {*holding, *(m + 1 for m in holding), *range(0, BUCKETS, 61), BUCKETS - 1}
    # Mode and attack draws on either side of their thresholds pick each branch.
    mode = (table.mode_threshold - 1, table.mode_threshold)
    attack = (table.attack_threshold, table.attack_threshold - 1)
    draws = []
    for m in sorted(buckets):
        for key in (m * BUCKET_WIDTH - 1, m * BUCKET_WIDTH, m * BUCKET_WIDTH + 1):
            branch, k = divmod(key, 1 << 53)
            round_draws = (mode[branch >> 1], attack[branch & 1], k)
            if 0 <= key and all(0 <= d < 1 << 53 for d in round_draws):
                draws += round_draws
    raw = (np.array(draws, dtype=np.uint64) << np.uint64(11)) | np.uint64(0x5A5)
    n = raw.size // 3
    assert n > len(buckets)
    monkeypatch.setattr(protocol, "round_rng", lambda seed, block: ReplayedDraws(raw))
    expected = float_sample(config, ReplayedDraws(raw), n)
    assert np.array_equal(_RoundTable(config).sample(0, n), expected)


def test_threshold_is_exact_on_53_bit_draws():
    for p in (0.0, 2.0**-53, 0.3, 0.5, 1.0 - 2.0**-53, 1.0):
        near = math.floor(p * 2**53)
        for k in range(max(near - 3, 0), min(near + 4, 2**53)):
            assert (k * 2.0**-53 < p) == (k < _threshold(p)), (p, k)


def test_run_rounds_deterministic():
    config = ProtocolConfig(rounds=300, seed=42, scheme="improved-symmetrized", eta=0.8)
    first = run_rounds(config)
    second = run_rounds(config)
    assert first == second
    reseeded = run_rounds(
        ProtocolConfig(rounds=300, seed=43, scheme="improved-symmetrized", eta=0.8)
    )
    assert reseeded != first


def test_round_record_shape_invariants():
    for record in cached_records(rounds=2000, seed=11, scheme="improved", eta=0.9):
        if record.mode == "control":
            assert record.j is None and record.k is None and record.m is None
            assert record.alice_t_outcome is not None
            assert record.bob_h_outcome in (0, 1)
        else:
            assert record.alice_t_outcome is None and record.bob_h_outcome is None
            assert not record.detection_event
            if record.attacked:
                assert record.j in (0, 1) and record.k in (0, 1)
                assert record.m in (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS)
                assert not record.photon_lost


# --- detection and loss ----------------------------------------------------------


def test_zero_detection_is_exact():
    # anticorrelation survives the attack exactly, not just statistically
    for scheme, eta, fraction in (
        ("improved", 1.0, 1.0),
        ("improved", 0.9, "auto"),
        ("improved-symmetrized", 0.6, 1.0),
        ("none", 0.7, "auto"),
    ):
        stats = cached_stats(
            rounds=20000, seed=5, scheme=scheme, eta=eta, attack_fraction=fraction
        )
        assert stats.n_detection == 0


def test_loss_masquerade_at_auto_fraction():
    # attacked-round losses must hide inside the channel budget 1 - eta
    stats = cached_stats(rounds=100000, seed=17, scheme="improved", eta=0.9)
    assert stats.n_control > 0
    expected = 0.4 * 0.25
    assert abs(stats.control_loss_rate - expected) <= 3.0 * stats.control_loss_se
    assert stats.control_loss_rate <= (1.0 - 0.9) + 3.0 * stats.control_loss_se


def test_plain_channel_loss_rate():
    stats = cached_stats(rounds=40000, seed=23, scheme="none", eta=0.8)
    assert abs(stats.control_loss_rate - 0.2) <= 3.0 * stats.control_loss_se
    # unattacked lost message rounds are recorded and excluded from tables
    assert stats.n_message_unattacked_lost > 0
    assert stats.n_message_attacked == 0
    assert np.all(stats.joint_counts == 0)


def test_attacked_control_marginals():
    stats = cached_stats(
        rounds=100000, seed=29, scheme="improved", eta=1.0, attack_fraction=1.0,
        control_prob=1.0,
    )
    assert stats.n_control == stats.n_rounds
    assert stats.n_control_attacked == stats.n_rounds
    # no-photon probability 1/4
    assert abs(stats.control_loss_rate - 0.25) <= 3.0 * stats.control_loss_se
    assert stats.n_detection == 0


def test_wojcik_control_loss():
    stats = cached_stats(
        rounds=40000, seed=31, scheme="wojcik-reference", eta=0.5, control_prob=1.0
    )
    assert stats.n_control_attacked == stats.n_rounds
    assert abs(stats.control_loss_rate - 0.5) <= 3.0 * stats.control_loss_se
    assert stats.n_detection == 0


# --- message-mode tables ---------------------------------------------------------


MESSAGE_RUN = dict(rounds=100000, seed=101, eta=1.0, attack_fraction=1.0, control_prob=0.0)


def test_plain_attack_table_at_1e5():
    stats = cached_stats(scheme="improved", **MESSAGE_RUN)
    assert stats.n_message_attacked == 100000
    assert stats.n_stray_outcomes == 0
    assert np.all(stats.counts_s_on == 0)
    assert_table_matches(stats.counts_s_off, PLAIN_COND, df_expected=3)


def test_symmetrized_coin_tables_at_1e5():
    stats = cached_stats(scheme="improved-symmetrized", **MESSAGE_RUN)
    # conditioning on the recorded coin recovers each branch table
    assert_table_matches(stats.counts_s_on, SYM_COND, df_expected=3)
    assert_table_matches(stats.counts_s_off, PLAIN_COND, df_expected=3)
    assert_table_matches(stats.joint_counts, MIX_COND, df_expected=6)
    n_on = stats.counts_s_on.sum()
    n_total = stats.n_message_attacked
    assert abs(n_on / n_total - 0.5) <= 3.0 * math.sqrt(0.25 / n_total)


def test_wojcik_message_table_at_1e5():
    stats = cached_stats(scheme="wojcik-reference", **MESSAGE_RUN)
    assert_table_matches(stats.counts_s_off, PLAIN_COND, df_expected=3)


def test_qber_monte_carlo():
    for scheme in ("improved", "improved-symmetrized", "wojcik-reference"):
        stats = cached_stats(scheme=scheme, **MESSAGE_RUN)
        assert abs(stats.qber - 0.25) <= 3.0 * stats.qber_se


def test_bit_zero_rounds_are_error_free():
    records = cached_records(scheme="improved", **MESSAGE_RUN)
    zero_rounds = [r for r in records if r.j == 0]
    assert len(zero_rounds) > 40000
    for record in zero_rounds:
        assert record.k == 0
        assert record.m is BellOutcome.PSI_PLUS


def test_biased_prior_shows_up_in_j_counts():
    stats = cached_stats(
        rounds=40000, seed=37, scheme="improved", eta=1.0, attack_fraction=1.0,
        control_prob=0.0, c0=0.8,
    )
    n0 = stats.joint_counts[0].sum()
    n = stats.joint_counts.sum()
    assert abs(n0 / n - 0.8) <= 3.0 * math.sqrt(0.8 * 0.2 / n)


# --- aggregation and serialization ------------------------------------------------


def test_runstats_bookkeeping():
    stats = cached_stats(rounds=2000, seed=11, scheme="improved", eta=0.9)
    assert stats.n_rounds == 2000
    assert stats.n_control + stats.n_message == stats.n_rounds
    table = stats.conditional_table()
    for j in (0, 1):
        if not math.isnan(table[j, 0, 0]):
            assert abs(table[j].sum() - 1.0) < 1e-12
    payload = stats.to_json_dict()
    assert payload["n_rounds"] == 2000
    assert payload["counts_s_off"][0][0][0] == int(stats.counts_s_off[0, 0, 0])
    assert isinstance(payload["qber"], float) or payload["qber"] is None


def test_run_simulation_equals_aggregate_of_rounds():
    config = ProtocolConfig(rounds=500, seed=3, scheme="improved-symmetrized", eta=0.85)
    direct = run_simulation(config)
    assert direct.to_json_dict() == aggregate(run_rounds(config)).to_json_dict()


def test_chi_squared_helper():
    perfect = (PLAIN_COND * 40000).astype(np.int64)
    stat, df = chi_squared(perfect, PLAIN_COND)
    assert stat == 0.0
    assert df == 3
    stat, df = chi_squared(np.full((2, 2, 2), 1000, dtype=np.int64), MIX_COND)
    assert df == 6
    assert stat > 0.0
    # any observation in a zero-probability cell is an immediate failure
    bad = perfect.copy()
    bad[0, 1, 1] = 1
    stat, _ = chi_squared(bad, PLAIN_COND)
    assert math.isinf(stat)


def test_records_csv_round_trip(tmp_path):
    config = ProtocolConfig(rounds=50, seed=2, scheme="improved-symmetrized", eta=0.8)
    path = tmp_path / "rounds.csv"
    write_records_csv(config, str(path), {"seed": 2, "scheme": "improved-symmetrized"})
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=2"
    assert lines[1] == "# scheme=improved-symmetrized"
    assert lines[2].startswith("round_index,mode,attacked,j,k,m,")
    assert len(lines) == 3 + 50
    assert metadata_lines({"a": True, "b": None}) == ["# a=true", "# b="]

    def text(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return str(value).lower()
        return value.value if isinstance(value, BellOutcome) else str(value)

    rows = list(csv.DictReader(lines[2:]))
    records = run_rounds(config)
    assert len(rows) == len(records)
    for row, record in zip(rows, records):
        assert row["round_index"] == str(record.round_index)
        for field in ("mode", "attacked", "j", "k", "m", "bob_h_outcome", "s_applied",
                      "photon_lost", "detection_event"):
            assert row[field] == text(getattr(record, field)), (field, record)
        t_out = record.alice_t_outcome
        assert row["alice_t_outcome"] == ("" if t_out is None else t_out.label())


@pytest.mark.parametrize("scheme", SCHEMES)
def test_records_csv_matches_per_record_formatting(tmp_path, scheme):
    config = ProtocolConfig(rounds=BLOCK_ROUNDS + 1234, seed=6, scheme=scheme, eta=0.75, c0=0.3)
    assert config.rounds % BLOCK_ROUNDS
    metadata = {"scheme": scheme, "attack_loss": None, "flag": True, "eta": 0.75}
    reference = io.StringIO(newline="")
    reference.writelines(line + "\n" for line in metadata_lines(metadata))
    writer = csv.writer(reference)
    writer.writerow(_CSV_COLUMNS)
    for record in run_rounds(config):
        writer.writerow([_cell(getattr(record, column)) for column in _CSV_COLUMNS])
    path = tmp_path / "rounds.csv"
    write_records_csv(config, str(path), metadata)
    assert path.read_bytes() == reference.getvalue().encode()


def reference_csv(config: ProtocolConfig) -> io.StringIO:
    """Header and rows of a run, each row written by csv.writer from its record."""
    reference = io.StringIO(newline="")
    writer = csv.writer(reference)
    writer.writerow(_CSV_COLUMNS)
    for record in run_rounds(config):
        writer.writerow([_cell(getattr(record, column)) for column in _CSV_COLUMNS])
    return reference


# Rounds next to one and two window bounds from the start of block 0, and
# one round past them from the start of block 1.
@pytest.mark.parametrize(
    "rounds",
    [k * _CSV_WINDOW_ROUNDS + d for k in (1, 2) for d in (-1, 0, 1)]
    + [BLOCK_ROUNDS + k * _CSV_WINDOW_ROUNDS + 1 for k in (1, 2)],
)
def test_records_csv_at_the_chunk_edges(tmp_path, rounds):
    config = ProtocolConfig(rounds=rounds, seed=8, scheme="improved-symmetrized", eta=0.8, c0=0.3)
    path = tmp_path / "rounds.csv"
    write_records_csv(config, str(path), {})
    assert path.read_bytes() == reference_csv(config).getvalue().encode()


@lru_cache(maxsize=None)
def reference_lines(scheme: str, rounds: int) -> tuple[bytes, ...]:
    config = ProtocolConfig(rounds=rounds, seed=8, scheme=scheme, eta=0.8, c0=0.3)
    return tuple(reference_csv(config).getvalue().encode().splitlines(keepends=True))


def assert_csv_is_a_reference_prefix(tmp_path, scheme: str, rounds: int, longest: int) -> None:
    """The CSV of a run of ``rounds`` against the header and first rows of
    the per-record reference of a run of ``longest`` rounds, which holds it
    as a prefix (test_shorter_run_is_a_prefix)."""
    config = ProtocolConfig(rounds=rounds, seed=8, scheme=scheme, eta=0.8, c0=0.3)
    path = tmp_path / "rounds.csv"
    write_records_csv(config, str(path), {})
    assert path.read_bytes() == b"".join(reference_lines(scheme, longest)[:1 + rounds])


# Round indices of one digit, and of four and five digits around the first
# index that prints a prefix i // 10**4 above its zero-padded low digits.
@pytest.mark.parametrize("rounds", [1, _INDEX_LOW - 1, _INDEX_LOW, _INDEX_LOW + 1])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_records_csv_at_the_index_digit_edges(tmp_path, scheme, rounds):
    assert_csv_is_a_reference_prefix(tmp_path, scheme, rounds, _INDEX_LOW + 1)


# A window of the CSV body ends at a block edge, at a multiple of 10**4, or
# _CSV_WINDOW_ROUNDS rounds after either.  The edges: the first two block
# edges, the 10**4 edge inside block 1 and the window after it, the block
# edge before 10**5, and 10**5 itself, the first six-digit index.
WINDOW_EDGES = [
    BLOCK_ROUNDS,
    2 * _INDEX_LOW,
    2 * _INDEX_LOW + _CSV_WINDOW_ROUNDS,
    2 * BLOCK_ROUNDS,
    6 * BLOCK_ROUNDS,
    10 * _INDEX_LOW,
]


@pytest.mark.parametrize("rounds", sorted(edge + d for edge in WINDOW_EDGES for d in (-1, 0, 1)))
def test_records_csv_at_the_window_edges(tmp_path, rounds):
    assert_csv_is_a_reference_prefix(
        tmp_path, "improved-symmetrized", rounds, 10 * _INDEX_LOW + 1
    )


@pytest.mark.parametrize("text", [",control,\0\r\n", ",contr\u00f4le\r\n"])
def test_records_csv_refuses_a_row_text_it_cannot_compact(tmp_path, monkeypatch, text):
    # The body drops every NUL byte of its byte grid, so a row text must be
    # ASCII without NUL; the check runs before the file is opened.
    monkeypatch.setattr(protocol, "_row_text", lambda cell: text)
    config = ProtocolConfig(rounds=10, seed=8)
    path = tmp_path / "rounds.csv"
    with pytest.raises(ValueError):
        write_records_csv(config, str(path), {})
    assert not path.exists()


def test_wojcik_replay_is_deterministic():
    config = ProtocolConfig(rounds=1, seed=9, scheme="wojcik-reference", eta=0.4)
    record = replay_round(config, 0)
    assert record == replay_round(config, 0)
    assert record == run_rounds(config)[0]
    assert record.round_index == 0
    numpy_index = replay_round(config, np.int64(0))
    assert numpy_index == record and type(numpy_index.round_index) is int
    for outside in (-1, 1):
        with pytest.raises(IndexError):
            replay_round(config, outside)
    for not_an_index in (True, False, 0.0, "0", None):
        with pytest.raises(ValueError, match="round_index"):
            replay_round(config, not_an_index)


# --- block stream ----------------------------------------------------------------


def test_replay_round_matches_the_run():
    config = ProtocolConfig(
        rounds=2 * BLOCK_ROUNDS + 37, seed=12, scheme="improved-symmetrized", eta=0.8, c0=0.3
    )
    records = run_rounds(config)
    for i in (0, BLOCK_ROUNDS - 1, BLOCK_ROUNDS, config.rounds - 1):
        assert replay_round(config, i) == records[i]


def test_shorter_run_is_a_prefix():
    def config(rounds):
        return ProtocolConfig(rounds=rounds, seed=8, scheme="wojcik-reference", eta=0.7)

    short, long = BLOCK_ROUNDS + 999, 2 * BLOCK_ROUNDS + 5
    assert short % BLOCK_ROUNDS
    records = run_rounds(config(short))
    assert records == run_rounds(config(long))[:short]
    assert run_simulation(config(short)).to_json_dict() == aggregate(records).to_json_dict()


def test_outputs_are_plain_python_types():
    config = ProtocolConfig(rounds=3000, seed=4, scheme="improved-symmetrized", eta=0.8, c0=0.3)
    allowed = {
        "round_index": (int,),
        "mode": (str,),
        "attacked": (bool,),
        "j": (int, type(None)),
        "k": (int, type(None)),
        "m": (BellOutcome, type(None)),
        "alice_t_outcome": (Occupation, type(None)),
        "bob_h_outcome": (int, type(None)),
        "s_applied": (bool, type(None)),
        "photon_lost": (bool,),
        "detection_event": (bool,),
    }
    for record in run_rounds(config):
        for field, types in allowed.items():
            assert type(getattr(record, field)) in types, (field, record)
    stats = run_simulation(config)
    for field in RunStats.__dataclass_fields__:
        if field.startswith("n_"):
            assert type(getattr(stats, field)) is int, field
    json.dumps(stats.to_json_dict())


def test_readme_table_figures():
    # README's count of straddling buckets for the symmetrized attack, at
    # each prior it names, and its bound on a run's distinct CSV rows, which
    # no scheme exceeds and one reaches on the corners of the config space.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = " ".join(readme.split())
    counts = re.findall(r"(\d+) of 4096 (?:for the symmetrized attack )?at `--c0 (\S+)`", text)
    assert len(counts) == 2
    for count, c0 in counts:
        config = ProtocolConfig(rounds=1, seed=0, c0=float(c0), scheme="improved-symmetrized")
        assert _RoundTable(config).straddles.sum() == int(count), c0
    most = int(re.search(r"at most (\d+) distinct rows", text)[1])
    corners = (0.0, 0.3, 1.0)
    rows = [
        len(set(_RoundTable(ProtocolConfig(1, 0, c0, control, eta, scheme, fraction)).cells))
        for scheme in SCHEMES
        for c0, control, eta in itertools.product(corners, repeat=3)
        for fraction in (*corners, "auto")
    ]
    assert max(rows) == most
