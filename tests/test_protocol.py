"""Monte Carlo protocol tests: determinism, loss accounting, exact-table recovery.

Empirical checks run at 10^5 rounds and compare against the exact
conditional tables within 3 standard errors per cell plus a chi-squared
test at the 99.9% quantile, per the stated validation contract.
"""

from __future__ import annotations

import collections
import csv
import dataclasses
import io
import itertools
import json
import math
import re
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from pingpong_eve import protocol
from pingpong_eve.attacks import (
    CONTROL_T_H,
    control_outcomes,
    improved_profile,
    message_amps,
    message_outcome_stack,
    wojcik_profile,
)
from pingpong_eve.engine import BellOutcome, Occupation
from pingpong_eve.information import conditionals
from pingpong_eve.protocol import (
    _CSV_COLUMNS,
    _CSV_WINDOW_ROUNDS,
    _INDEX_DIGITS,
    _INDEX_LOW,
    BLOCK_ROUNDS,
    SCHEMES,
    ProtocolConfig,
    RoundRecord,
    RunStats,
    _BRANCH_CELLS,
    _M_BIT,
    _branch_weights,
    _cell,
    _RoundTable,
    _round_table,
    _row_table,
    _threshold,
    _window_body,
    aggregate,
    max_attack_fraction,
    metadata_lines,
    replay_round,
    round_rng,
    run_rounds,
    run_simulation,
    write_records_csv,
)

from oracles import chi_squared, sample

PLAIN_COND = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.25, 0.25], [0.25, 0.25]]])
SYM_COND = PLAIN_COND[::-1, ::-1, ::-1].copy()
MIX_COND = 0.5 * (PLAIN_COND + SYM_COND)


@lru_cache(maxsize=None)
def cached_records(**kwargs) -> tuple[RoundRecord, ...]:
    return tuple(run_rounds(ProtocolConfig(**kwargs)))


def cached_stats(**kwargs):
    return aggregate(cached_records(**kwargs))


def chi2_survival(x: float, df: int) -> float:
    """P(X > x) for X chi-squared with a positive integer df, in closed
    form: Q(x; 1) = erfc(sqrt(x / 2)), Q(x; 2) = exp(-x / 2), and
    Q(x; k + 2) = Q(x; k) + (x / 2)**(k / 2) exp(-x / 2) / Gamma(k / 2 + 1),
    a sum of positive terms."""
    if df < 1:
        raise ValueError(f"df must be a positive integer, got {df!r}")
    if x <= 0.0:
        return 1.0
    half = x / 2
    q, k = (math.erfc(math.sqrt(half)), 1) if df % 2 else (math.exp(-half), 2)
    for k in range(k, df, 2):
        q += math.exp(k / 2 * math.log(half) - half - math.lgamma(k / 2 + 1))
    return q


def chi2_quantile(p: float, df: int) -> float:
    """The p-quantile of the chi-squared distribution with integer df, by
    bisection on its survival function until the bracket stops shrinking."""
    tail = 1.0 - p
    lo, hi = 0.0, 1.0
    while chi2_survival(hi, df) > tail:
        lo, hi = hi, 2 * hi
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return hi
        if chi2_survival(mid, df) > tail:
            lo = mid
        else:
            hi = mid


def test_chi2_quantile_matches_scipy():
    # scipy.special holds the routine behind scipy.stats.chi2.ppf and
    # imports in a fraction of the time.
    special = pytest.importorskip("scipy.special")
    for df in range(1, 41):
        expected = special.chdtri(df, 1.0 - 0.999)
        assert chi2_quantile(0.999, df) == pytest.approx(expected, rel=1e-12, abs=0.0), df
    with pytest.raises(ValueError):
        chi2_quantile(0.999, 0)


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
    assert stat <= chi2_quantile(0.999, df)


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


def test_schemes_are_the_cli_choices_in_order():
    assert SCHEMES == ("none", "improved", "improved-symmetrized", "wojcik-reference")


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


# Round offsets either side of the chunk edges, and deep inside the stream.
JUMPS = (0, 1, BLOCK_ROUNDS - 1, BLOCK_ROUNDS, BLOCK_ROUNDS + 1, 3 * BLOCK_ROUNDS + 5, 10**12 + 3)


def test_round_rng_jumps_ahead():
    """The first output of round_rng(s, a + b) is output b of round_rng(s, a)."""
    for a in JUMPS:
        ahead = round_rng(5, a).random_raw(2 * BLOCK_ROUNDS + 2)
        for b in (0, 1, BLOCK_ROUNDS - 1, BLOCK_ROUNDS, 2 * BLOCK_ROUNDS + 1):
            assert round_rng(5, a + b).random_raw(1)[0] == ahead[b], (a, b)
    # A numpy integer start jumps as far as the Python int.
    for start in (np.int64(3), np.uint64(16384), np.int64(10**12)):
        expected = round_rng(5, int(start)).random_raw(4)
        assert np.array_equal(round_rng(5, start).random_raw(4), expected), start


def test_round_rng_is_the_default_rng_stream():
    """Round i of seed s reads output i of np.random.default_rng(s)."""
    for seed in (0, 5, 2**63):
        expected = np.random.default_rng(seed).bit_generator.random_raw(BLOCK_ROUNDS + 3)
        assert np.array_equal(round_rng(seed, 0).random_raw(BLOCK_ROUNDS + 3), expected)


def test_round_rng_seeds_give_different_streams():
    streams = [round_rng(seed, start).random_raw(8).tolist()
               for seed in (0, 1, 5, 6) for start in (0, BLOCK_ROUNDS)]
    assert len({tuple(stream) for stream in streams}) == len(streams)
    assert round_rng(5, 7).random_raw(8).tolist() == round_rng(5, 7).random_raw(8).tolist()


def test_round_rng_random_is_the_53_bit_draw():
    # The sampler reads the 53-bit integers behind random() directly.
    floats, raw = np.random.Generator(round_rng(5, 7)), round_rng(5, 7)
    for _ in range(3):
        assert floats.random() == (raw.random_raw() >> 11) * 2.0**-53
    assert np.array_equal(floats.random(1000), (raw.random_raw(1000) >> 11) * 2.0**-53)


def combined_bounds(config: ProtocolConfig) -> np.ndarray:
    """Inner bounds of the normalized CDF of the run's one table: each
    branch's cells of positive weight, weighted by the branch's probability
    times their normalized weight, and those of probability zero dropped."""
    control, attacked = config.control_prob, config.resolved_attack_fraction()
    branch_probs = (control * (1.0 - attacked), control * attacked,
                    (1.0 - control) * (1.0 - attacked), (1.0 - control) * attacked)
    probs = []
    for p_branch, weighted in zip(branch_probs, _branch_weights(config.scheme, config.eta, config.c0)):
        kept = [p for p in weighted if p > 0.0]
        probs += [p_branch * (p / sum(kept)) for p in kept]
    cdf = np.cumsum([p for p in probs if p > 0.0])
    return cdf[:-1] / cdf[-1]


def float_sample(config: ProtocolConfig, rng, n: int) -> np.ndarray:
    """Reference block sampler on floats: one uniform per round, then a
    searchsorted on the normalized CDF of the run's one table."""
    return np.searchsorted(combined_bounds(config), rng.random(n), side="right")


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


# Each scheme's attack and P(heads) of its symmetrization coin.
SCHEME_ATTACKS = {"none": (None, 0.0), "improved": ("improved", 0.0),
                  "improved-symmetrized": ("improved", 0.5),
                  "wojcik-reference": ("wojcik", 0.0)}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_branch_weights_line_up_with_the_branch_cells(scheme):
    """Each branch's weights are one per cell, in its cells' order: control
    cells in CONTROL_T_H order, the plain message cells with the lost photon
    first and then (j, m) in BellOutcome order, and the attacked message
    cells over (j, coin, k, m) in ravel order."""
    config = ProtocolConfig(rounds=1, seed=0, scheme=scheme, c0=0.3, eta=0.85)
    weights = _branch_weights(config.scheme, config.eta, config.c0)
    attacked = SCHEME_ATTACKS[scheme][0] is not None
    for branch, (cells, weighted) in enumerate(zip(_BRANCH_CELLS, weights)):
        # A scheme with no attack weighs no attacked cell.
        expected = len(cells) if attacked or branch % 2 == 0 else 0
        assert len(weighted) == expected, branch
    control_plain, control_attacked, message, message_attacked = _BRANCH_CELLS
    for flag, cells in ((False, control_plain), (True, control_attacked)):
        assert [(c.mode, c.attacked) for c in cells] == [("control", flag)] * len(CONTROL_T_H)
        assert [(c.alice_t_outcome, c.bob_h_outcome) for c in cells] == list(CONTROL_T_H)
    assert [(c.mode, c.attacked) for c in message] == [("message", False)] * len(message)
    no_photon = (None, BellOutcome.NO_PHOTON, True)
    assert [(c.j, c.m, c.photon_lost) for c in message] == [no_photon] + [
        (j, m, False) for j in (0, 1) for m in BellOutcome]
    assert {(c.mode, c.attacked) for c in message_attacked} == {("message", True)}
    assert [(c.j, c.s_applied, c.k, _M_BIT[c.m]) for c in message_attacked] == list(
        np.ndindex(2, 2, 2, 2))
    assert {type(c.s_applied) for c in message_attacked} == {bool}


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("c0, eta", [(0.3, 0.85), (0.5, 0.8), (1.0, 0.0)])
def test_branch_weights_are_each_cells_exact_product(scheme, c0, eta):
    """Every weight is its cell's exact probability times its factors, in
    the association that the pinned digests hold: (1 - eta)/2 + eta*p for
    a lost control photon, 0.0 + eta*p for any other plain control cell,
    (eta*p_j)*p for a plain message cell and (p_j*p_s)*p for an attacked one."""
    config = ProtocolConfig(rounds=1, seed=0, scheme=scheme, c0=c0, eta=eta)
    attack, p_heads = SCHEME_ATTACKS[scheme]
    eta = eta if attack is None else 1.0
    priors = (c0, 1.0 - c0)
    plain_rows = message_outcome_stack(message_amps(attack=None)).sum(axis=1).tolist()
    control_plain, control_attacked, message, message_attacked = _branch_weights(config.scheme, config.eta, config.c0)
    assert control_plain == [
        ((1.0 - eta) / 2 if c.alice_t_outcome is Occupation.VAC else 0.0) + eta * p
        for c, p in zip(_BRANCH_CELLS[0], control_outcomes(None))]
    assert message == [1.0 - eta] + [
        (eta * priors[c.j]) * plain_rows[c.j][list(BellOutcome).index(c.m)]
        for c in _BRANCH_CELLS[2][1:]]
    if attack is None:
        return
    assert control_attacked == list(control_outcomes(attack))
    tables = conditionals(attack)
    assert message_attacked == [
        (priors[c.j] * (p_heads if c.s_applied else 1.0 - p_heads))
        * tables["symmetrized" if c.s_applied else "plain"][c.j, c.k, _M_BIT[c.m]]
        for c in _BRANCH_CELLS[3]]


@pytest.mark.usefixtures("fresh_tables")
@pytest.mark.parametrize("scheme", ["improved", "improved-symmetrized"])
def test_attacked_weights_read_the_coin_sides_table_at_j(scheme, monkeypatch):
    """The attack's own tables hold plain[1] == symmetrized[0], so a j/coin
    mix-up would leave their weights as they are; tables with distinct
    entries tell every (j, coin, k, m) cell apart."""
    tables = {"plain": np.arange(1.0, 9.0).reshape(2, 2, 2) / 36,
              "symmetrized": np.arange(9.0, 17.0).reshape(2, 2, 2) / 100}
    monkeypatch.setattr(protocol, "conditionals", lambda attack: tables)
    p_heads = SCHEME_ATTACKS[scheme][1]
    config = ProtocolConfig(rounds=1, seed=0, scheme=scheme, c0=0.3)
    priors = (0.3, 1.0 - 0.3)
    assert _branch_weights(config.scheme, config.eta, config.c0)[3] == [
        (priors[c.j] * (p_heads if c.s_applied else 1.0 - p_heads))
        * tables["symmetrized" if c.s_applied else "plain"][c.j, c.k, _M_BIT[c.m]]
        for c in _BRANCH_CELLS[3]]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_table_keys_are_the_references_bounds(scheme):
    """The table's keys are exactly the thresholds of the reference's
    normalized CDF, whose branch totals are summed left to right."""
    for config in reference_configs(scheme) + [
        ProtocolConfig(rounds=1, seed=0, scheme=scheme, c0=c0, eta=0.8, attack_fraction=0.4)
        for c0 in (0.1, 0.3, 0.7)
    ]:
        table = _round_table(config)
        assert table.keys.tolist() == _threshold(combined_bounds(config)).tolist(), config


@pytest.mark.parametrize("scheme", SCHEMES)
def test_sampler_equals_the_float_reference(scheme):
    for config in reference_configs(scheme):
        table = _round_table(config)
        for block, n in ((0, 1), (1, BLOCK_ROUNDS - 1), (2, BLOCK_ROUNDS)):
            stream = np.random.Generator(round_rng(config.seed, block * BLOCK_ROUNDS))
            expected = float_sample(config, stream, n)
            assert np.array_equal(sample(table, config.seed, block, n), expected), (config, block, n)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_sampling_chunks_out_of_order_equals_the_run(scheme):
    """Chunks sampled 2, 0, 1, each from a stream advanced to it, equal the
    run's chunks, read in order from one stream."""
    config = ProtocolConfig(rounds=3 * BLOCK_ROUNDS, seed=11, scheme=scheme, eta=0.8, c0=0.3)
    table = _round_table(config)
    shuffled = {block: sample(table, config.seed, block, BLOCK_ROUNDS) for block in (2, 0, 1)}
    in_order = [cells for _, cells in table.blocks(config.seed, config.rounds)]
    assert len(in_order) == 3
    for block, cells in enumerate(in_order):
        assert np.array_equal(shuffled[block], cells), block


def test_cells_of_leaves_the_outputs_as_they_are():
    """The sampler reads the stream's outputs without shifting them, so the
    same outputs give the same cells twice."""
    table = _round_table(ProtocolConfig(rounds=1, seed=0, c0=0.3, eta=0.85))
    raw = round_rng(3, 0).random_raw(4096)
    kept = raw.copy()
    first = table.cells_of(raw)
    assert np.array_equal(raw, kept)
    assert np.array_equal(table.cells_of(raw), first)


class ReplayedDraws:
    """A stand-in for the run's stream: it emits fixed 64-bit outputs in
    order from its position, both raw and as PCG64's random() makes floats
    of them, and records each raw request.  ``open`` stands in for
    ``round_rng``: it records the start of each stream opened and returns a
    stand-in positioned there, which shares the record of requests."""

    def __init__(self, raw: np.ndarray, position: int = 0) -> None:
        self.raw = raw
        self.position = position
        self.starts: list[int] = []
        self.requests: list[int] = []

    def open(self, seed: int, start: int) -> ReplayedDraws:
        self.starts.append(start)
        stream = ReplayedDraws(self.raw, start)
        stream.requests = self.requests
        return stream

    def _next(self, size: int) -> np.ndarray:
        assert self.position + size <= self.raw.size, "read past the replayed outputs"
        self.position += size
        return self.raw[self.position - size:self.position]

    def random_raw(self, size: int) -> np.ndarray:
        self.requests.append(size)
        return self._next(size).copy()

    def random(self, size: int) -> np.ndarray:
        return (self._next(size) >> 11) * 2.0**-53


def replay(raw: np.ndarray, monkeypatch) -> ReplayedDraws:
    """Make every stream of every run read the 64-bit outputs ``raw``."""
    replayed = ReplayedDraws(raw)
    monkeypatch.setattr(protocol, "round_rng", replayed.open)
    return replayed


def outputs(ks) -> np.ndarray:
    """64-bit outputs whose 53-bit draws are ``ks``; the low 11 bits of each
    output are not part of the draw."""
    return (np.array(ks, dtype=np.uint64) << np.uint64(11)) | np.uint64(0x5A5)


def assert_samples_draws(config: ProtocolConfig, ks, monkeypatch) -> np.ndarray:
    """Sample and count block 0 from the 53-bit draws ``ks``: hold the cells
    to the float reference, the per-bucket counts to those cells, and each
    path to one stream opened at round 0 and one raw request for the block."""
    raw = outputs(ks)
    replayed = replay(raw, monkeypatch)
    table = _round_table(config)
    cells = sample(table, config.seed, 0, raw.size)
    assert replayed.starts == [0] and replayed.requests == [raw.size]
    assert np.array_equal(cells, float_sample(config, ReplayedDraws(raw), raw.size))
    counts = table.count(config.seed, raw.size)
    assert replayed.starts == [0] * 2 and replayed.requests == [raw.size] * 2
    assert np.array_equal(counts, np.bincount(cells, minlength=len(table.cells)))
    return cells


def straddle(keys) -> list[int]:
    """The 53-bit draws one unit either side of each key, and the key."""
    near = {int(key) + d for key in keys for d in (-1, 0, 1)}
    return sorted(k for k in near if 0 <= k < 2**53)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_sampler_at_the_draw_boundaries(scheme, monkeypatch):
    """Draws one unit either side of every inner bound of the run's table,
    each of which starts the cell past it."""
    config = ProtocolConfig(rounds=1, seed=0, scheme=scheme, c0=0.3, eta=0.85,
                            control_prob=0.3, attack_fraction=0.4)
    bounds = combined_bounds(config)
    assert bounds.size == len(_round_table(config).cells) - 1
    ks = straddle(math.ceil(bound * 2**53) for bound in bounds.tolist())
    cells = assert_samples_draws(config, ks, monkeypatch)
    # every cell of the table is picked: the first below the first bound's
    # key, each other one from its bound's key on
    assert np.array_equal(np.unique(cells), np.arange(bounds.size + 1))


# A bucket holds the draws that share their top 12 of 53 bits.
BUCKET_WIDTH = 1 << 41
BUCKETS = 1 << 12
# A prior whose inner bound is the last draw of a bucket, when the prior is
# the table's only inner bound: every round is an unattacked message round
# on a lossless channel, so the cells are (j=0, psi+) and (j=1, psi-).
LAST_KEY_C0 = (5 * BUCKET_WIDTH - 1) / 2**53


def brute_force_cells(keys: np.ndarray, table: _RoundTable) -> np.ndarray:
    """The number of table keys at or below each draw."""
    return (table.keys[None, :] <= keys[:, None]).sum(axis=1)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_bucket_table_invariants(scheme):
    """A bucket is marked straddling exactly when its first and last draws
    pick different cells, and its entry is the cell of its first draw."""
    first = np.arange(BUCKETS, dtype=np.int64) * BUCKET_WIDTH
    last_key = ProtocolConfig(rounds=1, seed=17, scheme=scheme, c0=LAST_KEY_C0, eta=1.0,
                              control_prob=0.0, attack_fraction=0.0)
    assert _round_table(last_key).keys.tolist() == [5 * BUCKET_WIDTH - 1]
    for config in reference_configs(scheme) + [last_key]:
        table = _round_table(config)
        at_first = brute_force_cells(first, table)
        at_last = brute_force_cells(first + BUCKET_WIDTH - 1, table)
        assert table.bucket_cell.dtype == np.intp
        assert np.array_equal(table.bucket_cell, at_first), config
        assert np.array_equal(table.straddles, at_first != at_last), config


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize(
    "kwargs",
    [
        {"c0": 0.3, "eta": 0.85, "control_prob": 0.3, "attack_fraction": 0.4},
        # inner CDF bounds land exactly on bucket edges
        {"c0": 0.5, "eta": 1.0, "control_prob": 0.5, "attack_fraction": 0.25},
        {"c0": 0.5, "eta": 0.75, "control_prob": 0.5, "attack_fraction": 0.25},
        {"c0": LAST_KEY_C0, "eta": 1.0, "control_prob": 0.0, "attack_fraction": 0.0},
    ],
)
def test_sampler_at_the_bucket_edges(scheme, kwargs, monkeypatch):
    """Draws one unit either side of the start and the end of every bucket
    that holds a table key and of a spread of other buckets."""
    config = ProtocolConfig(rounds=1, seed=0, scheme=scheme, **kwargs)
    table = _round_table(config)
    if kwargs["c0"] == 0.5:
        assert (table.keys % BUCKET_WIDTH == 0).any()
    holding = (table.keys // BUCKET_WIDTH).tolist()
    buckets = {*holding, *(m + 1 for m in holding), *range(0, BUCKETS, 61), BUCKETS - 1}
    ks = straddle(m * BUCKET_WIDTH for m in buckets)
    assert len(ks) > len(buckets)
    assert_samples_draws(config, ks, monkeypatch)


def test_a_bound_rounded_to_one_ends_the_table(monkeypatch):
    """At a subnormal prior, control and channel probability, the message
    cells of bit 1 weigh about 1e-308 against the lost photon's 1.0, so the
    bound before them rounds to 1.0.  Its key is 2**53, above every draw:
    the table builds, and those cells are never picked."""
    tiny = 1.1125369292536007e-308
    config = ProtocolConfig(rounds=1, seed=0, scheme="none", c0=tiny, control_prob=tiny,
                            eta=tiny)
    table = _round_table(config)
    assert table.keys.max() == 2**53
    past = int(np.searchsorted(table.keys, 2**53)) + 1
    assert past < len(table.cells)
    assert all(cell.j == 1 for cell in table.cells[past:])
    assert table.bucket_cell.max() < past
    cells = assert_samples_draws(config, [*straddle(table.keys), 2**53 - 1], monkeypatch)
    assert cells.max() == past - 1


# Run lengths at the block edges, for the per-bucket counter.
COUNT_ROUNDS = (1, BLOCK_ROUNDS - 1, BLOCK_ROUNDS, BLOCK_ROUNDS + 1, 2 * BLOCK_ROUNDS + 37)


def sampled_counts(table: _RoundTable, seed: int, rounds: int) -> np.ndarray:
    """Cell counts of a run, counted from the cell the sampler gives each round."""
    cells = np.concatenate([cells for _, cells in table.blocks(seed, rounds)])
    return np.bincount(cells, minlength=len(table.cells))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_counting_per_bucket_equals_counting_the_sampled_cells(scheme):
    for config in reference_configs(scheme):
        table = _round_table(config)
        for rounds in COUNT_ROUNDS:
            counts = table.count(config.seed, rounds)
            assert counts.dtype == np.int64 and counts.sum() == rounds, (config, rounds)
            assert np.array_equal(counts, sampled_counts(table, config.seed, rounds)), (config, rounds)


def test_counting_cells_that_start_no_bucket():
    """At a prior of 1e-6 the attacked message cells of bit 0 all lie in the
    first bucket, so all but the first start no bucket: their runs of
    buckets are empty, and they count only the searched rounds."""
    config = ProtocolConfig(rounds=2 * BLOCK_ROUNDS + 37, seed=4, scheme="improved-symmetrized",
                            c0=1e-6, control_prob=0.0, attack_fraction=1.0)
    table = _round_table(config)
    starting = set(table.bucket_cell.tolist())
    startless = [c for c in range(len(table.cells) - 1) if c not in starting]
    assert startless and table.straddles[0] and not table.straddles[1]
    counts = table.count(config.seed, config.rounds)
    assert np.array_equal(counts, sampled_counts(table, config.seed, config.rounds))


def test_counting_requests_one_raw_block_per_block(monkeypatch):
    """A run of two chunks and 37 rounds opens one stream, at round 0, and
    reads it in three requests; each chunk is counted from its own outputs."""
    config = ProtocolConfig(rounds=1, seed=0, scheme="improved-symmetrized", c0=0.3, eta=0.85,
                            control_prob=0.3, attack_fraction=0.4)
    block = round_rng(9, 0).random_raw(BLOCK_ROUNDS)
    raw = np.concatenate([block, block, block[:37]])
    replayed = replay(raw, monkeypatch)
    counts = _round_table(config).count(config.seed, 2 * BLOCK_ROUNDS + 37)
    assert replayed.starts == [0]
    assert replayed.requests == [BLOCK_ROUNDS, BLOCK_ROUNDS, 37]
    size = len(_round_table(config).cells)
    whole, head = (
        np.bincount(float_sample(config, ReplayedDraws(block), n), minlength=size)
        for n in (BLOCK_ROUNDS, 37)
    )
    assert np.array_equal(counts, 2 * whole + head)


def test_cells_past_a_key_of_2_53_count_zero(monkeypatch):
    """The table of ``test_a_bound_rounded_to_one_ends_the_table``: no run
    counts a round in the cells past its key 2**53, not even from the top
    draw of every bucket."""
    tiny = 1.1125369292536007e-308
    config = ProtocolConfig(rounds=2 * BLOCK_ROUNDS + 37, seed=3, scheme="none", c0=tiny,
                            control_prob=tiny, eta=tiny)
    table = _round_table(config)
    past = int(np.searchsorted(table.keys, 2**53)) + 1
    counts = table.count(config.seed, config.rounds)
    assert counts[past:].tolist() == [0] * (len(table.cells) - past)
    assert np.array_equal(counts, sampled_counts(table, config.seed, config.rounds))
    tops = np.arange(1, BUCKETS + 1, dtype=np.int64) * BUCKET_WIDTH - 1
    replay(outputs(tops), monkeypatch)
    counts = table.count(config.seed, tops.size)
    assert counts[past:].tolist() == [0] * (len(table.cells) - past)
    assert counts[past - 1] > 0 and counts.sum() == tops.size


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


def numpy_json_dict(stats: RunStats) -> dict:
    """The stats dictionary as numpy builds it: the conditional table and its
    standard errors from the count arrays, NaN rows written as None."""
    payload = {field: getattr(stats, field) for field in RunStats.__dataclass_fields__}
    payload["counts_s_off"] = stats.counts_s_off.tolist()
    payload["counts_s_on"] = stats.counts_s_on.tolist()
    for name in ("control_loss_rate", "control_loss_se", "detection_rate", "detection_se",
                 "qber", "qber_se"):
        value = getattr(stats, name)
        payload[name] = None if math.isnan(value) else value
    counts = stats.joint_counts
    table = np.full((2, 2, 2), math.nan)
    for j in (0, 1):
        n_j = counts[j].sum()
        if n_j > 0:
            table[j] = counts[j] / n_j
    se = np.sqrt(table * (1.0 - table) / counts.sum(axis=(1, 2))[:, None, None])
    for name, values in (("conditional_table", table), ("conditional_se", se)):
        payload[name] = [[[None if math.isnan(v) else v for v in row] for row in block]
                         for block in values.tolist()]
    return payload


@pytest.mark.parametrize("rounds", [1, 100001])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_stats_dict_equals_the_numpy_oracle(scheme, rounds):
    stats = run_simulation(ProtocolConfig(rounds=rounds, seed=21, scheme=scheme, eta=0.8))
    payload = stats.to_json_dict()
    assert payload == numpy_json_dict(stats)
    assert np.array_equal(stats.conditional_table(), np.array(payload["conditional_table"],
                                                              dtype=float), equal_nan=True)
    empty = [n_j == 0 for n_j in stats.joint_counts.sum(axis=(1, 2)).tolist()]
    # Without an attack no row is filled; one round fills at most one row,
    # and 100001 rounds fill both.
    if scheme == "none":
        assert all(empty)
    else:
        assert any(empty) if rounds == 1 else not any(empty)
    for j, row_is_empty in enumerate(empty):
        if row_is_empty:
            assert payload["conditional_table"][j] == [[None, None], [None, None]]
            assert payload["conditional_se"][j] == [[None, None], [None, None]]


def test_run_simulation_equals_aggregate_of_rounds():
    config = ProtocolConfig(rounds=500, seed=3, scheme="improved-symmetrized", eta=0.85)
    direct = run_simulation(config)
    assert direct.to_json_dict() == aggregate(run_rounds(config)).to_json_dict()


def hand_record(mode, attacked, j=None, k=None, m=None, t=None, h=None, s=None,
                lost=False, detection=False) -> RoundRecord:
    return RoundRecord(0, mode, attacked, j, k, m, t, h, s, lost, detection)


PSI_PLUS, PSI_MINUS = BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS
MESSAGE = dict(n_rounds=1, n_message=1)
ATTACKED_MESSAGE = dict(MESSAGE, n_message_attacked=1)
STRAY = dict(ATTACKED_MESSAGE, n_stray_outcomes=1)
# One hand-built record per way a round reaches the counters, with every
# count it adds; the (j, k, m) keys are the cells of counts_s_off and
# counts_s_on.
HAND_RECORDS = {
    "phi-outcome": (hand_record("message", True, 0, 0, BellOutcome.PHI_PLUS, s=False),
                    dict(STRAY, n_qber_errors=1)),
    "no-photon-outcome": (hand_record("message", True, 1, 1, BellOutcome.NO_PHOTON),
                          dict(STRAY, n_qber_errors=1)),
    "no-register-bit": (hand_record("message", True, 0, None, PSI_PLUS, s=False), STRAY),
    "qber-error": (hand_record("message", True, 1, 0, PSI_PLUS, s=True),
                   dict(ATTACKED_MESSAGE, n_qber_errors=1, on={(1, 0, 0): 1})),
    "coin-off": (hand_record("message", True, 0, 0, PSI_PLUS, s=False),
                 dict(ATTACKED_MESSAGE, off={(0, 0, 0): 1})),
    "no-coin": (hand_record("message", True, 1, 1, PSI_MINUS, s=None),
                dict(ATTACKED_MESSAGE, off={(1, 1, 1): 1})),
    "coin-on": (hand_record("message", True, 0, 1, PSI_MINUS, s=True),
                dict(ATTACKED_MESSAGE, n_qber_errors=1, on={(0, 1, 1): 1})),
    "unattacked-lost-message": (
        hand_record("message", False, m=BellOutcome.NO_PHOTON, lost=True),
        dict(MESSAGE, n_message_unattacked_lost=1),
    ),
    "unattacked-message": (hand_record("message", False, 0, None, PSI_PLUS), MESSAGE),
    "attacked-detection": (
        hand_record("control", True, t=Occupation.POL0, h=0, detection=True),
        dict(n_rounds=1, n_control=1, n_control_attacked=1, n_detection=1),
    ),
    "attacked-lost-control": (
        hand_record("control", True, t=Occupation.VAC, h=1, lost=True),
        dict(n_rounds=1, n_control=1, n_control_attacked=1, n_control_lost=1),
    ),
    "unattacked-control": (hand_record("control", False, t=Occupation.POL1, h=0),
                           dict(n_rounds=1, n_control=1)),
}


def assert_counts(stats: RunStats, off=(), on=(), **counters) -> None:
    """Every count of ``stats``: the named counters, 0 for the others, and
    the (j, k, m) cells of its two tables, 0 outside ``off`` and ``on``."""
    names = [name for name in RunStats.__dataclass_fields__ if name.startswith("n_")]
    assert len(names) == 10 and set(counters) <= set(names)
    for name in names:
        value = getattr(stats, name)
        assert type(value) is int and value == counters.get(name, 0), name
    for table, cells in ((stats.counts_s_off, off), (stats.counts_s_on, on)):
        expected = np.zeros((2, 2, 2), dtype=np.int64)
        for cell, n in dict(cells).items():
            expected[cell] = n
        assert table.dtype == np.int64 and np.array_equal(table, expected)


@pytest.mark.parametrize("case", HAND_RECORDS)
def test_aggregate_counts_each_kind_of_round(case):
    record, counts = HAND_RECORDS[case]
    assert_counts(aggregate([record]), **counts)


def test_aggregate_counts_an_attacked_message_with_no_bit_and_no_j():
    # No decoded bit is a decode error even where the round carries no j.
    record = hand_record("message", True, m=BellOutcome.NO_PHOTON)
    assert_counts(aggregate([record]), **dict(STRAY, n_qber_errors=1))


def test_aggregate_counts_a_mixed_stream():
    # Each kind of round 1 + i % 3 times, interleaved.
    times = {case: 1 + i % 3 for i, case in enumerate(HAND_RECORDS)}
    stream = [HAND_RECORDS[case][0] for n in range(3) for case in HAND_RECORDS if n < times[case]]
    expected = collections.Counter()
    tables = {"off": collections.Counter(), "on": collections.Counter()}
    for case, (_, counts) in HAND_RECORDS.items():
        for name, value in counts.items():
            if name in tables:
                tables[name].update({cell: n * times[case] for cell, n in value.items()})
            else:
                expected[name] += value * times[case]
    assert expected == dict(
        n_rounds=24, n_control=6, n_message=18, n_control_attacked=3, n_control_lost=2,
        n_detection=1, n_message_attacked=13, n_message_unattacked_lost=2, n_qber_errors=5,
        n_stray_outcomes=6,
    )
    stats = aggregate(stream)
    assert_counts(stats, **tables, **expected)
    assert stats.control_loss_rate == 2 / 6
    assert stats.detection_rate == 1 / 6
    assert stats.qber == 5 / 13


def test_aggregate_of_an_empty_stream():
    stats = aggregate([])
    assert_counts(stats)
    for name in ("control_loss_rate", "control_loss_se", "detection_rate", "detection_se",
                 "qber", "qber_se"):
        assert math.isnan(getattr(stats, name)), name
    assert np.isnan(stats.conditional_table()).all()
    payload = stats.to_json_dict()
    assert payload["n_rounds"] == 0 and payload["qber"] is None
    assert payload["counts_s_off"] == payload["counts_s_on"] == np.zeros((2, 2, 2)).tolist()


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


def test_records_csv_round_trip():
    config = ProtocolConfig(rounds=50, seed=2, scheme="improved-symmetrized", eta=0.8)
    handle = io.BytesIO()
    write_records_csv(config, handle, {"seed": 2, "scheme": "improved-symmetrized"})
    lines = handle.getvalue().decode().splitlines()
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
def test_records_csv_matches_per_record_formatting(scheme):
    config = ProtocolConfig(rounds=BLOCK_ROUNDS + 1234, seed=6, scheme=scheme, eta=0.75, c0=0.3)
    assert config.rounds % BLOCK_ROUNDS
    metadata = {"scheme": scheme, "attack_loss": None, "flag": True, "eta": 0.75}
    reference = io.StringIO(newline="")
    reference.writelines(line + "\n" for line in metadata_lines(metadata))
    writer = csv.writer(reference)
    writer.writerow(_CSV_COLUMNS)
    for record in run_rounds(config):
        writer.writerow([_cell(getattr(record, column)) for column in _CSV_COLUMNS])
    handle = io.BytesIO()
    write_records_csv(config, handle, metadata)
    assert handle.getvalue() == reference.getvalue().encode()


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
def test_records_csv_at_the_chunk_edges(rounds):
    config = ProtocolConfig(rounds=rounds, seed=8, scheme="improved-symmetrized", eta=0.8, c0=0.3)
    handle = io.BytesIO()
    write_records_csv(config, handle, {})
    assert handle.getvalue() == reference_csv(config).getvalue().encode()


@lru_cache(maxsize=None)
def reference_lines(scheme: str, rounds: int) -> tuple[bytes, ...]:
    config = ProtocolConfig(rounds=rounds, seed=8, scheme=scheme, eta=0.8, c0=0.3)
    return tuple(reference_csv(config).getvalue().encode().splitlines(keepends=True))


def assert_csv_is_a_reference_prefix(scheme: str, rounds: int, longest: int) -> None:
    """The CSV of a run of ``rounds`` against the header and first rows of
    the per-record reference of a run of ``longest`` rounds, which holds it
    as a prefix (test_shorter_run_is_a_prefix)."""
    config = ProtocolConfig(rounds=rounds, seed=8, scheme=scheme, eta=0.8, c0=0.3)
    handle = io.BytesIO()
    write_records_csv(config, handle, {})
    assert handle.getvalue() == b"".join(reference_lines(scheme, longest)[:1 + rounds])


# Round indices of one digit, and of four and five digits around the first
# index that prints a prefix i // 10**4 above its zero-padded low digits.
@pytest.mark.parametrize("rounds", [1, _INDEX_LOW - 1, _INDEX_LOW, _INDEX_LOW + 1])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_records_csv_at_the_index_digit_edges(scheme, rounds):
    assert_csv_is_a_reference_prefix(scheme, rounds, _INDEX_LOW + 1)


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
def test_records_csv_at_the_window_edges(rounds):
    assert_csv_is_a_reference_prefix("improved-symmetrized", rounds, 10 * _INDEX_LOW + 1)


@pytest.mark.usefixtures("fresh_tables")
@pytest.mark.parametrize("text", [",control,\0\r\n", ",contr\u00f4le\r\n"])
def test_records_csv_refuses_a_row_text_it_cannot_compact(monkeypatch, text):
    # The body drops every NUL byte of its byte grid, so a row text must be
    # ASCII without NUL; the check runs before the first byte is written.
    monkeypatch.setattr(protocol, "_row_texts", lambda cells: [text] * len(cells))
    config = ProtocolConfig(rounds=10, seed=8)
    handle = io.BytesIO()
    with pytest.raises(ValueError):
        write_records_csv(config, handle, {})
    assert handle.getvalue() == b""


def test_csv_lines_refuse_a_field_with_a_line_break():
    # Row texts are formatted in one csv.writer pass and split at line ends,
    # so a quoted line break inside a field would split its row in two.
    assert protocol._csv_lines([["a", "b"], ["", "c"]]) == ["a,b\r\n", ",c\r\n"]
    with pytest.raises(ValueError, match="line break"):
        protocol._csv_lines([["a\nb"], ["c"]])


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


# --- one stream per run -------------------------------------------------------


def test_replay_round_matches_the_run():
    config = ProtocolConfig(
        rounds=2 * BLOCK_ROUNDS + 37, seed=12, scheme="improved-symmetrized", eta=0.8, c0=0.3
    )
    records = run_rounds(config)
    for i in (0, BLOCK_ROUNDS - 1, BLOCK_ROUNDS, config.rounds - 1):
        assert replay_round(config, i) == records[i]


@pytest.mark.parametrize("i", [0, BLOCK_ROUNDS - 1, BLOCK_ROUNDS, 10**6 - 1])
def test_replay_round_reads_one_output(i, monkeypatch):
    """Replay opens one stream, positioned at its round, and reads one
    output, which it classifies as the run's sampler does: every other
    output is the least draw, of the first cell, and round i's the greatest,
    of the last."""
    config = ProtocolConfig(rounds=10**6, seed=12, scheme="improved-symmetrized", eta=0.8, c0=0.3)
    replayed = replay(np.zeros(config.rounds, dtype=np.uint64), monkeypatch)
    replayed.raw[i] = np.uint64(2**64 - 1)
    record = replay_round(config, i)
    assert replayed.starts == [i] and replayed.requests == [1]
    cells = _round_table(config).cells
    assert cells[-1] != cells[0]
    assert record == RoundRecord(i, *cells[-1])


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
        assert _round_table(config).straddles.sum() == int(count), c0
    most = int(re.search(r"at most (\d+) distinct rows", text)[1])
    corners = (0.0, 0.3, 1.0)
    rows = [
        len(set(_round_table(ProtocolConfig(1, 0, c0, control, eta, scheme, fraction)).cells))
        for scheme in SCHEMES
        for c0, control, eta in itertools.product(corners, repeat=3)
        for fraction in (*corners, "auto")
    ]
    assert max(rows) == most
    # README's memory of one CSV window, in MB: a full window's byte grid,
    # its NUL mask and its compacted bytes, at the benchmark's --out config
    # (the symmetrized attack, eta 0.8, c0 0.3, 2e4 rounds).
    window_mb = float(re.search(r"take about (\S+) MB at once", text)[1])
    config = ProtocolConfig(20000, 2026, 0.3, eta=0.8, scheme="improved-symmetrized")
    table = _round_table(config)
    lead = max(_INDEX_DIGITS, len(str(config.rounds - 1)))
    rows, cells = _row_table(table.texts, lead), sample(table, config.seed, 0, _CSV_WINDOW_ROUNDS)
    body = _window_body(0, 0, cells, rows, lead)
    grid = rows.take(cells, axis=0)
    assert round((2 * grid.nbytes + body.nbytes) / 1e6, 1) == window_mb


# --- one table per distribution ------------------------------------------------


def fresh_table(config: ProtocolConfig) -> _RoundTable:
    """A table of the config's distribution built anew, past the cache."""
    return _RoundTable(config.scheme, config.eta, config.c0, config.control_prob,
                       config.resolved_attack_fraction())


TABLE_ARRAYS = ("keys", "edges", "bucket_cell", "straddles", "counters", "texts")


def table_bytes(table: _RoundTable) -> list:
    """The table's cells, then each array's dtype, shape and bytes."""
    arrays = [getattr(table, name) for name in TABLE_ARRAYS]
    return [table.cells, *((a.dtype, a.shape, a.tobytes()) for a in arrays)]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_cached_table_equals_a_fresh_build(scheme):
    """Every distribution's cached table, read on a first and a second call,
    holds the cells, keys, bucket table, straddle mask, counter rows and
    row texts of a table built anew for it."""
    for c0, eta, control_prob, fraction in itertools.product(
        (0.0, 0.3, 0.5, 1.0), (0.0, 0.5, 0.85, 1.0), (0.0, 0.3, 1.0), (0.0, 0.4, 1.0, "auto")
    ):
        config = ProtocolConfig(rounds=1, seed=0, scheme=scheme, c0=c0, eta=eta,
                                control_prob=control_prob, attack_fraction=fraction)
        expected = table_bytes(fresh_table(config))
        assert table_bytes(_round_table(config)) == expected, config
        assert table_bytes(_round_table(config)) == expected, config


def test_table_rows_are_each_cells_own():
    """The table's counter rows and row texts are those of its cells,
    encoded one cell at a time."""
    table = _round_table(ProtocolConfig(rounds=1, seed=0, scheme="improved-symmetrized",
                                        c0=0.3, eta=0.8, control_prob=0.3))
    assert table.counters.shape == (len(table.cells), protocol._ROW_SIZE)
    for cell, counters, text in zip(table.cells, table.counters, table.texts):
        assert counters.tobytes() == bytes(protocol._counter_row(cell))
        assert text.tobytes().rstrip(b"\0").decode() == protocol._row_texts([cell])[0]


@pytest.mark.usefixtures("fresh_tables")
def test_every_run_of_a_distribution_reads_one_table():
    """The first run of a distribution builds its table, with no CSV row
    text; every later run of it, through any entry point and with any seed
    or length, builds none."""
    config = ProtocolConfig(rounds=BLOCK_ROUNDS + 5, seed=3, scheme="improved-symmetrized",
                            c0=0.3, eta=0.8)
    first = run_simulation(config)
    assert protocol._tables.cache_info().misses == 1
    assert "texts" not in vars(_round_table(config))
    reseeded = dataclasses.replace(config, seed=4, rounds=70)
    run_simulation(reseeded)
    records = run_rounds(reseeded)
    replay_round(config, BLOCK_ROUNDS)
    written = write_records_csv(config, io.BytesIO(), {})
    assert written.to_json_dict() == first.to_json_dict()
    assert aggregate(records).to_json_dict() == run_simulation(reseeded).to_json_dict()
    info = protocol._tables.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


@pytest.mark.usefixtures("fresh_tables")
def test_the_benchmark_cycle_fits_the_table_cache():
    """The 8 (scheme, eta) distributions of the mc-stats benchmark, run
    twice in turn, build 8 tables: the cache's bound holds them all."""
    assert protocol._tables.cache_info().maxsize == protocol._TABLES >= 8
    for _ in range(2):
        for scheme in SCHEMES:
            for eta in (0.9, 0.8):
                run_simulation(ProtocolConfig(rounds=10, seed=1, scheme=scheme, eta=eta))
    assert protocol._tables.cache_info().misses == 8


def test_table_arrays_are_read_only_and_runs_leave_them_as_they_are():
    config = ProtocolConfig(rounds=BLOCK_ROUNDS + 5, seed=3, scheme="improved-symmetrized",
                            c0=0.3, eta=0.8)
    table = _round_table(config)
    before = table_bytes(table)
    assert isinstance(table.cells, tuple)
    for name in TABLE_ARRAYS:
        array = getattr(table, name)
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array[...] = array
    table.count(config.seed, config.rounds)
    table.cells_of(round_rng(5, 0).random_raw(4096))
    write_records_csv(config, io.BytesIO(), {})
    run_simulation(config)
    replay_round(config, 7)
    assert table_bytes(table) == before
    assert _round_table(config) is table and table.texts is table.texts


@pytest.mark.usefixtures("fresh_tables")
@pytest.mark.parametrize("scheme", SCHEMES)
def test_equal_distributions_share_one_table(scheme):
    """"auto" and the fraction it resolves to name one distribution, as do
    a prior of -0.0 and of 0.0; the shared table is each one's own."""
    auto = ProtocolConfig(rounds=1, seed=0, scheme=scheme, eta=0.8, c0=0.3)
    resolved = dataclasses.replace(auto, attack_fraction=auto.resolved_attack_fraction())
    assert _round_table(auto) is _round_table(resolved)
    assert table_bytes(_round_table(auto)) == table_bytes(fresh_table(resolved))
    zero = ProtocolConfig(rounds=1, seed=0, scheme=scheme, eta=0.8, c0=0.0)
    negative = dataclasses.replace(zero, c0=-0.0)
    assert _round_table(zero) is _round_table(negative)
    assert table_bytes(_round_table(zero)) == table_bytes(fresh_table(negative))
    assert protocol._tables.cache_info().currsize == 2


@pytest.mark.usefixtures("fresh_tables")
def test_equal_values_of_other_types_keep_their_own_tables():
    """A float32 prior may equal a float one yet weigh the cells otherwise:
    numpy 2 rounds 1 - 2**-30 to 1 in float32.  Each keeps its own table."""
    config = ProtocolConfig(rounds=1, seed=0, scheme="none", c0=2.0**-30, eta=0.8)
    single = dataclasses.replace(config, c0=np.float32(2.0**-30))
    assert single.c0 == config.c0
    for each in (config, single, config):
        assert table_bytes(_round_table(each)) == table_bytes(fresh_table(each)), each
    assert protocol._tables.cache_info().currsize == 2
