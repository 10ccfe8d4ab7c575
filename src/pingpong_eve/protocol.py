"""Seeded Monte Carlo of ping-pong protocol rounds with an eavesdropping hook.

Each round the receiver prepares the entangled pair and sends the travel
photon; the round is a control round (both sides measure and compare) with
probability ``control_prob``, otherwise a message round (the sender encodes
a bit with a phase flip and returns the photon).

Channel model: with an active attack scheme the eavesdropper has replaced
the lossy channel by a lossless one, so unattacked rounds arrive intact and
all observed loss is induced by the attack itself (that is what makes the
attack loss masquerade as channel loss, and it is why the attack fraction
is capped at (1 - eta)/loss).  With ``scheme="none"`` the photon traverses
the real channel and survives with probability ``eta``.

Sampling is table driven.  Each (mode, attacked) branch has fixed cells,
complete round records but for the index (``_BRANCH_CELLS``), and
``_branch_weights`` weighs them: each branch's exact table times its
factors (``eta``, ``c0``, the symmetrization coin).  The tables come from
the 54-dimensional branch states: ``attacks.control_outcomes`` and
``information.conditionals``, built once per channel from its
``attacks.exact_outcome_tables``: the plain channel's (``conditionals(None)``,
read at import) and the scheme's attack's.
``_RoundTable`` joins the branches into one categorical table: a cell's
probability is its branch's (from ``control_prob`` and the attack fraction)
times its normalized weight in the branch; cells of probability zero are
dropped.  A table depends on its distribution alone (scheme, ``eta``,
``c0``, ``control_prob`` and the resolved attack fraction), not on the seed
or the rounds: ``_round_table`` builds it with its keys, bucket table and
counter rows, and its CSV row texts when a run first writes them, all
read-only, once per process for each of the last ``_TABLES``
distributions, and every run of it reads them.
Every round draws one uniform, an inverse-CDF draw on that table.  The draw
is the generator's 53-bit integer k (its uniform is k * 2**-53), compared
with integer keys ceil(bound * 2**53), so every test on it is exact: a
round's cell is the number of table keys at or below k.  That count is read
from a bucket (guide) table of 4096 entries indexed by the top 12 bits of
k, the cell at each bucket's start; only the few buckets with a table key
inside them are searched.  Round i reads output i of ``round_rng(seed, 0)``,
the PCG64 stream of ``np.random.default_rng(seed)``, opened once per run and
read in order in chunks of ``BLOCK_ROUNDS``; ``replay_round`` jumps it ahead
to its round and reads one output.  ``run_simulation`` counts rounds per
bucket, not per round, and builds no records: each chunk counts its draws
per bucket and searches only those in straddling buckets, and the summed
counts of the other buckets go to their start cells once per run, as exact
integers.  ``run_rounds`` builds one record per round.
``write_records_csv`` builds no records either: it reads every table
cell's CSV row, formatted in one csv.writer pass by the table's first
written run, as the rows of a NUL-padded byte table, and writes every
chunk in windows of up to 2048 rounds that share i // 10**4 to a binary
handle; the CLI opens the CSV file, cuts it and reports its errors, as for
every file it writes.  A window is one byte grid: the index prefix
i // 10**4, the index's last four digits sliced from a digit table, and
the cells' row texts, with the NUL padding dropped.  The same chunks are
tallied into the run's stats, so each round is drawn once.
The stream scheme is named by ``RNG_STREAM``.

Every count of ``RunStats`` is the cell counts times the cells' counter
rows: a cell's row holds what one round of it adds to the ten counters,
then one-hot slots for its (j, k, m) cell in ``counts_s_off`` and
``counts_s_on``.  ``run_simulation`` and ``write_records_csv`` count the
table's cells, whose rows the table holds; ``aggregate`` counts a record
stream's distinct records and encodes their rows.
The stats' rates, conditional table and standard errors are computed in
plain Python from the integer counts by one rate and one standard-error
formula, ``_rate`` and ``_rate_se``, with numpy's IEEE operations.

Every scheme runs through the same cells.  A scheme is one entry of
``_SCHEMES``: its attack (None for no eavesdropper) and the chance that the
eavesdropper's symmetrization coin comes up heads.  Its attacked cells are
weighed by its attack's own tables, so the ``wojcik-reference`` scheme's
rounds come from the reference attack's own circuit.
"""

from __future__ import annotations

import collections
import csv
import dataclasses
import functools
import io
import itertools
import math
import numbers
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .attacks import (
    CONTROL_T_H,
    EQUAL_ENTRIES,
    LOST_ENTRIES,
    attack_profile,
    control_outcomes,
)
from .engine import BellOutcome, Occupation
from .information import conditionals, max_attack_fraction

# Each scheme's attack, by its ``attacks`` name (None for no eavesdropper),
# and P(heads) of the eavesdropper's symmetrization coin.
_SCHEMES = {
    "none": (None, 0.0),
    "improved": ("improved", 0.0),
    "improved-symmetrized": ("improved", 0.5),
    "wojcik-reference": ("wojcik", 0.0),
}
SCHEMES = tuple(_SCHEMES)


@dataclasses.dataclass(frozen=True)
class ProtocolConfig:
    """Configuration of one simulation run.

    attack_fraction is a probability in [0, 1] or the string "auto", which
    resolves to the loss-masquerading cap min(1, (1 - eta)/loss).
    """

    rounds: int
    seed: int
    c0: float = 0.5
    control_prob: float = 0.5
    eta: float = 1.0
    scheme: str = "improved"
    attack_fraction: float | str = "auto"

    def __post_init__(self) -> None:
        for name in ("rounds", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be at least 1, got {self.rounds!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if isinstance(self.attack_fraction, str) and self.attack_fraction != "auto":
            raise ValueError(
                f'attack_fraction must be a probability or "auto", got {self.attack_fraction!r}'
            )
        for name in ("c0", "control_prob", "eta", "attack_fraction"):
            value = getattr(self, name)
            if name == "attack_fraction" and isinstance(value, str):  # "auto"
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
            # A numpy scalar would carry its own precision into the run's
            # table: in float32, 1 - 2**-30 rounds to 1.
            object.__setattr__(self, name, float(value))

    @property
    def attack_loss(self) -> float | None:
        """Control-mode loss induced per attacked round, None without attack."""
        attack = _SCHEMES[self.scheme][0]
        return None if attack is None else attack_profile(attack).loss

    def resolved_attack_fraction(self) -> float:
        if self.attack_loss is None:
            return 0.0
        if self.attack_fraction == "auto":
            return max_attack_fraction(self.eta, self.attack_loss)
        return float(self.attack_fraction)


class RoundRecord(NamedTuple):
    """Everything observable about one protocol round.

    Control rounds carry no (j, k, m); message rounds carry no
    alice_t_outcome / bob_h_outcome.  s_applied is the eavesdropper's own
    record of her symmetrization coin (None outside attacked message rounds).
    """

    round_index: int
    mode: str
    attacked: bool
    j: int | None
    k: int | None
    m: BellOutcome | None
    alice_t_outcome: Occupation | None
    bob_h_outcome: int | None
    s_applied: bool | None
    photon_lost: bool
    detection_event: bool


_M_BIT = {BellOutcome.PSI_PLUS: 0, BellOutcome.PSI_MINUS: 1}

# Rounds per chunk of a run's stream, read, counted and written one at a time.
# At 1e6 rounds 2**14 and 2**16 ran alike, 2**12 and 2**18 about 1.5x slower.
BLOCK_ROUNDS = 1 << 14
RNG_STREAM = "pcg64-v4"
# Bits of a round's draw: PCG64's random() is (next_uint64 >> 11) * 2**-53.
_UNIT_BITS = 53
# The top _BUCKET_BITS bits of a round's draw index the bucket table.
_BUCKET_BITS = 12
_BUCKET_SHIFT = _UNIT_BITS - _BUCKET_BITS
# Rounds per byte grid of the CSV body.  A window holds its grid, NUL mask
# and compacted bytes at once, about 0.3 MB at 2048 rounds; windows of 4096
# rounds wrote no faster and hold twice that.
_CSV_WINDOW_ROUNDS = 1 << 11
# The last four digits of a round index i are those of i % 10**4, read from
# a table: zero-padded below a printed prefix i // 10**4, NUL-padded where
# i < 10**4 prints no prefix and no leading zero.
_INDEX_DIGITS = 4
_INDEX_LOW = 10**_INDEX_DIGITS


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """(zero-padded, NUL-padded) uint8 texts of 0 .. 10**4 - 1, 4 bytes each."""
    codes = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    zero_padded = np.stack(np.meshgrid(*[codes] * _INDEX_DIGITS, indexing="ij"), axis=-1)
    zero_padded = zero_padded.reshape(_INDEX_LOW, _INDEX_DIGITS)
    nul_padded = zero_padded.copy()
    for k in range(1, _INDEX_DIGITS):
        # below 10**k a number prints only its last k digits
        nul_padded[:10**k, :_INDEX_DIGITS - k] = 0
    return zero_padded, nul_padded


_ZERO_PADDED, _NUL_PADDED = _digit_tables()


def _threshold(p: np.ndarray) -> np.ndarray:
    """The least 53-bit draw k with k * 2**-53 >= p, for each p, so that a
    uniform k * 2**-53 is below p exactly when k < _threshold(p).  Scaling
    by 2**53 is exact, so this is ceil(p * 2**53) without rounding."""
    return np.ceil(np.ldexp(p, _UNIT_BITS)).astype(np.int64)


# The record schema, which is also the CSV header.
_CSV_COLUMNS = RoundRecord._fields
# A round record without its index: the cell of an outcome table.  Fields a
# round does not have default to None, its loss and detection to False.
_Cell = collections.namedtuple("_Cell", _CSV_COLUMNS[1:], defaults=(None,) * 6 + (False, False))


# P(m | j) of a message round on the plain channel, row j for j = 0, 1, in
# _M_BIT order: its conditional table with the register bit k summed out.
_PLAIN_ROWS = conditionals(None)["plain"].sum(axis=1)

# The cells of the four branches, in sampling order, each in the ravel order
# of its weights in _branch_weights.  Control cells, unattacked and attacked,
# follow CONTROL_T_H, their lost photons and detections at the entries that
# attacks names LOST_ENTRIES and EQUAL_ENTRIES.  The plain channel's message
# cells are the lost photon, then (j, m); the attacked message cells run over
# (j, coin s, k, m); m runs in _M_BIT order in both.
_BRANCH_CELLS = (
    *(tuple(_Cell("control", attacked, None, None, None, t, h, None, i in LOST_ENTRIES,
                  i in EQUAL_ENTRIES)
            for i, (t, h) in enumerate(CONTROL_T_H))
      for attacked in (False, True)),
    (_Cell("message", False, None, None, BellOutcome.NO_PHOTON, None, None, None, True),
     *(_Cell("message", False, j, None, m) for j in (0, 1) for m in _M_BIT)),
    tuple(_Cell("message", True, j, k, m, None, None, s)
          for j, s, k, m in itertools.product((0, 1), (False, True), (0, 1), _M_BIT)),
)
_CONTROL_LOST = np.array([i in LOST_ENTRIES for i in range(len(CONTROL_T_H))])


def _branch_weights(scheme: str, eta: float, c0: float) -> tuple[list[float], ...]:
    """Each branch's weights, one per cell of _BRANCH_CELLS, zeros kept: its
    exact table times its factors (eta, c0, the symmetrization coin), in the
    association the pinned outputs hold.  No attack weighs no attacked cell."""
    attack, p_heads = _SCHEMES[scheme]
    # Only the plain channel loses photons; the attacker's channel is lossless.
    eta = eta if attack is None else 1.0
    priors = np.array([c0, 1.0 - c0])
    control = (1.0 - eta) / 2 * _CONTROL_LOST + eta * np.array(control_outcomes(None))
    message = np.concatenate(([1.0 - eta], ((eta * priors)[:, None] * _PLAIN_ROWS).ravel()))
    if attack is None:
        return control.tolist(), [], message.tolist(), []
    # The eavesdropper's symmetrization coin, with its table for each side.
    tables = conditionals(attack)
    coins = (priors[:, None] * [1.0 - p_heads, p_heads])[:, :, None, None]
    attacked = coins * np.stack((tables["plain"], tables["symmetrized"]), axis=1)
    return (control.tolist(), list(control_outcomes(attack)), message.tolist(),
            attacked.ravel().tolist())


class _RoundTable:
    """The combined outcome table of one distribution, which holds no seed:
    its kept cells, their keys, the bucket table and straddle mask, each
    cell's counter row and, once a run writes them, its CSV row text, all
    read-only; and the chunk sampler and per-bucket counter of any run of
    it, given the run's seed."""

    def __init__(self, scheme: str, eta: float, c0: float, control: float,
                 attacked: float) -> None:
        branch_probs = (
            control * (1.0 - attacked), control * attacked,
            (1.0 - control) * (1.0 - attacked), (1.0 - control) * attacked,
        )
        # A cell's probability is its branch's times its normalized weight in
        # the branch; cells of probability zero are dropped.
        cells, probs = [], []
        for p_branch, branch, weights in zip(
            branch_probs, _BRANCH_CELLS, _branch_weights(scheme, eta, c0)
        ):
            # Summed left to right: np.sum sums pairwise from 8 terms.
            total = sum(weights)
            for cell, p in zip(branch, weights):
                p = p_branch * (p / total)
                if p > 0.0:
                    cells.append(cell)
                    probs.append(p)
        self.cells = tuple(cells)
        # Sorted keys, threshold(bound) of each inner bound of the normalized
        # CDF: a round's 53-bit draw k picks cell (number of keys <= k), which
        # is searchsorted(bounds, k * 2**-53, "right").  A bound that rounds to
        # 1.0 gives the key 2**53, above every draw, so the cells past it are
        # never picked.
        cdf = np.cumsum(probs)
        self.keys = _threshold(cdf[:-1] / cdf[-1])
        # Bucket (guide) table: bucket b holds the draws with k >> 41 == b.
        # Every draw of a bucket picks the cell of its start unless a table
        # key lies inside it; only rounds in such straddling buckets (a
        # handful of 4096) are searched.  A key is <= the start of bucket b
        # exactly when its rounded-up bucket index is <= b, so cell c starts
        # the buckets edges[c]:edges[c + 1], between the rounded-up indices
        # of the keys either side of it; a cell that starts no bucket, or
        # lies past a 2**53 key, has an empty run.  Cell indices are intp,
        # which numpy gathers and counts about twice as fast as uint8.
        low = (1 << _BUCKET_SHIFT) - 1
        rounded_up = (self.keys + low) >> _BUCKET_SHIFT
        self.edges = np.concatenate(([0], rounded_up, [1 << _BUCKET_BITS]))
        self.bucket_cell = np.repeat(np.arange(len(cells), dtype=np.intp),
                                     self.edges[1:] - self.edges[:-1])
        # A bucket straddles cells exactly when one of its keys lies past its start.
        self.straddles = np.zeros(1 << _BUCKET_BITS, dtype=bool)
        self.straddles[self.keys[(self.keys & low) != 0] >> _BUCKET_SHIFT] = True
        self.counters = _counter_rows(self.cells)
        for array in (self.keys, self.edges, self.bucket_cell, self.straddles):
            array.flags.writeable = False

    @functools.cached_property
    def texts(self) -> np.ndarray:
        """The cells' CSV row texts as the rows of a read-only NUL-padded
        uint8 table, formatted when a run first writes them."""
        texts = _row_texts(self.cells)
        # One byte per character, and no NUL: the body drops every NUL byte of
        # its grid, padding and nothing else.
        if any("\0" in text or not text.isascii() for text in texts):
            raise ValueError(f"a CSV row text is not ASCII without NUL: {texts!r}")
        table = np.array([text.encode() for text in texts], dtype=bytes)
        table = table.view(np.uint8).reshape(len(texts), -1)
        table.flags.writeable = False
        return table

    def chunks(self, seed: int, rounds: int) -> Iterator[tuple[int, np.ndarray]]:
        """(first round index, 64-bit outputs) of each chunk of the run, read
        in order from one stream; an output >> 11 is random()'s 53-bit integer."""
        stream = round_rng(seed, 0)
        for start in range(0, rounds, BLOCK_ROUNDS):
            yield start, stream.random_raw(min(BLOCK_ROUNDS, rounds - start))

    def _search(self, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each round's bucket, the top 12 bits of its 64-bit output, which
        rounds lie in straddling buckets, and their cells, searched by their
        53-bit draws."""
        bucket = (raw >> np.uint64(64 - _BUCKET_BITS)).view(np.int64)
        straddling = self.straddles[bucket]
        draws = (raw[straddling] >> np.uint64(64 - _UNIT_BITS)).view(np.int64)
        return bucket, straddling, np.searchsorted(self.keys, draws, "right")

    def cells_of(self, raw: np.ndarray) -> np.ndarray:
        """Cell index of each round, from its 64-bit output."""
        bucket, straddling, searched = self._search(raw)
        cells = self.bucket_cell[bucket]
        cells[straddling] = searched
        return cells

    def blocks(self, seed: int, rounds: int) -> Iterator[tuple[int, np.ndarray]]:
        """(first round index, cell indices) of each chunk of the run."""
        return ((start, self.cells_of(raw)) for start, raw in self.chunks(seed, rounds))

    def count(self, seed: int, rounds: int) -> np.ndarray:
        """Rounds of each cell in the run, counted per bucket instead of per
        round: the same cells as ``blocks``, with no cell index gathered.
        Each chunk counts its rounds per bucket (the top 12 bits of each
        output) and searches only its rounds in straddling buckets; the
        summed counts of the other buckets go to their start cells once per
        run, as exact integer sums over each cell's run of buckets."""
        # One bucket more than the table, always empty, where the runs that
        # start past the last bucket begin.
        buckets = np.zeros((1 << _BUCKET_BITS) + 1, dtype=np.int64)
        counts = np.zeros(len(self.cells), dtype=np.int64)
        for _, raw in self.chunks(seed, rounds):
            bucket, _, searched = self._search(raw)
            buckets += np.bincount(bucket, minlength=buckets.size)
            counts += np.bincount(searched, minlength=counts.size)
        buckets[:-1][self.straddles] = 0
        # Each cell's run of buckets, summed: reduceat sums each run but gives
        # an empty one the bucket at its start, so empty runs are zeroed.
        runs = np.add.reduceat(buckets, self.edges[:-1])
        runs[self.edges[1:] == self.edges[:-1]] = 0
        return counts + runs


# Distributions whose tables a process keeps, the least recently used
# dropped first: twice the 8 (scheme, eta) pairs that the mc-stats benchmark
# cycles.  A table takes about 40 KB, most of it the bucket table.
_TABLES = 16
# The table of each distribution, keyed on the type and value of each of
# (scheme, eta, c0, control_prob, resolved attack fraction).  A config holds
# each number as a Python float, so only a direct call can pass another type.
_tables = functools.lru_cache(maxsize=_TABLES, typed=True)(_RoundTable)


def _round_table(config: ProtocolConfig) -> _RoundTable:
    """The table of the run's distribution, built once while it is among the
    process's last _TABLES distributions; "auto" shares the entry of the
    fraction it resolves to."""
    return _tables(config.scheme, config.eta, config.c0, config.control_prob,
                   config.resolved_attack_fraction())


def round_rng(seed: int, start: int) -> np.random.PCG64:
    """The run's one stream, PCG64(SeedSequence(seed)) as in
    ``np.random.default_rng(seed)``, jumped ahead to round ``start`` in
    O(log start) steps: round i reads output i.  ``start`` may be any
    integer, a numpy one included."""
    return np.random.PCG64(seed).advance(int(start))


def run_rounds(config: ProtocolConfig) -> list[RoundRecord]:
    """All rounds of one run; round i depends only on (seed, i)."""
    table = _round_table(config)
    return [
        RoundRecord(i, *table.cells[cell])
        for start, cells in table.blocks(config.seed, config.rounds)
        for i, cell in enumerate(cells.tolist(), start)
    ]


def replay_round(config: ProtocolConfig, round_index: int) -> RoundRecord:
    """Round ``round_index`` of the run, from its one output of the stream."""
    if isinstance(round_index, bool) or not isinstance(round_index, numbers.Integral):
        raise ValueError(f"round_index must be an integer, got {round_index!r}")
    round_index = int(round_index)
    if not 0 <= round_index < config.rounds:
        raise IndexError(f"round {round_index!r} is outside a run of {config.rounds} rounds")
    table = _round_table(config)
    cell = table.cells_of(round_rng(config.seed, round_index).random_raw(1))[0]
    return RoundRecord(round_index, *table.cells[cell])


@dataclasses.dataclass(frozen=True)
class RunStats:
    """Aggregated counts of one run, with derived rates and standard errors."""

    n_rounds: int
    n_control: int
    n_message: int
    n_control_attacked: int
    n_control_lost: int
    n_detection: int
    n_message_attacked: int
    n_message_unattacked_lost: int
    n_qber_errors: int
    n_stray_outcomes: int
    counts_s_off: np.ndarray
    counts_s_on: np.ndarray

    @property
    def joint_counts(self) -> np.ndarray:
        """(j, k, m) counts over attacked message rounds, both coin branches."""
        return self.counts_s_off + self.counts_s_on

    @property
    def control_loss_rate(self) -> float:
        return _rate(self.n_control_lost, self.n_control)

    @property
    def control_loss_se(self) -> float:
        return _rate_se(self.n_control_lost, self.n_control)

    @property
    def detection_rate(self) -> float:
        return _rate(self.n_detection, self.n_control)

    @property
    def detection_se(self) -> float:
        return _rate_se(self.n_detection, self.n_control)

    @property
    def qber(self) -> float:
        return _rate(self.n_qber_errors, self.n_message_attacked)

    @property
    def qber_se(self) -> float:
        return _rate_se(self.n_qber_errors, self.n_message_attacked)

    def conditional_table(self) -> np.ndarray:
        """Empirical P(k, m | j); rows with no samples are NaN."""
        return np.array(self._conditional(math.nan)[0])

    def conditional_se(self) -> np.ndarray:
        """Per-cell standard error sqrt(p(1-p)/n_j); rows with no samples are NaN."""
        return np.array(self._conditional(math.nan)[1])

    def _conditional(self, empty) -> tuple[list, list]:
        """The conditional table and its standard errors as nested lists,
        with ``empty`` in each cell of a row with no samples.  They are
        ``_rate`` and ``_rate_se`` of the integer counts: a quotient of
        integers below 2**53 is correctly rounded, as numpy's division of the
        count arrays made floats is, so every bit is numpy's."""
        table, se = [], []
        for block in self.joint_counts.tolist():
            n_j = sum(block[0]) + sum(block[1])
            table.append([[_rate(c, n_j) if n_j else empty for c in row] for row in block])
            se.append([[_rate_se(c, n_j) if n_j else empty for c in row] for row in block])
        return table, se

    def to_json_dict(self) -> dict:
        """Every field, each rate and standard error (None for NaN), and the
        empirical conditional table and its errors."""
        payload = {
            field.name: getattr(self, field.name) for field in dataclasses.fields(self)
        }
        payload["counts_s_off"] = self.counts_s_off.tolist()
        payload["counts_s_on"] = self.counts_s_on.tolist()
        for name in _RATES:
            payload[name] = _json_float(getattr(self, name))
        payload["conditional_table"], payload["conditional_se"] = self._conditional(None)
        return payload


# The rate properties of RunStats, each with its standard error.
_RATES = (
    "control_loss_rate", "control_loss_se", "detection_rate", "detection_se", "qber", "qber_se"
)


def _rate(num: int, den: int) -> float:
    return num / den if den else math.nan


def _rate_se(num: int, den: int) -> float:
    if not den:
        return math.nan
    p = num / den
    return math.sqrt(p * (1.0 - p) / den)


def _json_float(value: float):
    return None if math.isnan(value) else value


def aggregate(records: Iterable[RoundRecord]) -> RunStats:
    """Tally a record stream into RunStats."""
    counted = collections.Counter(record[1:] for record in records)
    return _tally(list(counted.values()), _counter_rows(list(counted)))


# A cell's counter row holds what one round of it adds to each count of
# RunStats: the ten counters, in field order (0 n_rounds, 1 n_control,
# 2 n_message, 3 n_control_attacked, 4 n_control_lost, 5 n_detection,
# 6 n_message_attacked, 7 n_message_unattacked_lost, 8 n_qber_errors,
# 9 n_stray_outcomes), then one-hot slots for its (j, k, m) cell in
# counts_s_off and then in counts_s_on.
_N_COUNTERS = 10
_ROW_SIZE = _N_COUNTERS + 2 * 8


def _counter_row(cell: tuple) -> bytearray:
    """The counter row of a round record without its index, a byte a count.
    An attacked message round with no (j, k, m) cell is a stray outcome."""
    mode, attacked, j, k, m, _, _, s_applied, lost, detection = cell
    row = bytearray(_ROW_SIZE)
    row[0] = 1
    if mode == "control":
        row[1] = 1
        row[3] = bool(attacked)
        row[4] = bool(lost)
        row[5] = bool(detection)
    elif attacked:
        row[2] = row[6] = 1
        bit = _M_BIT.get(m)  # the receiver's decoded bit, None for any other outcome
        row[8] = bit is None or bit != j
        if bit is None or k is None:
            row[9] = 1
        else:
            row[_N_COUNTERS + 8 * bool(s_applied) + 4 * j + 2 * k + bit] = 1
    else:
        row[2] = 1
        row[7] = bool(lost)
    return row


def _counter_rows(cells: Sequence[tuple]) -> np.ndarray:
    """The cells' counter rows, one read-only uint8 row per cell."""
    rows = np.frombuffer(b"".join([_counter_row(cell) for cell in cells]), dtype=np.uint8)
    return rows.reshape(-1, _ROW_SIZE)


def _tally(counts: Sequence[int] | np.ndarray, rows: np.ndarray) -> RunStats:
    """RunStats of counts[i] rounds of the cell of counter row rows[i]:
    every count is the cell counts times the cells' counter rows."""
    totals = np.asarray(counts, dtype=np.int64) @ rows
    return RunStats(*totals[:_N_COUNTERS].tolist(), *totals[_N_COUNTERS:].reshape(2, 2, 2, 2))


def run_simulation(config: ProtocolConfig) -> RunStats:
    """Count every round per bucket, chunk by chunk, without building
    records; equal to ``aggregate(run_rounds(config))``."""
    table = _round_table(config)
    return _tally(table.count(config.seed, config.rounds), table.counters)


# --- writers -------------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, BellOutcome):
        return value.value
    if isinstance(value, Occupation):
        return value.label()
    return str(value)


def metadata_lines(metadata: dict) -> list[str]:
    return [f"# {key}={_cell(value)}" for key, value in metadata.items()]


def _csv_lines(rows: Iterable[Sequence]) -> list[str]:
    """Each row as one CSV line, line terminator included, all formatted in
    one csv.writer pass."""
    rows = list(rows)
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    lines = buffer.getvalue().splitlines(keepends=True)
    if len(lines) != len(rows):
        raise ValueError(f"a CSV row holds a line break: {rows!r}")
    return lines


def _row_texts(cells: Sequence[_Cell]) -> list[str]:
    """Each cell's CSV row after the round index, line terminator included."""
    return _csv_lines(["", *map(_cell, cell)] for cell in cells)


def _row_table(texts: np.ndarray, lead: int) -> np.ndarray:
    """The rows of a text table, each after ``lead`` NUL bytes that leave
    room for a round index."""
    return np.concatenate((np.zeros((len(texts), lead), dtype=np.uint8), texts), axis=1)


def _window_body(
    high: int, low: int, cells: np.ndarray, rows: np.ndarray, lead: int
) -> np.ndarray:
    """CSV bytes of the rounds high * 10**4 + low + r, for r < cells.size,
    where low + cells.size <= 10**4: a prefix str(high), printed unless
    high is 0, then each round's four low digits and its cell's row text."""
    grid = rows.take(cells, axis=0)
    at = lead - _INDEX_DIGITS
    if high:
        prefix = str(high).encode()
        grid[:, at - len(prefix):at] = np.frombuffer(prefix, dtype=np.uint8)
        grid[:, at:lead] = _ZERO_PADDED[low:low + cells.size]
    else:
        grid[:, at:lead] = _NUL_PADDED[low:low + cells.size]
    grid = grid.ravel()
    return grid[grid != 0]


def write_records_csv(config: ProtocolConfig, handle: BinaryIO, metadata: dict) -> RunStats:
    """Write every round of the run to the binary ``handle`` as one CSV row,
    chunk by chunk, without building records: each cell's row text is the
    table's, formatted once per table, and each window of rounds is one
    byte grid with its NUL padding dropped.  Returns the run's stats,
    tallied from the same chunks, which equal ``run_simulation(config)``."""
    table = _round_table(config)
    counts = np.zeros(len(table.cells), dtype=np.int64)
    # Room for the longest round index of the run, and at least the four
    # low digits.
    lead = max(_INDEX_DIGITS, len(str(config.rounds - 1)))
    rows = _row_table(table.texts, lead)
    head = "".join(line + "\n" for line in metadata_lines(metadata))
    handle.write((head + _csv_lines([_CSV_COLUMNS])[0]).encode())
    for start, cells in table.blocks(config.seed, config.rounds):
        counts += np.bincount(cells, minlength=counts.size)
        # Windows of at most _CSV_WINDOW_ROUNDS rounds that share
        # i // 10**4, so that their low digits are one slice of a table.
        offset = 0
        while offset < cells.size:
            high, low = divmod(start + offset, _INDEX_LOW)
            n = min(cells.size - offset, _INDEX_LOW - low, _CSV_WINDOW_ROUNDS)
            handle.write(_window_body(high, low, cells[offset:offset + n], rows, lead))
            offset += n
    return _tally(counts, table.counters)
