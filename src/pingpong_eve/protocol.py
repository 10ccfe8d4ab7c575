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

Sampling is table driven.  Once per run, each (mode, attacked) branch gets
one categorical table whose cells are complete round records (every field
but the round index), weighted by ``c0``, ``eta`` and the symmetrization
coin; the probabilities come from the exact 54-dimensional branch states
(attacked message rounds from ``attacks.exact_outcome_table``), and cells
of probability zero are dropped.  Every round draws three
uniforms: one picks the mode, one decides whether the round is attacked,
one is an inverse-CDF draw on that branch's table.  The draws are the
generator's 53-bit integers k (its uniform is k * 2**-53), compared with
integer thresholds ceil(p * 2**53), so every test on them is exact: a round
packs its branch and third draw into one integer key, and its cell is the
number of table keys at or below it, less one.  That count is read from a
bucket (guide) table of 4096 entries indexed by the key's top 12 bits, the
cell at each bucket's start; only the few buckets with a table key inside
them are searched.  Rounds are drawn in
blocks of ``BLOCK_ROUNDS``; block b reads ``round_rng(seed, b)``, so round
i's draws depend only on (seed, i), a shorter run is a prefix of a longer
one, and ``replay_round`` regenerates a single block.  ``run_simulation``
tallies cell counts per block without building records; ``run_rounds``
builds one per round.  ``write_records_csv`` builds no records
either: it formats each table cell's CSV row once, writes every block in
chunks of up to 4096 rounds, each one string of round indices and their
cells' row texts, and tallies the same blocks into the run's stats, so
each block is drawn once.  The stream scheme is named by ``RNG_STREAM``.

The ``wojcik-reference`` scheme has no gate-level model here and is
simulated from its summary statistics: attacked control rounds lose the
photon with its profile's loss, surviving control outcomes stay
anticorrelated, and message outcomes follow the plain attack's exact
conditional table.
"""

from __future__ import annotations

import collections
import csv
import dataclasses
import io
import math
import numbers
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .attacks import attack_ba, exact_outcome_table, improved_profile, wojcik_profile
from .engine import (
    BellOutcome,
    Occupation,
    PAULI_Z,
    apply_polarization_gate,
    bell_probabilities,
    make_initial,
    project_mode,
)
from .information import max_attack_fraction

SCHEMES = ("none", "improved", "improved-symmetrized", "wojcik-reference")

_SCHEME_PROFILE = {
    "improved": improved_profile,
    "improved-symmetrized": improved_profile,
    "wojcik-reference": wojcik_profile,
}


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

    @property
    def attack_loss(self) -> float | None:
        """Control-mode loss induced per attacked round, None without attack."""
        profile = _SCHEME_PROFILE.get(self.scheme)
        return None if profile is None else profile().loss

    def resolved_attack_fraction(self) -> float:
        if self.scheme == "none":
            return 0.0
        if self.attack_fraction == "auto":
            return max_attack_fraction(self.eta, self.attack_loss)
        return float(self.attack_fraction)


@dataclasses.dataclass(frozen=True)
class RoundRecord:
    """Everything observable about one protocol round.

    Control rounds carry no (j, k, m); message rounds carry no
    alice_t_outcome / bob_h_outcome.  s_applied is the eavesdropper's own
    record of her symmetrization coin (None when she made no choice).
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

BLOCK_ROUNDS = 1 << 14
RNG_STREAM = f"pcg64-block{BLOCK_ROUNDS}-v1"
# Uniforms per round: mode, attacked, cell within the branch table.
_DRAWS_PER_ROUND = 3
# Bits of a uniform draw: PCG64's random() is (next_uint64 >> 11) * 2**-53.
_UNIT_BITS = 53
# A round's key is 2 branch bits above its 53-bit draw; its top _BUCKET_BITS
# bits index the bucket table.
_BUCKET_BITS = 12
_BUCKET_SHIFT = 2 + _UNIT_BITS - _BUCKET_BITS
# Rounds per string join of the CSV body.  Against writing round by round,
# one join per block raised the peak RSS of a 20000-round `simulate --out`
# by about 2.4 MB, one per 4096 rounds by about 0.3 MB.
_CSV_CHUNK_ROUNDS = 1 << 12


def _threshold(p: float) -> int:
    """The least 53-bit draw k with k * 2**-53 >= p, so that a uniform
    k * 2**-53 is below p exactly when k < _threshold(p)."""
    return math.ceil(float(p) * (1 << _UNIT_BITS))


# The record schema, which is also the CSV header.
_CSV_COLUMNS = tuple(field.name for field in dataclasses.fields(RoundRecord))
# A round record without its index: the cell of an outcome table.
_Cell = collections.namedtuple("_Cell", _CSV_COLUMNS[1:])


def _control_cell(attacked: bool, t_out: Occupation, h_bit: int) -> _Cell:
    lost = t_out is Occupation.VAC
    return _Cell("control", attacked, None, None, None, t_out, h_bit, None, lost,
                 not lost and h_bit == (0 if t_out is Occupation.POL0 else 1))


def _message_cell(
    attacked: bool, j: int | None, k: int | None, m: BellOutcome, s_applied: bool | None,
    lost: bool = False,
) -> _Cell:
    return _Cell("message", attacked, j, k, m, None, None, s_applied, lost, False)


# Exact outcome distributions of the branch states, memoized because they do
# not depend on the run's weights.


@lru_cache(maxsize=None)
def _control_outcomes(attacked: bool) -> tuple[tuple[Occupation, int, float], ...]:
    """(t outcome, h bit, probability) of a control round's measurements."""
    state = attack_ba(make_initial()) if attacked else make_initial()
    outcomes = []
    for t_out in (Occupation.VAC, Occupation.POL0, Occupation.POL1):
        p_t, collapsed = project_mode(state, "t", t_out)
        if collapsed is not None:
            for h_out, h_bit in ((Occupation.POL0, 0), (Occupation.POL1, 1)):
                outcomes.append((t_out, h_bit, p_t * project_mode(collapsed, "h", h_out)[0]))
    return tuple(outcomes)


@lru_cache(maxsize=None)
def _message_outcomes(
    attacked: bool, apply_s: bool
) -> tuple[tuple[tuple[int | None, BellOutcome, float], ...], ...]:
    """For each message bit j, the (register bit k, receiver outcome,
    probability) of a message round; k is None on the plain channel, and an
    attacked round reads the attack's exact outcome table."""
    if not attacked:
        states = (make_initial(), apply_polarization_gate(make_initial(), "t", PAULI_Z))
        return tuple(
            tuple((None, m, p) for m, p in bell_probabilities(state).items())
            for state in states
        )
    table = exact_outcome_table(apply_s)
    return tuple(
        tuple((k, m, float(table[j, k, m_bit])) for k in (0, 1) for m, m_bit in _M_BIT.items())
        for j in (0, 1)
    )


_COINS = {
    "improved": ((False, 1.0),),
    "improved-symmetrized": ((False, 0.5), (True, 0.5)),
    "wojcik-reference": ((None, 1.0),),
}


def _branch_cells(config: ProtocolConfig) -> tuple[list[tuple[_Cell, float]], ...]:
    """Weighted cells of the four branches, in sampling order: control
    unattacked, control attacked, message unattacked, message attacked."""
    # Only the plain channel loses photons; the attacker's channel is lossless.
    eta = config.eta if config.scheme == "none" else 1.0
    priors = ((0, config.c0), (1, 1.0 - config.c0))

    def lost_control(attacked: bool, p_lost: float):
        return [(_control_cell(attacked, Occupation.VAC, h), p_lost / 2) for h in (0, 1)]

    control = lost_control(False, 1.0 - eta) + [
        (_control_cell(False, t, h), eta * p) for t, h, p in _control_outcomes(False)
    ]
    message = [(_message_cell(False, None, None, BellOutcome.NO_PHOTON, None, True), 1.0 - eta)]
    message += [
        (_message_cell(False, j, None, m, None), eta * p_j * p)
        for j, p_j in priors
        for _, m, p in _message_outcomes(False, False)[j]
    ]
    if config.scheme == "none":
        return control, [], message, []
    if config.scheme == "wojcik-reference":
        loss = config.attack_loss
        control_attacked = lost_control(True, loss) + [
            (_control_cell(True, t, h), (1.0 - loss) / 2)
            for t, h in ((Occupation.POL1, 0), (Occupation.POL0, 1))
        ]
    else:
        control_attacked = [
            (_control_cell(True, t, h), p) for t, h, p in _control_outcomes(True)
        ]
    message_attacked = [
        (_message_cell(True, j, k, m, s), p_j * p_s * p)
        for j, p_j in priors
        for s, p_s in _COINS[config.scheme]
        for k, m, p in _message_outcomes(True, bool(s))[j]
    ]
    return control, control_attacked, message, message_attacked


class _RoundTable:
    """The flat outcome table of one run and its block sampler."""

    def __init__(self, config: ProtocolConfig) -> None:
        self.seed = config.seed
        self.mode_threshold = _threshold(config.control_prob)
        self.attack_threshold = _threshold(config.resolved_attack_fraction())
        self.cells: list[_Cell] = []
        # Sorted cell keys: each non-empty branch b adds its start b << 53 and
        # (b << 53) + threshold(bound) for each inner bound of its normalized
        # CDF.  A round keyed b << 53 | k picks cell (number of keys <= key)
        # - 1, which is searchsorted(bounds, k * 2**-53, "right") in branch b.
        keys: list[int] = []
        for branch, weighted in enumerate(_branch_cells(config)):
            kept = [(cell, p) for cell, p in weighted if p > 0.0]
            if kept:
                cdf = np.cumsum([p for _, p in kept])
                start = branch << _UNIT_BITS
                bounds = (cdf[:-1] / cdf[-1]).tolist()
                keys += [start] + [start + _threshold(bound) for bound in bounds]
                self.cells += [cell for cell, _ in kept]
        self.keys = np.array(keys, dtype=np.int64)
        # Cell indices are stored in uint8.
        assert len(self.cells) < 256
        # Bucket (guide) table: bucket b holds the keys with key >> 43 == b,
        # the branch bits and the top 10 bits of k.  Every key of a bucket
        # picks the cell of its start unless a table key lies inside it; only
        # rounds in such straddling buckets (a handful of 4096) are searched.
        # Branches 0 and 2 are never empty, so the first table key is 0 and
        # no bucket's cell is negative.
        starts = np.arange(1 << _BUCKET_BITS, dtype=np.int64) << _BUCKET_SHIFT
        first = np.searchsorted(self.keys, starts, "right") - 1
        last = np.searchsorted(self.keys, starts + ((1 << _BUCKET_SHIFT) - 1), "right") - 1
        self.bucket_cell = first.astype(np.uint8)
        self.straddles = first != last

    def sample(self, block: int, n: int) -> np.ndarray:
        """Cell indices of the first n rounds of a block."""
        # PCG64 emits in order, so 3n outputs are a prefix of the block, and
        # shifting each right by 11 gives the 53-bit integer of random().
        draws = round_rng(self.seed, block).bit_generator.random_raw(_DRAWS_PER_ROUND * n)
        draws >>= 64 - _UNIT_BITS
        draws = draws.view(np.int64).reshape(n, _DRAWS_PER_ROUND)
        # branch = 2 * (message round) + (attacked), key = branch << 53 | k
        key = (draws[:, 0] >= self.mode_threshold).astype(np.int64)
        key <<= 1
        key += draws[:, 1] < self.attack_threshold
        key <<= _UNIT_BITS
        key |= draws[:, 2]
        bucket = key >> _BUCKET_SHIFT
        cells = self.bucket_cell[bucket]
        fix = np.flatnonzero(self.straddles[bucket])
        cells[fix] = np.searchsorted(self.keys, key[fix], "right") - 1
        return cells

    def blocks(self, rounds: int) -> Iterator[tuple[int, np.ndarray]]:
        """(first round index, cell indices) of each block of the run."""
        for start in range(0, rounds, BLOCK_ROUNDS):
            yield start, self.sample(start // BLOCK_ROUNDS, min(BLOCK_ROUNDS, rounds - start))


def round_rng(seed: int, block: int) -> np.random.Generator:
    """Deterministic random substream of one block of rounds."""
    return np.random.default_rng((seed, block))


def run_rounds(config: ProtocolConfig) -> list[RoundRecord]:
    """All rounds of one run; round i depends only on (seed, i)."""
    table = _RoundTable(config)
    return [
        RoundRecord(i, *table.cells[cell])
        for start, cells in table.blocks(config.rounds)
        for i, cell in enumerate(cells.tolist(), start)
    ]


def replay_round(config: ProtocolConfig, round_index: int) -> RoundRecord:
    """Round ``round_index`` of the run, regenerated from its block alone."""
    if isinstance(round_index, bool) or not isinstance(round_index, numbers.Integral):
        raise ValueError(f"round_index must be an integer, got {round_index!r}")
    round_index = int(round_index)
    if not 0 <= round_index < config.rounds:
        raise IndexError(f"round {round_index!r} is outside a run of {config.rounds} rounds")
    table = _RoundTable(config)
    block, row = divmod(round_index, BLOCK_ROUNDS)
    return RoundRecord(round_index, *table.cells[table.sample(block, row + 1)[row]])


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
        counts = self.joint_counts
        table = np.full((2, 2, 2), math.nan)
        for j in (0, 1):
            n_j = counts[j].sum()
            if n_j > 0:
                table[j] = counts[j] / n_j
        return table

    def conditional_se(self) -> np.ndarray:
        """Per-cell standard error sqrt(p(1-p)/n_j); rows with no samples are NaN."""
        table = self.conditional_table()
        n_j = self.joint_counts.sum(axis=(1, 2))[:, None, None]
        return np.sqrt(table * (1.0 - table) / n_j)

    def to_json_dict(self) -> dict:
        return {
            "n_rounds": self.n_rounds,
            "n_control": self.n_control,
            "n_message": self.n_message,
            "n_control_attacked": self.n_control_attacked,
            "n_control_lost": self.n_control_lost,
            "n_detection": self.n_detection,
            "n_message_attacked": self.n_message_attacked,
            "n_message_unattacked_lost": self.n_message_unattacked_lost,
            "n_qber_errors": self.n_qber_errors,
            "n_stray_outcomes": self.n_stray_outcomes,
            "control_loss_rate": _json_float(self.control_loss_rate),
            "control_loss_se": _json_float(self.control_loss_se),
            "detection_rate": _json_float(self.detection_rate),
            "detection_se": _json_float(self.detection_se),
            "qber": _json_float(self.qber),
            "qber_se": _json_float(self.qber_se),
            "counts_s_off": self.counts_s_off.tolist(),
            "counts_s_on": self.counts_s_on.tolist(),
            "conditional_table": _json_table(self.conditional_table()),
            "conditional_se": _json_table(self.conditional_se()),
        }


def _rate(num: int, den: int) -> float:
    return num / den if den else math.nan


def _rate_se(num: int, den: int) -> float:
    if not den:
        return math.nan
    p = num / den
    return math.sqrt(p * (1.0 - p) / den)


def _json_float(value: float):
    return None if math.isnan(value) else value


def _json_table(table: np.ndarray):
    return [[[_json_float(float(v)) for v in row] for row in block] for block in table]


def aggregate(records: Iterable[RoundRecord]) -> RunStats:
    """Tally a record stream into RunStats."""
    return _tally((record, 1) for record in records)


def _tally(weighted: Iterable[tuple[RoundRecord | _Cell, int]]) -> RunStats:
    """Tally (record, number of rounds like it) pairs into RunStats."""
    n_rounds = n_control = n_message = 0
    n_control_attacked = n_control_lost = n_detection = 0
    n_message_attacked = n_message_unattacked_lost = 0
    n_qber_errors = n_stray = 0
    counts_s_off = np.zeros((2, 2, 2), dtype=np.int64)
    counts_s_on = np.zeros((2, 2, 2), dtype=np.int64)
    for record, n in weighted:
        n_rounds += n
        if record.mode == "control":
            n_control += n
            n_control_attacked += n * record.attacked
            n_control_lost += n * record.photon_lost
            n_detection += n * record.detection_event
            continue
        n_message += n
        if not record.attacked:
            n_message_unattacked_lost += n * record.photon_lost
            continue
        n_message_attacked += n
        correct = (record.j == 0 and record.m is BellOutcome.PSI_PLUS) or (
            record.j == 1 and record.m is BellOutcome.PSI_MINUS
        )
        n_qber_errors += n * (not correct)
        if record.m in _M_BIT and record.k is not None:
            target = counts_s_on if record.s_applied else counts_s_off
            target[record.j, record.k, _M_BIT[record.m]] += n
        else:
            n_stray += n
    return RunStats(
        n_rounds=n_rounds,
        n_control=n_control,
        n_message=n_message,
        n_control_attacked=n_control_attacked,
        n_control_lost=n_control_lost,
        n_detection=n_detection,
        n_message_attacked=n_message_attacked,
        n_message_unattacked_lost=n_message_unattacked_lost,
        n_qber_errors=n_qber_errors,
        n_stray_outcomes=n_stray,
        counts_s_off=counts_s_off,
        counts_s_on=counts_s_on,
    )


def run_simulation(config: ProtocolConfig) -> RunStats:
    """Sample and tally every round, block by block, without building
    records; equal to ``aggregate(run_rounds(config))``."""
    table = _RoundTable(config)
    counts = np.zeros(len(table.cells), dtype=np.int64)
    for _, cells in table.blocks(config.rounds):
        counts += np.bincount(cells, minlength=counts.size)
    return _tally(zip(table.cells, counts.tolist()))


def chi_squared(counts: np.ndarray, expected_conditional: np.ndarray) -> tuple[float, int]:
    """Pearson chi-squared of observed (j, k, m) counts against an exact
    conditional table, conditioning on the per-j sample sizes.

    Cells with zero expected probability contribute no degrees of freedom;
    any observation in such a cell returns an infinite statistic.
    """
    counts = np.asarray(counts, dtype=float)
    expected_conditional = np.asarray(expected_conditional, dtype=float)
    stat = 0.0
    df = 0
    for j in (0, 1):
        n_j = counts[j].sum()
        if n_j == 0:
            continue
        support = expected_conditional[j] > 0.0
        if np.any(counts[j][~support] > 0):
            return math.inf, df
        expected_counts = n_j * expected_conditional[j]
        df += int(support.sum()) - 1
        stat += float(
            (((counts[j] - expected_counts) ** 2)[support] / expected_counts[support]).sum()
        )
    return stat, df


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


def _row_text(cell: _Cell) -> str:
    """A cell's CSV row after the round index, line terminator included."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow(["", *map(_cell, cell)])
    return buffer.getvalue()


def write_records_csv(config: ProtocolConfig, path: str, metadata: dict) -> RunStats:
    """Write every round of the run as one CSV row, block by block, without
    building records: each cell's row text is formatted once per run.
    Returns the run's stats, tallied from the same blocks, which equal
    ``run_simulation(config)``."""
    table = _RoundTable(config)
    counts = np.zeros(len(table.cells), dtype=np.int64)
    with open(path, "w", newline="") as handle:
        for line in metadata_lines(metadata):
            handle.write(line + "\n")
        csv.writer(handle).writerow(_CSV_COLUMNS)
        rows = [_row_text(cell) for cell in table.cells]
        for start, cells in table.blocks(config.rounds):
            counts += np.bincount(cells, minlength=counts.size)
            for offset in range(0, cells.size, _CSV_CHUNK_ROUNDS):
                part = cells[offset:offset + _CSV_CHUNK_ROUNDS]
                # index, row, index, row, ...: one join and one write per chunk
                text = [""] * (2 * part.size)
                text[0::2] = map(str, range(start + offset, start + offset + part.size))
                text[1::2] = map(rows.__getitem__, part.tolist())
                handle.write("".join(text))
    return _tally(zip(table.cells, counts.tolist()))
