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
the real channel and survives with probability ``eta``, drawn once per
round.

Attacked rounds evolve the exact 54-dimensional states; the pure
pre-measurement states per (message bit, symmetrization) branch are
memoized, and every measurement is sampled per round from an explicit
per-round random substream derived from (seed, round_index).  The
``wojcik-reference`` scheme has no gate-level model here and is simulated
from its summary statistics: half the attacked control photons are lost,
surviving control outcomes stay anticorrelated, and message outcomes follow
the same conditional table as the plain attack.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import numbers
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .attacks import (
    attack_ba,
    exact_outcome_table,
    improved_profile,
    message_state,
    wojcik_profile,
)
from .engine import (
    BellOutcome,
    Occupation,
    PAULI_Z,
    PureState,
    apply_polarization_gate,
    bell_probabilities,
    make_initial,
    project_mode,
    sample_from,
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
        for name in ("c0", "control_prob", "eta"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if isinstance(self.attack_fraction, str):
            if self.attack_fraction != "auto":
                raise ValueError(
                    f'attack_fraction must be a probability or "auto", got {self.attack_fraction!r}'
                )
        elif not 0.0 <= self.attack_fraction <= 1.0:
            raise ValueError(
                f"attack_fraction must be in [0, 1], got {self.attack_fraction!r}"
            )

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


# Pure branch states; memoized because they are immutable and reused by
# every attacked round.
@lru_cache(maxsize=None)
def _attacked_control_state() -> PureState:
    return attack_ba(make_initial())


@lru_cache(maxsize=None)
def _attacked_message_state(j: int, apply_s: bool) -> PureState:
    return message_state(j, apply_s=apply_s)


@lru_cache(maxsize=None)
def _plain_message_state(j: int) -> PureState:
    state = make_initial()
    if j:
        state = apply_polarization_gate(state, "t", PAULI_Z)
    return state


# Measurement menus: each branch state's outcome probabilities and collapsed
# follow-ups are computed once by the exact engine; the per-round work is then
# a plain categorical draw per measurement (one rng draw each, like sampling
# on the state itself, but without rebuilding 54-dim arrays every round).


def _control_menu_for(state: PureState):
    t_outcomes = []
    t_probs = []
    h_menus = []
    for occ in (Occupation.VAC, Occupation.POL0, Occupation.POL1):
        prob, collapsed = project_mode(state, "t", occ)
        if prob <= 0.0:
            continue
        h_bits = []
        h_probs = []
        for h_occ, bit in ((Occupation.POL0, 0), (Occupation.POL1, 1)):
            h_prob, _ = project_mode(collapsed, "h", h_occ)
            if h_prob > 0.0:
                h_bits.append(bit)
                h_probs.append(h_prob)
        t_outcomes.append(occ)
        t_probs.append(prob)
        h_menus.append((tuple(h_bits), tuple(h_probs)))
    return tuple(t_outcomes), tuple(t_probs), tuple(h_menus)


@lru_cache(maxsize=None)
def _attacked_control_menu():
    return _control_menu_for(_attacked_control_state())


@lru_cache(maxsize=None)
def _plain_control_menu():
    return _control_menu_for(make_initial())


def _bell_menu_for(state: PureState):
    outcomes = []
    probs = []
    for outcome, prob in bell_probabilities(state).items():
        if prob > 0.0:
            outcomes.append(outcome)
            probs.append(prob)
    return tuple(outcomes), tuple(probs)


@lru_cache(maxsize=None)
def _attacked_message_menu(j: int, apply_s: bool):
    state = _attacked_message_state(j, apply_s)
    ks = []
    k_probs = []
    bell_menus = []
    for occ, k in ((Occupation.POL0, 0), (Occupation.POL1, 1)):
        prob, collapsed = project_mode(state, "y", occ)
        if prob <= 0.0:
            continue
        ks.append(k)
        k_probs.append(prob)
        bell_menus.append(_bell_menu_for(collapsed))
    return tuple(ks), tuple(k_probs), tuple(bell_menus)


@lru_cache(maxsize=None)
def _plain_bell_menu(j: int):
    return _bell_menu_for(_plain_message_state(j))


def _measure_control(menu, rng) -> tuple[Occupation, int]:
    t_outcomes, t_probs, h_menus = menu
    t_out = sample_from(rng, t_outcomes, t_probs)
    h_bits, h_probs = h_menus[t_outcomes.index(t_out)]
    h_bit = sample_from(rng, h_bits, h_probs)
    return t_out, h_bit


@lru_cache(maxsize=None)
def _reference_message_cells(j: int) -> tuple[tuple[tuple[int, BellOutcome], float], ...]:
    """Sampling cells for the reference scheme's message rounds: the plain
    attack's conditional table, per its published equivalence."""
    table = exact_outcome_table(apply_s=False)
    cells = []
    for k in (0, 1):
        for m_bit, outcome in ((0, BellOutcome.PSI_PLUS), (1, BellOutcome.PSI_MINUS)):
            cells.append(((k, outcome), float(table[j, k, m_bit])))
    return tuple(cells)


def round_rng(seed: int, round_index: int) -> np.random.Generator:
    """Deterministic per-round random substream."""
    return np.random.default_rng((seed, round_index))


def _t_bit(occ: Occupation) -> int:
    return 0 if occ is Occupation.POL0 else 1


def run_round(
    config: ProtocolConfig, rng: np.random.Generator, round_index: int = 0
) -> RoundRecord:
    """Execute one protocol round, drawing all randomness from rng."""
    is_control = rng.random() < config.control_prob
    attacked = config.scheme != "none" and rng.random() < config.resolved_attack_fraction()

    if is_control:
        if attacked and config.scheme == "wojcik-reference":
            lost = rng.random() < 0.5
            h_bit = int(rng.random() < 0.5)
            t_out = Occupation.VAC if lost else (
                Occupation.POL0 if h_bit == 1 else Occupation.POL1
            )
        elif attacked:
            t_out, h_bit = _measure_control(_attacked_control_menu(), rng)
            lost = t_out is Occupation.VAC
        else:
            lost = config.scheme == "none" and not rng.random() < config.eta
            if lost:
                t_out = Occupation.VAC
                h_bit = int(rng.random() < 0.5)
            else:
                t_out, h_bit = _measure_control(_plain_control_menu(), rng)
        detection = (not lost) and h_bit == _t_bit(t_out)
        return RoundRecord(
            round_index=round_index,
            mode="control",
            attacked=attacked,
            j=None,
            k=None,
            m=None,
            alice_t_outcome=t_out,
            bob_h_outcome=h_bit,
            s_applied=None,
            photon_lost=lost,
            detection_event=detection,
        )

    # message round
    if attacked:
        j = 0 if rng.random() < config.c0 else 1
        if config.scheme == "improved-symmetrized":
            s_applied: bool | None = rng.random() < 0.5
        elif config.scheme == "improved":
            s_applied = False
        else:
            s_applied = None
        if config.scheme == "wojcik-reference":
            (k, m), _prob = _draw_cell(rng, _reference_message_cells(j))
        else:
            ks, k_probs, bell_menus = _attacked_message_menu(j, bool(s_applied))
            k = sample_from(rng, ks, k_probs)
            m_outcomes, m_probs = bell_menus[ks.index(k)]
            m = sample_from(rng, m_outcomes, m_probs)
        return RoundRecord(
            round_index=round_index,
            mode="message",
            attacked=True,
            j=j,
            k=k,
            m=m,
            alice_t_outcome=None,
            bob_h_outcome=None,
            s_applied=s_applied,
            photon_lost=False,
            detection_event=False,
        )

    lost = config.scheme == "none" and not rng.random() < config.eta
    if lost:
        j = None
        m: BellOutcome | None = BellOutcome.NO_PHOTON
    else:
        j = 0 if rng.random() < config.c0 else 1
        m_outcomes, m_probs = _plain_bell_menu(j)
        m = sample_from(rng, m_outcomes, m_probs)
    return RoundRecord(
        round_index=round_index,
        mode="message",
        attacked=False,
        j=j,
        k=None,
        m=m,
        alice_t_outcome=None,
        bob_h_outcome=None,
        s_applied=None,
        photon_lost=lost,
        detection_event=False,
    )


def _draw_cell(rng, cells):
    outcomes = [cell for cell, _ in cells]
    probs = [p for _, p in cells]
    choice = sample_from(rng, outcomes, probs)
    return choice, dict(cells)[choice]


def run_rounds(config: ProtocolConfig) -> list[RoundRecord]:
    """All rounds of one run, each on its own (seed, round_index) substream."""
    return [
        run_round(config, round_rng(config.seed, i), i) for i in range(config.rounds)
    ]


_M_BIT = {BellOutcome.PSI_PLUS: 0, BellOutcome.PSI_MINUS: 1}


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

    def conditional_table(self, counts: np.ndarray | None = None) -> np.ndarray:
        """Empirical P(k, m | j); rows with no samples are NaN."""
        if counts is None:
            counts = self.joint_counts
        table = np.full((2, 2, 2), math.nan)
        for j in (0, 1):
            n_j = counts[j].sum()
            if n_j > 0:
                table[j] = counts[j] / n_j
        return table

    def conditional_se(self, counts: np.ndarray | None = None) -> np.ndarray:
        """Per-cell standard error sqrt(p(1-p)/n_j) of the empirical table."""
        if counts is None:
            counts = self.joint_counts
        table = self.conditional_table(counts)
        out = np.full((2, 2, 2), math.nan)
        for j in (0, 1):
            n_j = counts[j].sum()
            if n_j > 0:
                out[j] = np.sqrt(table[j] * (1.0 - table[j]) / n_j)
        return out

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
    n_rounds = n_control = n_message = 0
    n_control_attacked = n_control_lost = n_detection = 0
    n_message_attacked = n_message_unattacked_lost = 0
    n_qber_errors = n_stray = 0
    counts_s_off = np.zeros((2, 2, 2), dtype=np.int64)
    counts_s_on = np.zeros((2, 2, 2), dtype=np.int64)
    for record in records:
        n_rounds += 1
        if record.mode == "control":
            n_control += 1
            n_control_attacked += record.attacked
            n_control_lost += record.photon_lost
            n_detection += record.detection_event
            continue
        n_message += 1
        if not record.attacked:
            n_message_unattacked_lost += record.photon_lost
            continue
        n_message_attacked += 1
        correct = (record.j == 0 and record.m is BellOutcome.PSI_PLUS) or (
            record.j == 1 and record.m is BellOutcome.PSI_MINUS
        )
        n_qber_errors += not correct
        if record.m in _M_BIT and record.k is not None:
            target = counts_s_on if record.s_applied else counts_s_off
            target[record.j, record.k, _M_BIT[record.m]] += 1
        else:
            n_stray += 1
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
    """Run all rounds and aggregate; deterministic in (config, seed)."""
    return aggregate(run_rounds(config))


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


_CSV_COLUMNS = (
    "round_index",
    "mode",
    "attacked",
    "j",
    "k",
    "m",
    "alice_t_outcome",
    "bob_h_outcome",
    "s_applied",
    "photon_lost",
    "detection_event",
)


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


def write_records_csv(records: Sequence[RoundRecord], path: str, metadata: dict) -> None:
    with open(path, "w", newline="") as handle:
        for line in metadata_lines(metadata):
            handle.write(line + "\n")
        writer = csv.writer(handle)
        writer.writerow(_CSV_COLUMNS)
        for record in records:
            writer.writerow([_cell(getattr(record, column)) for column in _CSV_COLUMNS])
