"""Outcome distributions, mutual information, and transmission-security bounds.

Message-mode outcomes are described by a joint distribution p(j, k, m) over
the sender's bit j, the eavesdropper's register bit k, and the receiver's
decoded bit m (psi_plus -> 0, psi_minus -> 1).  Its conditional tables are
``attacks.exact_outcome_table``, exact from the attack states.  Three
variants are exposed:

* ``plain``        -- attack without symmetrization,
* ``symmetrized``  -- attack with the symmetrization step always applied,
* ``fair-mixture`` -- fair coin over the two, which is what the receiver
                      sees when the eavesdropper hides the bias (she keeps
                      her coin record, so her own information is computed
                      on the plain/symmetrized branches, not the mixture).

Closed-form expressions for the information gains are evaluated verbatim as
printed in the source material of this model and audited against the
brute-force values from the joint distributions; one pair of printed
formulas is known to disagree with brute force, and ``closed_form`` reports
that through its discrepancy flag instead of silently correcting it.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, NamedTuple

import numpy as np

from .attacks import AttackProfile, exact_outcome_table

VARIANTS = ("plain", "symmetrized", "fair-mixture")
PAIRS = ("AE", "AB", "BE")
FORMULAS = ("plain_ae_ab", "plain_be", "sym_ae_ab", "sym_be")

# Conditional tables P(k, m | j), indexed [j, k, m], exact from the attack states.
_CONDITIONALS = {"plain": exact_outcome_table(False), "symmetrized": exact_outcome_table(True)}
_CONDITIONALS["fair-mixture"] = 0.5 * (_CONDITIONALS["plain"] + _CONDITIONALS["symmetrized"])
for _table in _CONDITIONALS.values():
    _table.setflags(write=False)


@dataclasses.dataclass(frozen=True)
class JointDistribution:
    """Joint probabilities p(j, k, m)."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=float)
        if probs.shape != (2, 2, 2):
            raise ValueError(f"joint table must have shape (2,2,2), got {probs.shape}")
        # The entries in memory order, which is the order numpy's sum adds
        # them in: pairwise, as the total below does, so the total is
        # probs.sum() bit for bit.
        p0, p1, p2, p3, p4, p5, p6, p7 = cells = probs.ravel("K").tolist()
        # As probs.min() < 0.0, whose minimum is nan when any entry is: a
        # table with a nan entry fails the sum check instead.
        if min(cells) < 0.0 and not any(map(math.isnan, cells)):
            raise ValueError("joint table has negative entries")
        total = ((p0 + p1) + (p2 + p3)) + ((p4 + p5) + (p6 + p7))
        # Written as "not <=" so that a nan entry fails too.
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError("joint table does not sum to 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    def conditional(self) -> np.ndarray:
        """P(k, m | j) rows, defined only when both priors are nonzero."""
        prior = self.probs.sum(axis=(1, 2))
        return self.probs / prior[:, None, None]


def exact_joint(variant: str, c0: float) -> JointDistribution:
    """Joint distribution of one attacked message round.

    c0 is the prior probability of message bit 0 and must lie strictly
    between 0 and 1 (a deterministic message carries no information and the
    information measures below degenerate).
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    if not 0.0 < c0 < 1.0:
        raise ValueError(f"prior c0 must lie strictly between 0 and 1, got {c0!r}")
    prior = np.array([c0, 1.0 - c0])
    probs = prior[:, None, None] * _CONDITIONALS[variant]
    return JointDistribution(probs)


# Axes of p(j, k, m) that put each pair's two variables first and the
# variable it leaves out last.
_PAIR_AXES = {"AE": (0, 1, 2), "AB": (0, 2, 1), "BE": (1, 2, 0)}


def mutual_information(dist: JointDistribution, pair: str) -> float:
    """Mutual information in bits between two of the three round variables.

    pair is "AE" (sender bit; eavesdropper bit), "AB" (sender bit; receiver
    bit) or "BE" (receiver bit; eavesdropper bit).
    """
    if pair not in _PAIR_AXES:
        raise ValueError(f"unknown pair {pair!r}, expected one of {PAIRS}")
    # Every marginal is a sum of two floats, which Python adds as numpy does.
    ((p000, p001), (p010, p011)), ((p100, p101), (p110, p111)) = (
        dist.probs.transpose(_PAIR_AXES[pair]).tolist()
    )
    j00, j01, j10, j11 = p000 + p001, p010 + p011, p100 + p101, p110 + p111
    left0, left1 = j00 + j01, j10 + j11
    right0, right1 = j00 + j10, j01 + j11
    cells = (
        (j00, left0 * right0),
        (j01, left0 * right1),
        (j10, left1 * right0),
        (j11, left1 * right1),
    )
    return math.fsum([p * math.log2(p / marginals) for p, marginals in cells if p > 0.0])


def qber(dist: JointDistribution) -> float:
    """Probability that the receiver decodes the wrong bit, p(m != j)."""
    return float(dist.probs[0, :, 1].sum() + dist.probs[1, :, 0].sum())


def mixture_ae_conditioned(c0: float) -> float:
    """Sender-eavesdropper information under the fair mixture when the
    eavesdropper conditions on her own symmetrization coin.

    She keeps a record of the coin, so her gain is the average of the two
    per-branch gains rather than the gain of the blended distribution; the
    receiver, who never learns the coin, is stuck with the mixture.
    """
    return 0.5 * (
        mutual_information(exact_joint("plain", c0), "AE")
        + mutual_information(exact_joint("symmetrized", c0), "AE")
    )


def closed_form(formula: str, c0: float) -> tuple[float, bool]:
    """Evaluate one printed closed-form information expression verbatim.

    Returns (value in bits, discrepancy flag).  The flag is set when the
    printed expression differs from the brute-force mutual information of
    the corresponding distribution by more than 1e-9; the printed value is
    returned either way, never corrected.
    """
    if not 0.0 < c0 < 1.0:
        raise ValueError(f"prior c0 must lie strictly between 0 and 1, got {c0!r}")
    lg = math.log2
    if formula == "plain_ae_ab":
        value = c0 - 0.5 * ((1 - c0) * lg(1 - c0) + (1 + c0) * lg(1 + c0))
        reference = mutual_information(exact_joint("plain", c0), "AE")
    elif formula == "plain_be":
        value = (
            -(1 + c0) * lg(1 + c0)
            + 0.25 * (1 - c0) * lg(1 - c0)
            + 0.25 * (1 + 3 * c0) * lg(1 + 3 * c0)
        )
        reference = mutual_information(exact_joint("plain", c0), "BE")
    elif formula == "sym_ae_ab":
        value = 1 - c0 - 0.5 * (c0 * lg(c0) + (2 - c0) * lg(2 - c0))
        reference = mutual_information(exact_joint("symmetrized", c0), "AE")
    elif formula == "sym_be":
        value = (
            -(2 - c0) * lg(2 - c0)
            + 0.25 * c0 * lg(c0)
            + 0.25 * (4 - 3 * c0) * lg(4 - 3 * c0)
        )
        reference = mutual_information(exact_joint("symmetrized", c0), "BE")
    else:
        raise ValueError(f"unknown formula {formula!r}, expected one of {FORMULAS}")
    return value, abs(value - reference) > 1e-9


# --- security curves over the transmission efficiency -------------------------


def max_attack_fraction(eta: float, loss: float) -> float:
    """Largest fraction of rounds attackable without raising the observed
    loss rate above the channel's own 1 - eta: min(1, (1 - eta)/loss)."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmission efficiency must be in [0, 1], got {eta!r}")
    if loss <= 0.0:
        raise ValueError(f"attack loss must be positive, got {loss!r}")
    return min(1.0, (1.0 - eta) / loss)


class CurvePoint(NamedTuple):
    """Information gains at one transmission efficiency under the linear
    partial-attack model: the eavesdropper attacks a fraction mu of rounds,
    unattacked rounds carry one full bit to the receiver."""

    eta: float
    mu: float
    i_ae: float
    i_ab: float
    i_be: float


def info_vs_eta(profile: AttackProfile, etas: Iterable[float]) -> list[CurvePoint]:
    """Evaluate the information curves on a grid of transmission efficiencies."""
    loss, i_ae, i_ab, i_be = profile.loss, profile.i_ae, profile.i_ab, profile.i_be
    points = []
    for eta in etas:
        mu = max_attack_fraction(eta, loss)
        points.append(CurvePoint(float(eta), mu, mu * i_ae, (1.0 - mu) + mu * i_ab, mu * i_be))
    return points


def _info_gap(profile: AttackProfile, eta: float) -> float:
    mu = max_attack_fraction(eta, profile.loss)
    return mu * profile.i_ae - ((1.0 - mu) + mu * profile.i_ab)


def insecurity_bound(profile: AttackProfile) -> float:
    """Largest transmission efficiency at which the eavesdropper still
    matches the receiver's information, found by bisection.

    Below the returned eta_star the protocol conveys no secrecy advantage
    (I_AE >= I_AB under the linear model); requires i_ae > i_ab.
    """
    if profile.i_ae <= profile.i_ab:
        raise ValueError(
            "no crossing: the eavesdropper never catches up when i_ae <= i_ab"
        )
    lo = 1.0 - profile.loss
    hi = 1.0
    if _info_gap(profile, lo) <= 0.0:
        raise ValueError("no crossing inside the partial-attack domain")
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if _info_gap(profile, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def crossing_closed_form(profile: AttackProfile) -> tuple[float, float]:
    """(mu_star, eta_star) where the information curves cross, in closed form:
    mu_star = 1 / (1 + i_ae - i_ab), eta_star = 1 - mu_star * loss."""
    if profile.i_ae <= profile.i_ab:
        raise ValueError(
            "no crossing: the eavesdropper never catches up when i_ae <= i_ab"
        )
    mu_star = 1.0 / (1.0 + profile.i_ae - profile.i_ab)
    return mu_star, 1.0 - mu_star * profile.loss


@dataclasses.dataclass(frozen=True)
class SecurityReport:
    """Security summary of one attack scheme over a transmission-efficiency
    grid.  full_attack_edge is the largest eta at which every round can be
    attacked without raising the loss rate; eta_star is the insecurity
    bound."""

    scheme: str
    full_attack_edge: float
    eta_star: float
    mu_star: float
    curve: tuple[CurvePoint, ...]

    def to_json_dict(self) -> dict:
        """Every field but the curve."""
        fields = dataclasses.fields(self)
        return {f.name: getattr(self, f.name) for f in fields if f.name != "curve"}


def default_eta_grid() -> list[float]:
    """Transmission efficiencies 0.00, 0.01, ..., 1.00."""
    return [i / 100 for i in range(101)]


def security_report(profile: AttackProfile) -> SecurityReport:
    """Security summary of one scheme on the default transmission-efficiency grid."""
    eta_star = insecurity_bound(profile)
    mu_star, eta_star_closed = crossing_closed_form(profile)
    if abs(eta_star - eta_star_closed) > 1e-8:
        raise RuntimeError(
            f"bisection ({eta_star!r}) and closed form ({eta_star_closed!r}) disagree"
        )
    return SecurityReport(
        scheme=profile.name,
        full_attack_edge=1.0 - profile.loss,
        eta_star=eta_star,
        mu_star=mu_star,
        curve=tuple(info_vs_eta(profile, default_eta_grid())),
    )
