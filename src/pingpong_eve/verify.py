"""Self-verification battery: every pinned number recomputed and compared.

``CHECKS`` lists the battery's topics in report order, each a function that
yields its checks' results.  ``run_all_checks`` computes the inputs that
several checks read once per call (``_Inputs``) and keeps nothing, so every
call recomputes every check.  Among those inputs, every message state the
battery audits (the improved attack's, Wojcik's and the pinned rows, each
with its S images) is one (3, 2, 2, 54) stack, tabulated in one
``message_outcome_tables`` call.  The known printed-formula discrepancy is
itself a check: it passes when the discrepancy is detected, because
faithfully reporting that disagreement is the intended behavior.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import __version__
from .attacks import (
    EQUAL_ENTRIES,
    F_KETS,
    LOST_ENTRIES,
    AttackProfile,
    attack_ba,
    control_outcomes,
    forward_images,
    improved_profile,
    inbound_amps,
    message_amps,
    message_outcome_tables,
    outbound_amps,
    wojcik_profile,
)
from .conventions import STATUSES, solve, summarize
from .engine import DIM, PureState, ket, make_initial, require_normalized
from .information import (
    FORMULAS,
    PAIRS,
    closed_form,
    crossing_closed_form,
    default_eta_grid,
    exact_joint,
    info_vs_eta,
    insecurity_bound,
    max_attack_fraction,
    mixture_ae_conditioned,
    mutual_information,
    qber,
)

C0_GRID = [i / 10 for i in range(1, 10)]

A_ANCHOR = 0.311278
B_ANCHOR = 0.188722
E_ANCHOR = 0.073761
ETA_STAR_IMPROVED_ANCHOR = 0.777297
ETA_STAR_WOJCIK_ANCHOR = 0.554594
MU_STAR_ANCHOR = 0.890812


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


# The pinned states are fixed data, built once at import; every check
# recomputes what it compares with them.
_EXPECTED_INITIAL = PureState.from_terms(
    {ket(0, "1", "vac", "0"): math.sqrt(0.5), ket(1, "0", "vac", "0"): math.sqrt(0.5)}
)
# the four image kets B1..B4 of the attack, at amplitude 1/2 each
_PINNED_OUTBOUND = PureState.from_terms({
    ket(*b): 0.5
    for b in (
        (0, "vac", "1", "0"), (0, "1", "1", "vac"), (1, "0", "vac", "1"), (1, "0", "0", "vac")
    )
})

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _pinned_messages() -> np.ndarray:
    """(2, 2, 54) read-only pinned message states, row [s, j] for message
    bit j: for s = 0 the returned (|0, 1, vac, j> + |1, 0, vac, 0>)/sqrt(2),
    for s = 1, after the symmetrization, (|0, 1, vac, j> - |1, 0, vac, 1>)/sqrt(2)."""
    rows = np.zeros((2, 2, DIM), dtype=complex)
    for s in (0, 1):
        for j in (0, 1):
            rows[s, j, ket(0, "1", "vac", str(j)).index] = _INV_SQRT2
            rows[s, j, ket(1, "0", "vac", str(s)).index] = -_INV_SQRT2 if s else _INV_SQRT2
    rows.setflags(write=False)
    return rows


_PINNED_MESSAGES = _pinned_messages()


def _round_trip_states() -> np.ndarray:
    """(100, 54) read-only random in-domain states, seeded: normal draws as
    coefficients on f1..f4, each row normalized."""
    rng = np.random.default_rng(20260817)
    draws = rng.normal(size=(100, 2, 4))
    coeffs = draws[:, 0] + 1j * draws[:, 1]
    # Each row is divided by its np.linalg.norm: the square root of a dot
    # product over the real parts plus one over the imaginary parts, which a
    # stacked (1, 4) @ (4, 1) matmul computes row by row.  A norm along
    # axis 1 sums in another order and rounds some rows differently.
    re, im = coeffs.real[:, None, :], coeffs.imag[:, None, :]
    coeffs /= np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0]
    states = np.zeros((100, DIM), dtype=complex)
    states[:, [k.index for k in F_KETS]] = coeffs
    # fixed and read-only, so checked here once, as a PureState checks its input
    require_normalized(states)
    states.setflags(write=False)
    return states


_ROUND_TRIP_STATES = _round_trip_states()


class _Prior(NamedTuple):
    """Information values at one grid prior c0, computed through ``information``."""

    forms: dict[str, tuple[float, bool, float]]  # closed_form(formula, c0) by formula
    plain: tuple[float, float, float]  # plain (AE, AB, BE) at c0
    mirrored: tuple[float, float, float]  # symmetrized (AE, AB, BE) at 1 - c0


def _prior(c0: float) -> _Prior:
    forms = {formula: closed_form(formula, c0) for formula in FORMULAS}
    # The plain AE and BE gains are the closed forms' brute-force references.
    plain_ab = mutual_information(exact_joint("plain", c0), "AB")
    mirrored = exact_joint("symmetrized", 1.0 - c0)
    mirrored_gains = tuple(mutual_information(mirrored, pair) for pair in PAIRS)
    return _Prior(forms, (forms["plain_ae_ab"][2], plain_ab, forms["plain_be"][2]), mirrored_gains)


def _audited_messages() -> np.ndarray:
    """(3, 2, 2, 54) stack of every message state the battery audits, rows
    [s, j]: the improved attack's ``message_amps``, Wojcik's, then the
    pinned rows."""
    return np.array([message_amps("improved"), message_amps("wojcik"), _PINNED_MESSAGES])


def _control_sums(attack: str) -> tuple[float, float]:
    """P(no photon) and P(equal bits) of the named attack's control table,
    each its named entries summed left to right."""
    control = control_outcomes(attack)
    return sum(control[i] for i in LOST_ENTRIES), sum(control[i] for i in EQUAL_ENTRIES)


class _Inputs(NamedTuple):
    """What several checks read, computed once per ``run_all_checks`` call."""

    messages: np.ndarray  # _audited_messages(): improved, Wojcik's, pinned
    tables: np.ndarray  # their message_outcome_tables, one stacked call
    improved: AttackProfile
    wojcik: AttackProfile
    priors: dict[float, _Prior]  # by prior in C0_GRID


def _within(name: str, label: str, diff: float) -> tuple:
    """A difference that must be at most 1e-12."""
    return name, diff <= 1e-12, f"{label} {diff:.3e}"


def _anchored(name: str, label: str, value: float, anchor: float, tol: float) -> tuple:
    """A value that must lie within tol of its printed anchor."""
    return name, abs(value - anchor) < tol, f"{label} = {value:.9f} (anchor {anchor})"


def _states(inputs: _Inputs):
    initial = make_initial()
    diff = initial.max_amplitude_diff(_EXPECTED_INITIAL)
    yield _within("initial-state", "max amplitude diff", diff)
    diff = attack_ba(initial).max_amplitude_diff(_PINNED_OUTBOUND)
    yield _within("outbound-state", "four basis terms at amplitude 1/2, max diff", diff)
    # each message state row by row against its pinned row [s, j]: the
    # returned rows of one message round (s = 0) and their S images (s = 1)
    diffs = np.abs(inputs.messages[0] - _PINNED_MESSAGES).max(axis=-1)
    for j in (0, 1):
        yield _within(f"returned-state-bit{j}", "max amplitude diff", diffs[0, j])
        yield _within(f"symmetrized-returned-bit{j}", "max amplitude diff", diffs[1, j])
    images = forward_images()
    diff = np.max(np.abs(images @ images.conj().T - np.eye(4)))
    yield _within("attack-images-orthonormal", "gram deviation", diff)


def _tables(inputs: _Inputs):
    # control statistics of the attacked control table, tabulated exactly from
    # the outbound state, so they admit equality checks
    p_vac, p_equal = _control_sums("improved")
    exact = p_vac == 0.25 and inputs.improved.loss == p_vac
    yield "control-no-photon", exact, f"P(no photon) = {p_vac!r}, pinned 1/4"
    yield "control-anticorrelation", p_equal == 0.0, f"P(equal bits) = {p_equal!r}"

    # outcome tables: the attack states' against the pinned states' tables
    improved, wojcik, pinned = inputs.tables
    for variant, table, expected in zip(("plain", "symmetrized"), improved, pinned):
        diff = np.max(np.abs(table - expected))
        yield f"{variant}-outcome-table", (table == expected).all(), f"max cell diff {diff:.3e}"

    # the reference attack, tabulated exactly from its own circuit
    p_vac, p_equal = _control_sums("wojcik")
    same_tables = bool((wojcik == improved).all())
    yield (
        "reference-attack",
        p_vac == 0.5 and inputs.wojcik.loss == p_vac and p_equal == 0.0 and same_tables,
        f"P(no photon) = {p_vac!r}, pinned 1/2; P(equal bits) = {p_equal!r}; "
        + f"message tables {'equal' if same_tables else 'differ from'} the improved attack's",
    )


def _information(inputs: _Inputs):
    # anchors at the balanced prior
    priors = inputs.priors
    i_ae, i_ab, i_be = priors[0.5].plain
    name, passed, detail = _anchored("info-gain-eavesdropper", "I_AE = I_AB", i_ae, A_ANCHOR, 1e-6)
    yield name, passed and abs(i_ae - i_ab) < 1e-12, detail
    yield _anchored("info-receiver-eavesdropper", "I_BE", i_be, E_ANCHOR, 1e-6)
    mix_ab = mutual_information(exact_joint("fair-mixture", 0.5), "AB")
    yield _anchored("info-mixture-receiver", "mixture I_AB", mix_ab, B_ANCHOR, 1e-6)
    cond_ae = mixture_ae_conditioned(0.5)
    detail = f"coin-conditioned mixture I_AE = {cond_ae:.9f} equals plain gain"
    yield "info-mixture-coin-conditioning", abs(cond_ae - i_ae) < 1e-12, detail
    error_rate = qber(exact_joint("plain", 0.5))
    yield "decode-error-rate", error_rate == 0.25, f"QBER = {error_rate!r}, pinned 1/4"

    # closed forms
    worst = 0.0
    for formula in ("plain_ae_ab", "sym_ae_ab"):
        for c0 in C0_GRID:
            value, flagged, brute = priors[c0].forms[formula]
            worst = max(worst, math.inf if flagged else abs(value - brute))
    detail = f"printed forms track brute force, worst diff {worst:.3e}"
    yield "closed-form-ae-ab-grid", worst <= 1e-9, detail
    printed, flagged, brute = priors[0.5].forms["plain_be"]
    yield (
        "closed-form-be-discrepancy",
        flagged and abs(printed - (-0.176239)) < 1e-6 and abs(brute - 0.073761) < 1e-6,
        f"printed form gives {printed:.6f}, brute force gives {brute:.6f}, flagged",
    )
    flags = [priors[c0].forms[formula][1] for formula in ("sym_be", "plain_be") for c0 in C0_GRID]
    yield "closed-form-be-flag-grid", all(flags), "discrepancy flag raised at every grid prior"

    # symmetry properties
    diffs = [abs(a - b) for c0 in C0_GRID for a, b in zip(priors[c0].plain, priors[c0].mirrored)]
    yield _within("mirror-symmetry", "worst pairwise diff", max(diffs))
    gap = abs(priors[0.3].forms["plain_ae_ab"][2] - priors[0.3].forms["sym_ae_ab"][2])
    detail = f"plain vs symmetrized gain differ by {gap:.6f} at prior 0.3"
    yield "biased-prior-asymmetry", gap > 1e-6, detail


def _bounds_and_curve(inputs: _Inputs):
    improved, wojcik = inputs.improved, inputs.wojcik
    yield (
        "full-attack-domains",
        max_attack_fraction(0.75, improved.loss) == 1.0
        and max_attack_fraction(0.5, wojcik.loss) == 1.0
        and max_attack_fraction(0.76, improved.loss) < 1.0
        and max_attack_fraction(0.51, wojcik.loss) < 1.0,
        "every round attackable up to eta 0.75 (improved) and 0.50 (reference)",
    )
    eta_i, eta_w = insecurity_bound(improved), insecurity_bound(wojcik)
    mu_star, closed_i = crossing_closed_form(improved)
    closed_w = crossing_closed_form(wojcik)[1]
    yield _anchored("insecurity-bound-improved", "eta*", eta_i, ETA_STAR_IMPROVED_ANCHOR, 1e-4)
    yield _anchored("insecurity-bound-reference", "eta*", eta_w, ETA_STAR_WOJCIK_ANCHOR, 1e-4)
    worst = max(abs(eta_i - closed_i), abs(eta_w - closed_w))
    yield "bisection-vs-closed-form", worst <= 1e-9, f"bisection within {worst:.3e} of closed form"
    yield _anchored("optimal-attack-fraction", "mu*", mu_star, MU_STAR_ANCHOR, 1e-4)

    # curve shape
    points = info_vs_eta(improved, default_eta_grid())
    plateau = [p for p in points if p.eta <= 0.75]
    tail = [p for p in points if p.eta >= 0.75]
    plateau_ok = all(abs(p.i_ae - plateau[0].i_ae) <= 1e-12 for p in plateau)
    decreasing = all(b.i_ae < a.i_ae for a, b in zip(tail, tail[1:]))
    increasing = all(b.i_ab > a.i_ab for a, b in zip(tail, tail[1:]))
    yield (
        "curve-shape",
        plateau_ok and decreasing and increasing,
        "gain flat on the full-attack domain, then strictly crossing",
    )
    bracket = None
    for a, b in zip(points, points[1:]):
        if (a.i_ae - a.i_ab) >= 0.0 > (b.i_ae - b.i_ab):
            bracket = (a.eta, b.eta)
    yield (
        "curve-crossing-bracketed",
        bracket is not None and bracket[0] <= eta_i <= bracket[1],
        f"sign change between eta {bracket[0]:.2f} and {bracket[1]:.2f}"
        if bracket
        else "no sign change found on the grid",
    )


def _census_and_round_trip(inputs: _Inputs):
    census = solve()
    counts = summarize(census)
    # Column for column, bit for bit: every status, deviation (NaN where
    # invalid) and collision key.
    deterministic = all(a.tobytes() == b.tobytes() for a, b in zip(census, solve()))
    yield (
        "solver-census",
        census.status.size == 576 and deterministic,
        "576 candidates, deterministic, "
        + f"{counts['match']} match / {counts['mismatch']} mismatch / "
        + f"{counts['invalid-double-occupancy']} invalid",
    )
    detail = "all-identity semantics do not reproduce the pinned images"
    yield "solver-identity-mismatch", STATUSES[census.status[0]] == "mismatch", detail

    # random-state round trips (seeded, deterministic), as one stack of rows
    outbound = outbound_amps(_ROUND_TRIP_STATES)
    round_trip = inbound_amps(outbound)
    for stack in (outbound, round_trip):
        require_normalized(stack)
    worst = np.abs(round_trip - _ROUND_TRIP_STATES).max()
    yield _within("attack-round-trip", "100 random in-domain states, worst diff", worst)


# The battery in report order: each topic yields (name, passed, detail) for
# each of its checks, in the order they are reported.
CHECKS = (_states, _tables, _information, _bounds_and_curve, _census_and_round_trip)


def run_all_checks() -> list[CheckResult]:
    """Every check of ``CHECKS`` in order, on inputs computed once per call."""
    messages = _audited_messages()
    inputs = _Inputs(
        messages,
        message_outcome_tables(messages),
        improved_profile(),
        wojcik_profile(),
        {c0: _prior(c0) for c0 in C0_GRID},
    )
    results = (result for topic in CHECKS for result in topic(inputs))
    return [CheckResult(name, bool(passed), detail) for name, passed, detail in results]


def render_report(checks: list[CheckResult]) -> str:
    lines = [f"self-verification v{__version__}: {len(checks)} checks"]
    lines.extend(check.line() for check in checks)
    failed = sum(not check.passed for check in checks)
    lines.append(
        f"{len(checks) - failed}/{len(checks)} checks passed"
        + ("" if failed == 0 else f", {failed} FAILED")
    )
    return "\n".join(lines)
