"""Self-verification battery: every pinned number recomputed and compared.

Each check recomputes one pinned quantity from scratch (state amplitudes,
outcome tables, information anchors, security bounds, solver census) and
reports a PASS/FAIL line.  The known printed-formula discrepancy is itself
a check: it passes when the discrepancy is detected, because faithfully
reporting that disagreement is the intended behavior.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import __version__
from .attacks import (
    F_KETS,
    attack_ba,
    control_outcomes,
    exact_outcome_tables,
    forward_images,
    improved_profile,
    inbound_amps,
    message_amps,
    message_outcome_stack,
    outbound_amps,
    symmetrization_amps,
    wojcik_profile,
)
from .conventions import solve, summarize
from .engine import (
    DIM,
    PureState,
    ket,
    make_initial,
    require_normalized,
)
from .information import (
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
    states.setflags(write=False)
    return states


_ROUND_TRIP_STATES = _round_trip_states()


def run_all_checks() -> list[CheckResult]:
    checks: list[CheckResult] = []

    def add(name: str, passed: bool, detail: str) -> None:
        checks.append(CheckResult(name, bool(passed), detail))

    # state pinning
    initial = make_initial()
    diff = initial.max_amplitude_diff(_EXPECTED_INITIAL)
    add("initial-state", diff <= 1e-12, f"max amplitude diff {diff:.3e}")

    outbound = attack_ba(initial)
    diff = outbound.max_amplitude_diff(_PINNED_OUTBOUND)
    add(
        "outbound-state",
        diff <= 1e-12,
        f"four basis terms at amplitude 1/2, max diff {diff:.3e}",
    )

    # each message state row by row against its pinned row: the returned
    # rows of one message round and their S images
    returned = message_amps()
    symmetrized = symmetrization_amps(returned)
    for j in (0, 1):
        diff = float(np.max(np.abs(returned[j] - _PINNED_MESSAGES[0, j])))
        add(f"returned-state-bit{j}", diff <= 1e-12, f"max amplitude diff {diff:.3e}")
        diff = float(np.max(np.abs(symmetrized[j] - _PINNED_MESSAGES[1, j])))
        add(
            f"symmetrized-returned-bit{j}",
            diff <= 1e-12,
            f"max amplitude diff {diff:.3e}",
        )

    gram = forward_images() @ forward_images().conj().T
    diff = float(np.max(np.abs(gram - np.eye(4))))
    add("attack-images-orthonormal", diff <= 1e-12, f"gram deviation {diff:.3e}")

    # control statistics of the attacked control table, tabulated exactly from
    # the outbound state, so they admit equality checks; entries (t, h bit):
    # (vac, 0), (vac, 1), (pol0, 0), (pol0, 1), (pol1, 0), (pol1, 1)
    control = control_outcomes("improved")
    p_vac = control[0] + control[1]
    exact = p_vac == 0.25 and improved_profile().loss == p_vac
    add("control-no-photon", exact, f"P(no photon) = {p_vac!r}, pinned 1/4")
    p_equal = control[2] + control[5]
    add("control-anticorrelation", p_equal == 0.0, f"P(equal bits) = {p_equal!r}")

    # outcome tables: the attack states' against the pinned states' tables,
    # both variants of each tabulated as one stack
    tables = exact_outcome_tables()
    expected = message_outcome_stack(_PINNED_MESSAGES)[..., 1:, :2]
    for variant, table, pinned in zip(("plain", "symmetrized"), tables, expected):
        diff = float(np.max(np.abs(table - pinned)))
        add(f"{variant}-outcome-table", (table == pinned).all(), f"max cell diff {diff:.3e}")

    # the reference attack, tabulated exactly from its own circuit
    reference = control_outcomes("wojcik")
    p_vac, p_equal = reference[0] + reference[1], reference[2] + reference[5]
    same_tables = bool((exact_outcome_tables("wojcik") == tables).all())
    add(
        "reference-attack",
        p_vac == 0.5 and wojcik_profile().loss == p_vac and p_equal == 0.0 and same_tables,
        f"P(no photon) = {p_vac!r}, pinned 1/2; P(equal bits) = {p_equal!r}; "
        + f"message tables {'equal' if same_tables else 'differ from'} the improved attack's",
    )

    # information anchors at the balanced prior
    plain = exact_joint("plain", 0.5)
    i_ae = mutual_information(plain, "AE")
    i_ab = mutual_information(plain, "AB")
    i_be = mutual_information(plain, "BE")
    add(
        "info-gain-eavesdropper",
        abs(i_ae - A_ANCHOR) < 1e-6 and abs(i_ae - i_ab) < 1e-12,
        f"I_AE = I_AB = {i_ae:.9f} (anchor {A_ANCHOR})",
    )
    add(
        "info-receiver-eavesdropper",
        abs(i_be - E_ANCHOR) < 1e-6,
        f"I_BE = {i_be:.9f} (anchor {E_ANCHOR})",
    )
    mix_ab = mutual_information(exact_joint("fair-mixture", 0.5), "AB")
    add(
        "info-mixture-receiver",
        abs(mix_ab - B_ANCHOR) < 1e-6,
        f"mixture I_AB = {mix_ab:.9f} (anchor {B_ANCHOR})",
    )
    cond_ae = mixture_ae_conditioned(0.5)
    add(
        "info-mixture-coin-conditioning",
        abs(cond_ae - i_ae) < 1e-12,
        f"coin-conditioned mixture I_AE = {cond_ae:.9f} equals plain gain",
    )
    error_rate = qber(plain)
    add("decode-error-rate", error_rate == 0.25, f"QBER = {error_rate!r}, pinned 1/4")

    # closed forms
    worst = 0.0
    for formula in ("plain_ae_ab", "sym_ae_ab"):
        for c0 in C0_GRID:
            value, flagged, brute = closed_form(formula, c0)
            worst = max(worst, abs(value - brute))
            if flagged:
                worst = math.inf
    add(
        "closed-form-ae-ab-grid",
        worst <= 1e-9,
        f"printed forms track brute force, worst diff {worst:.3e}",
    )
    printed, flagged, brute = closed_form("plain_be", 0.5)
    add(
        "closed-form-be-discrepancy",
        flagged and abs(printed - (-0.176239)) < 1e-6 and abs(brute - 0.073761) < 1e-6,
        f"printed form gives {printed:.6f}, brute force gives {brute:.6f}, flagged",
    )
    sym_flags = [closed_form("sym_be", c0)[1] for c0 in C0_GRID]
    plain_flags = [closed_form("plain_be", c0)[1] for c0 in C0_GRID]
    add(
        "closed-form-be-flag-grid",
        all(sym_flags) and all(plain_flags),
        "discrepancy flag raised at every grid prior",
    )

    # symmetry properties
    worst = 0.0
    for c0 in C0_GRID:
        plain_c0 = exact_joint("plain", c0)
        mirrored = exact_joint("symmetrized", 1.0 - c0)
        for pair in ("AE", "AB", "BE"):
            worst = max(
                worst,
                abs(mutual_information(plain_c0, pair) - mutual_information(mirrored, pair)),
            )
    add("mirror-symmetry", worst <= 1e-12, f"worst pairwise diff {worst:.3e}")
    gap = abs(
        mutual_information(exact_joint("plain", 0.3), "AE")
        - mutual_information(exact_joint("symmetrized", 0.3), "AE")
    )
    add(
        "biased-prior-asymmetry",
        gap > 1e-6,
        f"plain vs symmetrized gain differ by {gap:.6f} at prior 0.3",
    )

    # security bounds
    improved = improved_profile()
    wojcik = wojcik_profile()
    add(
        "full-attack-domains",
        max_attack_fraction(0.75, improved.loss) == 1.0
        and max_attack_fraction(0.5, wojcik.loss) == 1.0
        and max_attack_fraction(0.76, improved.loss) < 1.0
        and max_attack_fraction(0.51, wojcik.loss) < 1.0,
        "every round attackable up to eta 0.75 (improved) and 0.50 (reference)",
    )
    eta_star_i = insecurity_bound(improved)
    eta_star_w = insecurity_bound(wojcik)
    mu_star, eta_closed_i = crossing_closed_form(improved)
    _, eta_closed_w = crossing_closed_form(wojcik)
    add(
        "insecurity-bound-improved",
        abs(eta_star_i - ETA_STAR_IMPROVED_ANCHOR) < 1e-4,
        f"eta* = {eta_star_i:.9f} (anchor {ETA_STAR_IMPROVED_ANCHOR})",
    )
    add(
        "insecurity-bound-reference",
        abs(eta_star_w - ETA_STAR_WOJCIK_ANCHOR) < 1e-4,
        f"eta* = {eta_star_w:.9f} (anchor {ETA_STAR_WOJCIK_ANCHOR})",
    )
    add(
        "bisection-vs-closed-form",
        abs(eta_star_i - eta_closed_i) <= 1e-9 and abs(eta_star_w - eta_closed_w) <= 1e-9,
        f"bisection within {max(abs(eta_star_i - eta_closed_i), abs(eta_star_w - eta_closed_w)):.3e} of closed form",
    )
    add(
        "optimal-attack-fraction",
        abs(mu_star - MU_STAR_ANCHOR) < 1e-4,
        f"mu* = {mu_star:.9f} (anchor {MU_STAR_ANCHOR})",
    )

    # curve shape
    grid = default_eta_grid()
    points = info_vs_eta(improved, grid)
    plateau = [p for p in points if p.eta <= 0.75]
    tail = [p for p in points if p.eta >= 0.75]
    plateau_ok = all(abs(p.i_ae - plateau[0].i_ae) <= 1e-12 for p in plateau)
    decreasing = all(b.i_ae < a.i_ae for a, b in zip(tail, tail[1:]))
    increasing = all(b.i_ab > a.i_ab for a, b in zip(tail, tail[1:]))
    add(
        "curve-shape",
        plateau_ok and decreasing and increasing,
        "gain flat on the full-attack domain, then strictly crossing",
    )
    bracket = None
    for a, b in zip(points, points[1:]):
        if (a.i_ae - a.i_ab) >= 0.0 > (b.i_ae - b.i_ab):
            bracket = (a.eta, b.eta)
    add(
        "curve-crossing-bracketed",
        bracket is not None and bracket[0] <= eta_star_i <= bracket[1],
        f"sign change between eta {bracket[0]:.2f} and {bracket[1]:.2f}"
        if bracket
        else "no sign change found on the grid",
    )

    # convention solver census
    reports = solve()
    counts = summarize(reports)
    # Report for report: every field, each deviation bit for bit.
    deterministic = reports == solve()
    add(
        "solver-census",
        len(reports) == 576 and deterministic,
        "576 candidates, deterministic, "
        + f"{counts['match']} match / {counts['mismatch']} mismatch / "
        + f"{counts['invalid-double-occupancy']} invalid",
    )
    add(
        "solver-identity-mismatch",
        reports[0].status == "mismatch",
        "all-identity semantics do not reproduce the pinned images",
    )

    # random-state round trips (seeded, deterministic), as one stack of rows
    states = _ROUND_TRIP_STATES
    outbound = outbound_amps(states)
    round_trip = inbound_amps(outbound)
    for stack in (states, outbound, round_trip):
        require_normalized(stack)
    worst = float(np.abs(round_trip - states).max())
    add(
        "attack-round-trip",
        worst <= 1e-12,
        f"100 random in-domain states, worst diff {worst:.3e}",
    )

    return checks


def render_report(checks: list[CheckResult]) -> str:
    lines = [f"self-verification v{__version__}: {len(checks)} checks"]
    lines.extend(check.line() for check in checks)
    failed = sum(not check.passed for check in checks)
    lines.append(
        f"{len(checks) - failed}/{len(checks)} checks passed"
        + ("" if failed == 0 else f", {failed} FAILED")
    )
    return "\n".join(lines)
