"""Acceptance suite: one test per acceptance criterion, at stated tolerance.

Every test prints one PASS line on success (visible with -v as the test
outcome, and in captured output); a failing criterion fails its test.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import pytest

from pingpong_eve import attacks
from pingpong_eve.attacks import (
    attack_ab,
    attack_ba,
    exact_outcome_table,
    forward_images,
    improved_profile,
    message_amps,
    wojcik_profile,
)
from pingpong_eve.cli import main as cli_main
from pingpong_eve.conventions import (
    compose_candidate,
    report_rows,
    solve,
)
from pingpong_eve.engine import (
    BasisKet,
    HADAMARD,
    Occupation,
    PAULI_X,
    PAULI_Z,
    PureState,
    apply_cnot,
    apply_polarization_gate,
    make_initial,
    mode_marginal,
    project_mode,
)
from pingpong_eve.information import (
    closed_form,
    crossing_closed_form,
    exact_joint,
    insecurity_bound,
    mutual_information,
    qber,
)
from pingpong_eve.protocol import (
    ProtocolConfig,
    max_attack_fraction,
    run_simulation,
)
from oracles import chi_squared
from test_engine import post_attack_state, random_state, returned_state, symmetrized_state
from test_protocol import chi2_quantile

C0_GRID = [i / 10 for i in range(1, 10)]

PHOTON_NUMBER = np.array(
    [BasisKet.from_index(i).photon_number for i in range(54)]
)


def sector_weights(state: PureState) -> np.ndarray:
    """Probability carried by each travel-photon-number sector (0, 1, 2)."""
    probs = np.abs(state.amps) ** 2
    return np.array([probs[PHOTON_NUMBER == n].sum() for n in (0, 1, 2)])

PLAIN_TABLE = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.25, 0.25], [0.25, 0.25]]])
SYM_TABLE = PLAIN_TABLE[::-1, ::-1, ::-1].copy()


@lru_cache(maxsize=None)
def message_run(scheme: str):
    """Shared 10^5 message-round simulation per scheme."""
    return run_simulation(
        ProtocolConfig(
            rounds=100000,
            seed=424242,
            scheme=scheme,
            eta=1.0,
            attack_fraction=1.0,
            control_prob=0.0,
        )
    )


def check_counts_against(counts, expected):
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
    assert stat <= chi2_quantile(0.999, df)


def test_criterion_1_state_pinning():
    outbound = attack_ba(make_initial())
    assert outbound.max_amplitude_diff(post_attack_state()) <= 1e-12
    for j in (0, 1):
        encoded = outbound if j == 0 else apply_polarization_gate(outbound, "t", PAULI_Z)
        assert attack_ab(encoded).max_amplitude_diff(returned_state(j)) <= 1e-12
        assert attack_ab(encoded, apply_s=True).max_amplitude_diff(
            symmetrized_state(j)
        ) <= 1e-12
        assert PureState(message_amps()[0, j]).max_amplitude_diff(returned_state(j)) <= 1e-12
    print(
        "PASS criterion-1: outbound and returned states match the pinned "
        "amplitudes within 1e-12"
    )


def test_criterion_2_control_statistics():
    pinned = post_attack_state()
    p_vac = float(mode_marginal(pinned, "t")[0])
    assert p_vac == 0.25
    computed = attack_ba(make_initial())
    for state in (pinned, computed):
        p_equal = 0.0
        for occ, bit in ((Occupation.POL0, 0), (Occupation.POL1, 1)):
            prob, collapsed = project_mode(state, "t", occ)
            if collapsed is not None:
                p_equal += prob * float(mode_marginal(collapsed, "h")[1 + bit])
        assert p_equal == 0.0
    print(
        "PASS criterion-2: P(no photon) = 1/4 exactly and "
        "P(identical control results) = 0 exactly"
    )


def test_criterion_3_outcome_tables():
    # exact distributions reproduce both pinned tables with zero error
    assert np.array_equal(exact_joint("plain", 0.5).conditional(), PLAIN_TABLE)
    assert np.array_equal(exact_joint("symmetrized", 0.5).conditional(), SYM_TABLE)
    assert np.max(np.abs(exact_outcome_table(apply_s=False) - PLAIN_TABLE)) <= 1e-12
    assert np.max(np.abs(exact_outcome_table(apply_s=True) - SYM_TABLE)) <= 1e-12
    # Monte Carlo at 1e5 message rounds: 3 SE per cell + chi-squared at 99.9%
    check_counts_against(message_run("improved").counts_s_off, PLAIN_TABLE)
    sym_stats = message_run("improved-symmetrized")
    check_counts_against(sym_stats.counts_s_on, SYM_TABLE)
    check_counts_against(sym_stats.counts_s_off, PLAIN_TABLE)
    print(
        "PASS criterion-3: exact tables reproduced exactly; 1e5-round Monte "
        "Carlo within 3 SE per cell and chi-squared 99.9% quantile"
    )


def test_criterion_4_information_values():
    plain = exact_joint("plain", 0.5)
    i_ae = mutual_information(plain, "AE")
    i_ab = mutual_information(plain, "AB")
    assert abs(i_ae - 0.311278) < 1e-6
    assert abs(i_ab - 0.311278) < 1e-6
    assert abs(mutual_information(plain, "BE") - 0.073761) < 1e-6
    mixture = exact_joint("fair-mixture", 0.5)
    assert abs(mutual_information(mixture, "AB") - 0.188722) < 1e-6
    assert qber(plain) == 0.25
    stats = message_run("improved")
    assert abs(stats.qber - 0.25) <= 3.0 * stats.qber_se
    print(
        "PASS criterion-4: I_AE = I_AB = 0.311278, I_BE = 0.073761, mixture "
        "I_AB = 0.188722 (all within 1e-6); QBER = 1/4 exact and within 3 SE "
        "in Monte Carlo"
    )


def test_criterion_5_closed_form_audit():
    for formula, variant in (("plain_ae_ab", "plain"), ("sym_ae_ab", "symmetrized")):
        for c0 in C0_GRID:
            value, flagged, _ = closed_form(formula, c0)
            assert not flagged
            brute = mutual_information(exact_joint(variant, c0), "AE")
            assert abs(value - brute) <= 1e-9
    printed, flagged, _ = closed_form("plain_be", 0.5)
    assert flagged, "the discrepancy flag being raised is the pass condition"
    assert abs(printed - (-0.176239)) < 1e-6
    brute = mutual_information(exact_joint("plain", 0.5), "BE")
    assert abs(brute - 0.073761) < 1e-6
    printed_sym, flagged_sym, _ = closed_form("sym_be", 0.5)
    assert flagged_sym
    assert abs(printed_sym - (-0.176239)) < 1e-6
    print(
        "PASS criterion-5: transmit-gain forms match brute force within 1e-9 "
        "on the prior grid; the printed receiver-eavesdropper forms are "
        "flagged discrepant (-0.176239 printed vs 0.073761 brute force)"
    )


def test_criterion_6_security_bounds():
    improved = improved_profile()
    wojcik = wojcik_profile()
    # full-attack domains [0, 0.75] and [0, 0.50]
    assert max_attack_fraction(0.75, improved.loss) == 1.0
    assert max_attack_fraction(0.76, improved.loss) < 1.0
    assert max_attack_fraction(0.5, wojcik.loss) == 1.0
    assert max_attack_fraction(0.51, wojcik.loss) < 1.0
    eta_improved = insecurity_bound(improved)
    eta_wojcik = insecurity_bound(wojcik)
    assert abs(eta_improved - 0.777297) < 1e-4
    assert abs(eta_wojcik - 0.554594) < 1e-4
    for profile, eta_bisect in ((improved, eta_improved), (wojcik, eta_wojcik)):
        mu_star, eta_closed = crossing_closed_form(profile)
        assert abs(mu_star - 1.0 / (1.0 + profile.i_ae - profile.i_ab)) <= 1e-15
        assert abs(eta_bisect - eta_closed) <= 1e-9
    print(
        "PASS criterion-6: full-attack domains [0,0.75] and [0,0.50]; "
        "insecurity bounds 0.777297 and 0.554594 within 1e-4; bisection "
        "matches the closed form within 1e-9"
    )


def test_criterion_7_curve_reproduction(tmp_path):
    curve_path = tmp_path / "curve.csv"
    assert cli_main(["analyze", "--scheme", "improved", "--curve", str(curve_path)]) == 0
    rows = []
    for line in curve_path.read_text().splitlines():
        if line.startswith("#") or line.startswith("eta,"):
            continue
        eta, mu, i_ae, i_ab, i_be = (float(f) for f in line.split(","))
        rows.append((eta, mu, i_ae, i_ab, i_be))
    assert len(rows) == 101
    plateau = [r for r in rows if r[0] <= 0.75]
    assert all(abs(r[2] - 0.311278) < 1e-6 for r in plateau)
    tail = [r for r in rows if r[0] >= 0.75]
    assert all(b[2] < a[2] for a, b in zip(tail, tail[1:]))
    assert all(b[3] > a[3] for a, b in zip(tail, tail[1:]))
    eta_star = insecurity_bound(improved_profile())
    gaps = [(r[0], r[2] - r[3]) for r in rows]
    brackets = [
        (a[0], b[0]) for a, b in zip(gaps, gaps[1:]) if a[1] >= 0.0 > b[1]
    ]
    assert len(brackets) == 1
    assert brackets[0][0] <= eta_star <= brackets[0][1]
    print(
        "PASS criterion-7: emitted curve flat at 0.311278 on [0,0.75], "
        "strictly crossing beyond, with the crossing bracketed by "
        f"grid points {brackets[0][0]:.2f} and {brackets[0][1]:.2f}"
    )


def test_criterion_8_property_suites():
    rng = np.random.default_rng(20268)
    pol_gates = (PAULI_X, PAULI_Z, HADAMARD)
    modes = ("h", "t", "x", "y")
    cnot_pairs = (("t", "y"), ("x", "y"), ("t", "x"), ("y", "t"), ("y", "x"), ("x", "t"))
    for trial in range(1000):
        state = random_state(rng)
        if trial % 2:
            gate = pol_gates[trial % 3]
            mode = modes[trial % 4]
            evolved = apply_polarization_gate(state, gate=gate, mode=mode)
            if mode != "h":
                # vacuum invariance: amplitudes of vacuum-in-mode kets unchanged
                axis = modes.index(mode)
                before = state.amps.reshape(2, 3, 3, 3)
                after = evolved.amps.reshape(2, 3, 3, 3)
                vac_before = np.take(before, 0, axis=axis)
                vac_after = np.take(after, 0, axis=axis)
                assert np.max(np.abs(vac_after - vac_before)) <= 1e-12
        else:
            control, target = cnot_pairs[trial % 6]
            evolved = apply_cnot(state, control, target)
        assert abs(evolved.norm_sq - 1.0) <= 1e-12
        # photon-number conservation, sector by sector
        assert np.max(np.abs(sector_weights(evolved) - sector_weights(state))) <= 1e-12
    # attack round-trip identity on 100 random in-domain states
    from pingpong_eve.attacks import F_KETS

    for _ in range(100):
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        coeffs /= np.linalg.norm(coeffs)
        state = PureState.from_terms(dict(zip(F_KETS, coeffs)))
        assert attack_ab(attack_ba(state)).max_amplitude_diff(state) <= 1e-12
    # mirror symmetry and biased-prior asymmetry on the c0 grid
    for c0 in C0_GRID:
        for pair in ("AE", "AB", "BE"):
            assert abs(
                mutual_information(exact_joint("plain", c0), pair)
                - mutual_information(exact_joint("symmetrized", 1.0 - c0), pair)
            ) <= 1e-12
    asym = abs(
        mutual_information(exact_joint("plain", 0.3), "AE")
        - mutual_information(exact_joint("symmetrized", 0.3), "AE")
    )
    assert asym > 1e-6
    print(
        "PASS criterion-8: 1000-state unitarity/photon-number/vacuum "
        "properties, 100 attack round trips, mirror symmetry and biased-prior "
        "asymmetry all hold"
    )


@pytest.mark.usefixtures("fresh_memos")
def test_criterion_9_convention_solver(monkeypatch):
    reports = solve()
    assert len(reports) == 576
    assert report_rows(reports) == report_rows(solve())
    assert reports[0].status == "mismatch"
    matches = [r for r in reports if r.status == "match"]
    # The improved attack's own images run first, as the positive control:
    # the census finds no match, so without them the body would never run.
    for images in [forward_images()] + [compose_candidate(r.convention).images for r in matches]:
        monkeypatch.setitem(attacks._IMAGES, "improved", images)
        outbound = attack_ba(make_initial())
        assert outbound.equal_up_to_global_phase(post_attack_state(), atol=1e-9)
        assert abs(float(mode_marginal(outbound, "t")[0]) - 0.25) <= 1e-9
        table = exact_outcome_table(apply_s=False)
        assert np.max(np.abs(table - PLAIN_TABLE)) <= 1e-9
    print(
        "PASS criterion-9: solver total and deterministic over 576 "
        f"candidates, all-identity is a mismatch, {len(matches)} matches "
        "(each match reproduces the pinned states and tables)"
    )
