"""Distribution, mutual-information, and security-bound tests.

Anchor values are frozen from independent hand evaluation:

    a = (3/4) log2(4/3)          = 0.311278124459133   (attack AE = AB gain)
    b = (3/4) log2 3 - 1         = 0.188721875540867   (fair-mixture AB gain)
    e = 1 - (3/2) log2 3
          + (5/8) log2 5         = 0.073761308222867   (attack BE gain)
    mu* = 1/(1 + a - b)          = 0.890823957341679
    eta* improved = 1 - mu*/4    = 0.777294010664580
    eta* wojcik   = 1 - mu*/2    = 0.554588021329161
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from pingpong_eve.attacks import AttackProfile, improved_profile, wojcik_profile
from pingpong_eve.information import (
    FORMULAS,
    JointDistribution,
    PAIRS,
    VARIANTS,
    closed_form,
    crossing_closed_form,
    default_eta_grid,
    exact_joint,
    info_vs_eta,
    insecurity_bound,
    mixture_ae_conditioned,
    mutual_information,
    qber,
    security_report,
)

A_GAIN = 0.311278124459133
B_GAIN = 0.188721875540867
E_GAIN = 0.073761308222867
MU_STAR = 0.890823957341679
ETA_STAR_IMPROVED = 0.777294010664580
ETA_STAR_WOJCIK = 0.554588021329161

C0_GRID = [i / 10 for i in range(1, 10)]

# Conditional tables P(k, m | j), written out independently of the module.
PLAIN_TABLE = {
    (0, 0, 0): 1.0,
    (1, 0, 0): 0.25,
    (1, 0, 1): 0.25,
    (1, 1, 0): 0.25,
    (1, 1, 1): 0.25,
}
SYM_TABLE = {(1 - j, 1 - k, 1 - m): p for (j, k, m), p in PLAIN_TABLE.items()}


def table_prob(table, j, k, m):
    return table.get((j, k, m), 0.0)


def oracle_joint(variant, c0):
    """Joint p(j, k, m) built from the hand tables, no module code."""
    joint = np.zeros((2, 2, 2))
    for j in (0, 1):
        prior = c0 if j == 0 else 1.0 - c0
        for k in (0, 1):
            for m in (0, 1):
                if variant == "plain":
                    cond = table_prob(PLAIN_TABLE, j, k, m)
                elif variant == "symmetrized":
                    cond = table_prob(SYM_TABLE, j, k, m)
                else:
                    cond = 0.5 * (
                        table_prob(PLAIN_TABLE, j, k, m)
                        + table_prob(SYM_TABLE, j, k, m)
                    )
                joint[j, k, m] = prior * cond
    return joint


def oracle_mi(joint2d):
    """Plain-sum mutual information of a 2x2 joint table."""
    left = joint2d.sum(axis=1)
    right = joint2d.sum(axis=0)
    total = 0.0
    for a in (0, 1):
        for b in (0, 1):
            p = joint2d[a, b]
            if p > 0:
                total += p * math.log2(p / (left[a] * right[b]))
    return total


def oracle_pair_mi(variant, c0, pair):
    joint = oracle_joint(variant, c0)
    axis = {"AE": 2, "AB": 1, "BE": 0}[pair]
    return oracle_mi(joint.sum(axis=axis))


# --- exact_joint -----------------------------------------------------------------


def test_plain_joint_at_half():
    dist = exact_joint("plain", 0.5)
    assert dist.probs[0, 0, 0] == 0.5
    assert np.all(dist.probs[0, 0, 1:] == 0.0)
    assert np.all(dist.probs[0, 1, :] == 0.0)
    assert np.all(dist.probs[1] == 0.125)


def test_fair_mixture_joint_at_half():
    dist = exact_joint("fair-mixture", 0.5)
    expected0 = np.array([[5 / 8, 1 / 8], [1 / 8, 1 / 8]]) * 0.5
    assert np.array_equal(dist.probs[0], expected0)
    assert np.array_equal(dist.probs[1], expected0[::-1, ::-1])


def test_symmetrized_is_plain_mirrored():
    # equality up to the ulp noise of computing the prior as 1 - c0
    for c0 in C0_GRID:
        sym = exact_joint("symmetrized", c0).probs
        plain = exact_joint("plain", 1.0 - c0).probs
        assert np.max(np.abs(sym - plain[::-1, ::-1, ::-1])) < 1e-15


def test_joint_matches_oracle_tables():
    for variant in VARIANTS:
        for c0 in C0_GRID:
            dist = exact_joint(variant, c0)
            assert np.max(np.abs(dist.probs - oracle_joint(variant, c0))) < 1e-15
            cond = dist.conditional()
            assert np.max(np.abs(cond.sum(axis=(1, 2)) - 1.0)) < 1e-12


def test_exact_joint_rejects_degenerate_prior():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            exact_joint("plain", bad)
    with pytest.raises(ValueError):
        exact_joint("nope", 0.5)


def test_joint_distribution_validation():
    good = np.full((2, 2, 2), 0.125)
    JointDistribution(good)
    with pytest.raises(ValueError):
        JointDistribution(np.full((2, 2), 0.25))
    bad = good.copy()
    bad[0, 0, 0] = -0.125
    bad[1, 1, 1] = 0.375
    with pytest.raises(ValueError):
        JointDistribution(bad)
    with pytest.raises(ValueError):
        JointDistribution(good * 0.9)


def test_joint_distribution_rejects_non_finite_entries():
    # nan passes both "< 0" and "> tolerance" tests; it must still fail.
    for value in (np.nan, np.inf):
        bad = np.full((2, 2, 2), 0.125)
        bad[1, 0, 1] = value
        with pytest.raises(ValueError, match="does not sum to 1"):
            JointDistribution(bad)


def numpy_refusal(probs) -> str | None:
    """Why the reference checks, numpy's own min and sum, refuse a joint
    table, or None when they accept it."""
    probs = np.array(probs, dtype=float)
    if probs.min() < 0.0:
        return "joint table has negative entries"
    if not abs(float(probs.sum()) - 1.0) <= 1e-12:
        return "joint table does not sum to 1"
    return None


def test_joint_distribution_refuses_what_numpy_checks_refuse():
    # Tables around the sum tolerance with entries of every magnitude, so
    # that the order of the additions decides, and tables holding nan, inf
    # and negative entries in every position; each also transposed and
    # reversed, which numpy sums in memory order.
    rng = np.random.default_rng(17)
    tables = []
    for _ in range(1000):
        table = rng.random((2, 2, 2)) * 10.0 ** rng.integers(-17, 1, (2, 2, 2))
        table /= table.sum()
        edge = 1e-12 + rng.integers(-4, 5) * 2.0**-52  # a few ulps off the tolerance
        table[tuple(rng.integers(0, 2, 3))] += rng.choice([-1, 1]) * edge
        tables.append(table)
    for special in (np.nan, np.inf, -np.inf, -0.125, -0.0):
        for first, second in itertools.product(range(8), repeat=2):
            table = np.full(8, 0.125)
            table[first] = special
            table[second] = rng.choice([np.nan, np.inf, -np.inf, -0.125, 0.125])
            tables.append(table.reshape(2, 2, 2))
    refused = 0
    for table in tables:
        for view in (table, table.transpose(2, 0, 1), table[::-1, :, ::-1], table.tolist()):
            expected = numpy_refusal(view)
            if expected is None:
                assert JointDistribution(view).probs.tolist() == np.asarray(view).tolist()
            else:
                refused += 1
                with pytest.raises(ValueError, match=f"^{expected}$"):
                    JointDistribution(view)
    assert 0 < refused < 4 * len(tables)


def test_joint_probs_read_only():
    dist = exact_joint("plain", 0.5)
    with pytest.raises(ValueError):
        dist.probs[0, 0, 0] = 0.0


# --- mutual information ------------------------------------------------------


def test_information_anchors_at_half():
    plain = exact_joint("plain", 0.5)
    assert abs(mutual_information(plain, "AE") - A_GAIN) < 1e-12
    assert abs(mutual_information(plain, "AB") - A_GAIN) < 1e-12
    assert abs(mutual_information(plain, "BE") - E_GAIN) < 1e-12
    sym = exact_joint("symmetrized", 0.5)
    for pair in PAIRS:
        assert abs(
            mutual_information(sym, pair) - mutual_information(plain, pair)
        ) < 1e-12
    # published rounded anchors
    assert abs(mutual_information(plain, "AE") - 0.311278) < 1e-6
    assert abs(mutual_information(plain, "BE") - 0.073761) < 1e-6


def test_mixture_information_at_half():
    mix = exact_joint("fair-mixture", 0.5)
    assert abs(mutual_information(mix, "AB") - B_GAIN) < 1e-12
    assert abs(mutual_information(mix, "AB") - 0.188722) < 1e-6
    # blending destroys information for anyone without the coin record
    assert mutual_information(mix, "AE") < A_GAIN - 0.1
    # the eavesdropper keeps the record, so her gain survives the mixture
    assert abs(mixture_ae_conditioned(0.5) - A_GAIN) < 1e-12


def test_mutual_information_matches_oracle_everywhere():
    for variant in VARIANTS:
        for c0 in C0_GRID:
            dist = exact_joint(variant, c0)
            for pair in PAIRS:
                assert abs(
                    mutual_information(dist, pair) - oracle_pair_mi(variant, c0, pair)
                ) < 1e-12


def test_mutual_information_equals_numpy_marginal_reference():
    # The marginals are summed in Python; each is a sum of two floats, so the
    # value must equal, bit for bit, the fsum over numpy's axis sums.
    rng = np.random.default_rng(3)
    for _ in range(200):
        probs = rng.random((2, 2, 2)) * (rng.random((2, 2, 2)) > 0.25)
        if not probs.any():
            continue
        dist = JointDistribution(probs / probs.sum())
        for pair, axis in (("AE", 2), ("AB", 1), ("BE", 0)):
            joint = dist.probs.sum(axis=axis)
            left, right = joint.sum(axis=1), joint.sum(axis=0)
            expected = math.fsum(
                p * math.log2(p / (left[a] * right[b]))
                for (a, b), p in np.ndenumerate(joint)
                if p > 0.0
            )
            assert mutual_information(dist, pair) == expected


def test_mutual_information_rejects_unknown_pair():
    with pytest.raises(ValueError):
        mutual_information(exact_joint("plain", 0.5), "XY")


def test_information_nonnegative_on_grid():
    for variant in VARIANTS:
        for c0 in C0_GRID:
            dist = exact_joint(variant, c0)
            for pair in PAIRS:
                assert mutual_information(dist, pair) >= 0.0


def test_eavesdropper_bounded_on_pure_branches():
    # I(B;E) <= min(I(A;E), I(A;B)) holds numerically for both pure branches
    for variant in ("plain", "symmetrized"):
        for c0 in C0_GRID:
            dist = exact_joint(variant, c0)
            i_be = mutual_information(dist, "BE")
            assert i_be <= mutual_information(dist, "AE") + 1e-12
            assert i_be <= mutual_information(dist, "AB") + 1e-12


def test_mixture_coin_correlation_can_beat_chain_bound():
    # The hidden coin flips k and m together, correlating the two receivers
    # directly rather than through j, so the chain bound only survives at
    # the balanced prior (where all three pair informations coincide).
    mix_half = exact_joint("fair-mixture", 0.5)
    values = {pair: mutual_information(mix_half, pair) for pair in PAIRS}
    assert abs(values["BE"] - values["AE"]) < 1e-12
    assert abs(values["BE"] - values["AB"]) < 1e-12
    mix_skew = exact_joint("fair-mixture", 0.1)
    assert mutual_information(mix_skew, "BE") > mutual_information(mix_skew, "AE") + 0.01


def test_mirror_symmetry_on_grid():
    for c0 in C0_GRID:
        plain = exact_joint("plain", c0)
        sym = exact_joint("symmetrized", 1.0 - c0)
        for pair in PAIRS:
            assert abs(
                mutual_information(plain, pair) - mutual_information(sym, pair)
            ) < 1e-12


def test_biased_prior_breaks_plain_sym_equality():
    plain = mutual_information(exact_joint("plain", 0.3), "AE")
    sym = mutual_information(exact_joint("symmetrized", 0.3), "AE")
    assert abs(plain - sym) > 1e-6


# --- decoding error rate -----------------------------------------------------


def test_qber_values():
    assert qber(exact_joint("plain", 0.5)) == 0.25
    assert qber(exact_joint("symmetrized", 0.5)) == 0.25
    assert qber(exact_joint("fair-mixture", 0.5)) == 0.25
    # the mixture pins the error rate at 1/4 for every prior
    for c0 in C0_GRID:
        assert abs(qber(exact_joint("fair-mixture", c0)) - 0.25) < 1e-15
    # the one-sided attacks do not: plain errs only on bit 1
    assert abs(qber(exact_joint("plain", 0.3)) - 0.35) < 1e-15


# --- closed forms ------------------------------------------------------------


def test_closed_form_ae_ab_match_brute_force():
    for formula, variant in (("plain_ae_ab", "plain"), ("sym_ae_ab", "symmetrized")):
        for c0 in C0_GRID:
            value, flagged = closed_form(formula, c0)
            assert not flagged
            assert abs(value - oracle_pair_mi(variant, c0, "AE")) < 1e-9
            assert abs(value - oracle_pair_mi(variant, c0, "AB")) < 1e-9


def test_closed_form_be_flagged_discrepant():
    for formula, variant in (("plain_be", "plain"), ("sym_be", "symmetrized")):
        for c0 in C0_GRID:
            value, flagged = closed_form(formula, c0)
            assert flagged
            assert abs(value - oracle_pair_mi(variant, c0, "BE")) > 1e-6


def test_closed_form_be_printed_values_at_half():
    # printed expressions evaluate to a negative number at c0 = 1/2 while
    # the distributions give +0.073761; both values are pinned here and the
    # flag is the deliverable, not a corrected formula
    for formula in ("plain_be", "sym_be"):
        value, flagged = closed_form(formula, 0.5)
        assert flagged
        assert abs(value - (-0.176239)) < 1e-6
        assert abs(value - (-0.176238691777133)) < 1e-12
    assert abs(oracle_pair_mi("plain", 0.5, "BE") - 0.073761) < 1e-6


def test_closed_form_anchor_values_at_half():
    value, _ = closed_form("plain_ae_ab", 0.5)
    assert abs(value - 0.311278) < 1e-6
    value, _ = closed_form("sym_ae_ab", 0.5)
    assert abs(value - 0.311278) < 1e-6


def test_closed_form_errors():
    with pytest.raises(ValueError):
        closed_form("no_such_formula", 0.5)
    for formula in FORMULAS:
        with pytest.raises(ValueError):
            closed_form(formula, 0.0)
        with pytest.raises(ValueError):
            closed_form(formula, 1.0)


# --- efficiency curves and bounds --------------------------------------------


def test_curve_full_attack_plateau():
    profile = improved_profile()
    for point in info_vs_eta(profile, [0.0, 0.25, 0.5, 0.74, 0.75]):
        assert point.mu == 1.0
        assert abs(point.i_ae - A_GAIN) < 1e-12
        assert abs(point.i_be - E_GAIN) < 1e-12


def test_curve_endpoint_lossless():
    point = info_vs_eta(improved_profile(), [1.0])[0]
    assert point.mu == 0.0
    assert point.i_ae == 0.0
    assert point.i_ab == 1.0
    assert point.i_be == 0.0


def test_curve_wojcik_midpoint():
    point = info_vs_eta(wojcik_profile(), [0.75])[0]
    assert point.mu == 0.5
    assert abs(point.i_ae - 0.155639) < 1e-6
    assert abs(point.i_ab - 0.594361) < 1e-6
    assert abs(point.i_be - 0.5 * E_GAIN) < 1e-12


def test_curve_monotonicity_in_partial_domain():
    for profile in (improved_profile(), wojcik_profile()):
        lo = 1.0 - profile.loss
        etas = [lo + (1.0 - lo) * i / 50 for i in range(51)]
        points = info_vs_eta(profile, etas)
        for prev, curr in zip(points, points[1:]):
            assert curr.i_ae < prev.i_ae
            assert curr.i_ab > prev.i_ab
            assert 0.0 <= curr.mu <= 1.0


def test_insecurity_bounds_match_published_values():
    assert abs(insecurity_bound(improved_profile()) - 0.777297) < 1e-4
    assert abs(insecurity_bound(wojcik_profile()) - 0.554594) < 1e-4
    mu_star, eta_star = crossing_closed_form(improved_profile())
    assert abs(mu_star - 0.890812) < 1e-4
    assert abs(mu_star - MU_STAR) < 1e-12
    assert abs(eta_star - ETA_STAR_IMPROVED) < 1e-12
    _, eta_star_w = crossing_closed_form(wojcik_profile())
    assert abs(eta_star_w - ETA_STAR_WOJCIK) < 1e-12


def test_bisection_agrees_with_closed_form():
    for profile in (improved_profile(), wojcik_profile()):
        _, eta_star = crossing_closed_form(profile)
        assert abs(insecurity_bound(profile) - eta_star) < 1e-9


def test_synthetic_profile_bound():
    profile = AttackProfile("synthetic", loss=0.25, i_ae=1.0, i_ab=0.0, i_be=0.0)
    mu_star, eta_star = crossing_closed_form(profile)
    assert mu_star == 0.5
    assert eta_star == 0.875
    assert abs(insecurity_bound(profile) - 0.875) < 1e-9


def test_insecurity_bound_requires_net_gain():
    profile = AttackProfile("weak", loss=0.25, i_ae=0.1, i_ab=0.2, i_be=0.0)
    with pytest.raises(ValueError):
        insecurity_bound(profile)
    with pytest.raises(ValueError):
        crossing_closed_form(profile)


def test_security_report_contents():
    report = security_report(improved_profile())
    assert report.scheme == "improved"
    assert report.full_attack_edge == 0.75
    assert abs(report.eta_star - ETA_STAR_IMPROVED) < 1e-8
    assert abs(report.mu_star - MU_STAR) < 1e-12
    assert len(report.curve) == len(default_eta_grid()) == 101
    payload = report.to_json_dict()
    assert set(payload) == {"scheme", "full_attack_edge", "eta_star", "mu_star"}
    assert report.eta_star >= report.full_attack_edge
