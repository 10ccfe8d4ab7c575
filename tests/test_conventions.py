"""Convention-solver tests: enumeration, composition, classification, determinism."""

from __future__ import annotations

import cmath
import collections
import hashlib
import math

import numpy as np
import pytest

from pingpong_eve import attacks, conventions, engine
from pingpong_eve.attacks import attack_ba, exact_outcome_table, forward_images
from pingpong_eve.conventions import (
    ACTIVATIONS,
    CONTROL_POSITIONS,
    CSV_HEADER,
    MATCH_TOL,
    PERMUTATIONS,
    STATUS_INVALID,
    STATUS_MATCH,
    STATUS_MISMATCH,
    CandidateReport,
    Convention,
    compose_candidate,
    enumerate_conventions,
    perm_label,
    report_rows,
    solve,
    summarize,
)
from pingpong_eve.engine import (
    BasisKet,
    Occupation,
    make_initial,
    mode_marginal,
    project_mode,
)
from oracles import deviation_from_reference
from test_engine import post_attack_state

IDENTITY = (0, 1, 2)


def default_convention(**overrides) -> Convention:
    fields = dict(
        sigma0=IDENTITY,
        sigma1=IDENTITY,
        flip0=False,
        flip1=False,
        control_position="first-index",
        active_on="pol1",
    )
    fields.update(overrides)
    return Convention(**fields)


# --- enumeration ----------------------------------------------------------------


def test_enumeration_size_and_order():
    candidates = enumerate_conventions()
    assert len(candidates) == 576
    assert len(set(candidates)) == 576
    assert candidates[0] == default_convention()
    assert PERMUTATIONS[0] == IDENTITY
    assert CONTROL_POSITIONS[0] == "first-index"
    assert ACTIVATIONS[0] == "pol1"


def test_perm_labels():
    assert perm_label(IDENTITY) == "abc"
    assert perm_label((2, 1, 0)) == "cba"
    assert sorted(perm_label(p) for p in PERMUTATIONS) == sorted(
        ["abc", "acb", "bac", "bca", "cab", "cba"]
    )


# --- composition ----------------------------------------------------------------


def test_identity_candidate_keeps_travel_mode_occupied():
    result = compose_candidate(default_convention())
    assert result.collision is None
    images = result.images
    # the split stage turns each input into a two-term superposition and the
    # identity routing never moves the photon out of the travel mode, so the
    # images cannot reach the pinned targets (which vacate t in half their terms)
    for row in range(4):
        support = np.flatnonzero(np.abs(images[row]) > 1e-12)
        assert len(support) == 2
        for index in support:
            ket = BasisKet.from_index(int(index))
            assert ket.t is not Occupation.VAC
            assert ket.photon_number == 2
    assert deviation_from_reference(images, forward_images()) > 0.5


def test_terms_routed_onto_one_ket_add():
    # with flip1 the router turns every pol1 photon into pol0 in place, so
    # the two split terms of each input land on the same ket: for f1 and f2
    # their amplitudes add to sqrt(2), for f3 and f4 they cancel
    conv = default_convention(flip1=True)
    assert enumerate_conventions()[4] == conv
    result = compose_candidate(conv)
    assert result.collision is None
    norms = np.sum(np.abs(result.images) ** 2, axis=1)
    assert np.allclose(norms, [2.0, 2.0, 0.0, 0.0], rtol=0.0, atol=1e-12)
    assert solve()[4].status == "mismatch"


def test_declared_double_occupancy_example():
    conv = default_convention(sigma1=(2, 1, 0))
    result = compose_candidate(conv)
    assert result.images is None
    collision = result.collision
    assert collision is not None
    assert collision.stage == "route_txy"
    assert collision.mode == "y"
    assert collision.input_term == "h=0 t=1 x=vac y=0"


def test_collision_replay_is_stable():
    conv = default_convention(sigma1=(2, 1, 0))
    assert compose_candidate(conv).collision == compose_candidate(conv).collision


def test_images_read_only():
    images = compose_candidate(default_convention()).images
    with pytest.raises(ValueError):
        images[0, 0] = 1.0


def test_deviation_phase_invariance():
    refs = forward_images()
    phase = np.exp(1j * 0.37)
    assert deviation_from_reference(phase * refs, refs) < 1e-12
    # a per-row phase is not a global phase and must not pass
    twisted = refs.copy()
    twisted[2] = -twisted[2]
    assert deviation_from_reference(twisted, refs) > 0.5


# --- solve ----------------------------------------------------------------------


def test_solve_covers_every_candidate():
    reports = solve()
    assert len(reports) == 576
    assert [r.candidate_id for r in reports] == list(range(576))
    for report in reports:
        assert report.status in ("match", "mismatch", "invalid-double-occupancy")
        if report.status == "invalid-double-occupancy":
            assert report.deviation is None
            assert report.collision is not None
        else:
            assert report.deviation is not None
            assert report.deviation >= 0.0
    counts = summarize(reports)
    assert sum(counts.values()) == 576


def oracle_report(candidate_id: int, conv: Convention, references=None) -> CandidateReport:
    """The report of one candidate, composed on its own by compose_candidate,
    against the truth-table images or the given references."""
    result = compose_candidate(conv)
    if result.images is None:
        return CandidateReport(candidate_id, conv, STATUS_INVALID, None, result.collision)
    if references is None:
        references = forward_images()
    dev = deviation_from_reference(result.images, references)
    status = STATUS_MATCH if dev <= MATCH_TOL else STATUS_MISMATCH
    return CandidateReport(candidate_id, conv, status, dev, None)


def test_solve_equals_the_single_candidate_oracle():
    # status, collision and the exact float deviation, for every candidate
    reports = solve()
    assert len(reports) == 576
    for candidate_id, conv in enumerate(enumerate_conventions()):
        assert reports[candidate_id] == oracle_report(candidate_id, conv)


def test_solve_walks_the_census_through_the_engine_kernel(monkeypatch):
    # One call carries all 576 candidates, and the reports are those of
    # the unpatched solve.
    expected = solve()
    carry, calls = engine.carry, []

    def counted(*args):
        calls.append(args)
        return carry(*args)

    monkeypatch.setattr(engine, "carry", counted)
    assert solve() == expected
    assert len(calls) == 1


@pytest.mark.parametrize("theta", [0.3, 2.5])
def test_solve_fits_a_complex_phase(monkeypatch, theta):
    # The truth-table images only ever fit a phase of +-1; under a global
    # phase on them the fitted phase is complex, and every report, float
    # for float, must still be the oracle's against the same references.
    phased = forward_images() * cmath.exp(1j * theta)
    monkeypatch.setattr(conventions, "forward_images", lambda: phased)
    reports = solve()
    fitted = 0
    for candidate_id, conv in enumerate(enumerate_conventions()):
        assert reports[candidate_id] == oracle_report(candidate_id, conv, phased)
        images = compose_candidate(conv).images
        fitted += images is not None and np.vdot(phased, images).imag != 0.0
    assert fitted == 216 - 85


_COMPLETE_IDS = [
    i
    for i, conv in enumerate(enumerate_conventions())
    if compose_candidate(conv).images is not None
]


@pytest.mark.parametrize("reference_id", [0, 4, _COMPLETE_IDS[-1]])
def test_solve_matches_a_candidate_against_its_own_images(monkeypatch, reference_id):
    # With one candidate's images as the references, that candidate is a
    # match and every report is still the oracle's.  The support is then
    # the candidate's own: candidate 4 puts two terms on one ket in every
    # row, and for f3 and f4 they cancel, leaving those rows empty.
    own = compose_candidate(enumerate_conventions()[reference_id]).images
    monkeypatch.setattr(conventions, "forward_images", lambda: own)
    reports = solve()
    assert reports[reference_id].status == STATUS_MATCH
    assert reports[reference_id].deviation == 0.0
    for candidate_id, conv in enumerate(enumerate_conventions()):
        assert reports[candidate_id] == oracle_report(candidate_id, conv, own)


def test_orthogonal_images_fit_no_phase():
    # 85 of the 216 complete candidates compose images orthogonal to the
    # truth-table images, so no phase is fitted: the phase is 1 and the
    # deviation is max|image - reference|.
    references = forward_images()
    reports = solve()
    orthogonal = []
    for report in reports:
        images = compose_candidate(report.convention).images
        if images is not None and np.vdot(references, images) == 0.0:
            orthogonal.append(report.candidate_id)
            assert report.deviation == float(np.max(np.abs(images - references)))
            assert report.status == STATUS_MISMATCH
    assert len(orthogonal) == 85
    assert orthogonal[:4] == [0, 2, 3, 4]


_INVALID_IDS = [
    i
    for i, conv in enumerate(enumerate_conventions())
    if compose_candidate(conv).images is None
]


@pytest.mark.parametrize(
    "candidate_id", [0, 4, _INVALID_IDS[0], _INVALID_IDS[-1], 575]
)
def test_solve_and_oracle_agree_on_completion(candidate_id):
    report = solve()[candidate_id]
    result = compose_candidate(enumerate_conventions()[candidate_id])
    assert (report.status != STATUS_INVALID) == (result.images is not None)
    assert (report.deviation is None) == (result.images is None)
    assert report.collision == result.collision


def test_census_rows_are_pinned():
    # SHA-256 of the census rows as the solver that composed each candidate
    # on its own wrote them; the rows, not the CSV file, so the metadata
    # lines may change without touching the pin
    rows = "\n".join(report_rows(solve()))
    assert hashlib.sha256(rows.encode()).hexdigest() == (
        "6fd1250b0ad77e6d5b97bd174383ca067bc3e1338c5d553ff89a2c45b90dbf6c"
    )
    assert summarize(solve()) == {
        STATUS_MATCH: 0,
        STATUS_MISMATCH: 216,
        STATUS_INVALID: 360,
    }


def test_solve_returns_fresh_reports():
    first, second = solve(), solve()
    assert first == second
    assert first is not second
    assert all(a is not b for a, b in zip(first, second))


def test_solve_is_deterministic():
    rows_a = report_rows(solve())
    rows_b = report_rows(solve())
    assert rows_a == rows_b
    assert len(rows_a) == 576
    assert CSV_HEADER.startswith("candidate_id,sigma0,sigma1,")


def test_all_identity_candidate_is_mismatch():
    reports = solve()
    assert reports[0].convention == default_convention()
    assert reports[0].status == "mismatch"


def test_invalid_reports_replay_to_collisions():
    reports = solve()
    invalid = [r for r in reports if r.status == "invalid-double-occupancy"]
    assert invalid, "the family is known to contain colliding candidates"
    for report in invalid[::37]:
        replay = compose_candidate(report.convention)
        assert replay.images is None
        assert replay.collision == report.collision
    tally = collections.Counter((r.collision.stage, r.collision.mode) for r in invalid)
    assert tally == {
        ("route_txy", "x"): 88,
        ("route_txy", "t"): 85,
        ("route_txy", "y"): 85,
        ("route_ytx", "y"): 38,
        ("route_ytx", "x"): 33,
        ("route_ytx", "t"): 31,
    }


@pytest.mark.usefixtures("fresh_tables")
def test_matches_reproduce_pinned_attack(monkeypatch):
    # any match must be a drop-in replacement for the truth-table images:
    # same outbound state up to global phase, same loss and anticorrelation,
    # same exact outcome table.  The family contains no match, which is the
    # recorded outcome for this search family, so the improved attack's own
    # images run first as the positive control.
    reports = solve()
    matches = [r for r in reports if r.status == "match"]
    for images in [forward_images()] + [compose_candidate(r.convention).images for r in matches]:
        monkeypatch.setitem(attacks._IMAGES, "improved", images)
        outbound = attack_ba(make_initial())
        assert outbound.equal_up_to_global_phase(post_attack_state(), atol=1e-9)
        marg = mode_marginal(outbound, "t")
        assert abs(marg[0] - 0.25) < 1e-9
        p_equal = 0.0
        for occ, bit in ((Occupation.POL0, 0), (Occupation.POL1, 1)):
            prob, collapsed = project_mode(outbound, "t", occ)
            if collapsed is not None:
                p_equal += prob * mode_marginal(collapsed, "h")[1 + bit]
        assert p_equal < 1e-9
        table = exact_outcome_table(apply_s=False)
        expected = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.25, 0.25], [0.25, 0.25]]])
        assert np.max(np.abs(table - expected)) < 1e-9
    # The legs read the patched images: the reference attack's, put in
    # their place, lose half the travel photons.
    monkeypatch.setitem(attacks._IMAGES, "improved", forward_images("wojcik"))
    assert abs(mode_marginal(attack_ba(make_initial()), "t")[0] - 0.5) < 1e-12


def test_report_rows_format():
    rows = report_rows(solve())
    first = rows[0].split(",")
    assert first[0] == "0"
    assert first[1] == "abc" and first[2] == "abc"
    assert first[3] == "false" and first[4] == "false"
    assert first[5] == "first-index" and first[6] == "pol1"
    assert first[7] in ("match", "mismatch")
    invalid_rows = [row for row in rows if row.endswith(",")]
    for row in invalid_rows:
        assert "invalid-double-occupancy" in row
    for row in rows:
        assert len(row.split(",")) == len(CSV_HEADER.split(","))
