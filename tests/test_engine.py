"""State-engine unit and property tests.

Expected amplitudes and probabilities are frozen from hand expansions of
the pinned protocol states; the engine must reproduce them exactly.
"""

import dataclasses

import numpy as np
import pytest

from pingpong_eve.engine import (
    DIM,
    MODES,
    BasisKet,
    BellOutcome,
    HADAMARD,
    Occupation,
    PAULI_X,
    PAULI_Z,
    PureState,
    apply_cnot,
    apply_polarization_gate,
    bell_amplitudes,
    bell_amps,
    bell_probabilities,
    carry,
    cnot_amps,
    controlled_flip_permutation,
    exact_probabilities,
    ket,
    make_initial,
    meeting,
    meeting_keys,
    mode_marginal,
    project_bell,
    polarization_gate_amps,
    project_mode,
    require_normalized,
    router_maps,
    sample_from,
    signed_permutation,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def post_attack_state() -> PureState:
    """Four-component state after the outbound attack, amplitudes 1/2."""
    return PureState.from_terms(
        {
            ket(0, "vac", "1", "0"): 0.5,
            ket(0, "1", "1", "vac"): 0.5,
            ket(1, "0", "vac", "1"): 0.5,
            ket(1, "0", "0", "vac"): 0.5,
        }
    )


def returned_state(j: int) -> PureState:
    """Two-component state after the inbound attack for message bit j."""
    return PureState.from_terms(
        {
            ket(0, "1", "vac", str(j)): INV_SQRT2,
            ket(1, "0", "vac", "0"): INV_SQRT2,
        }
    )


def symmetrized_state(j: int) -> PureState:
    """Returned state after the symmetrization step."""
    return PureState.from_terms(
        {
            ket(0, "1", "vac", str(j)): INV_SQRT2,
            ket(1, "0", "vac", "1"): -INV_SQRT2,
        }
    )


def random_state(rng: np.random.Generator) -> PureState:
    amps = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
    return PureState(amps / np.linalg.norm(amps))


# --- basis indexing --------------------------------------------------------


def test_basis_index_is_a_bijection():
    seen = set()
    for index in range(DIM):
        basis_ket = BasisKet.from_index(index)
        assert basis_ket.index == index
        seen.add((basis_ket.h, basis_ket.t, basis_ket.x, basis_ket.y))
    assert len(seen) == DIM


def test_basis_index_formula():
    k = ket(1, "0", "vac", "1")
    assert k.index == ((1 * 3 + 1) * 3 + 0) * 3 + 2


def test_ket_labels():
    assert ket(0, "1", "vac", "0").label() == "h=0 t=1 x=vac y=0"
    assert ket(1, "vac", "0", "1").label() == "h=1 t=vac x=0 y=1"


def test_photon_number():
    assert ket(0, "1", "vac", "0").photon_number == 2
    assert ket(1, "vac", "vac", "vac").photon_number == 0
    assert ket(0, "0", "1", "1").photon_number == 3


def test_invalid_kets_rejected():
    with pytest.raises(ValueError):
        ket(2, "0", "vac", "0")
    with pytest.raises(ValueError):
        ket(0, "polarized", "vac", "0")


# --- state construction ----------------------------------------------------


def test_make_initial_amplitudes():
    state = make_initial()
    terms = dict(state.nonzero_terms())
    assert set(terms) == {ket(0, "1", "vac", "0"), ket(1, "0", "vac", "0")}
    for amp in terms.values():
        assert abs(amp - INV_SQRT2) < 1e-15
    assert abs(state.norm_sq - 1.0) < 1e-12


def test_make_initial_photon_sector():
    assert make_initial().photon_sectors() == {2}


def test_unnormalized_state_rejected():
    amps = np.zeros(DIM)
    amps[0] = 0.5
    with pytest.raises(ValueError):
        PureState(amps)


def test_non_finite_amplitudes_rejected():
    # nan slips past a "> tolerance" test, since every comparison with nan
    # is False; both must read as unnormalized.
    with pytest.raises(ValueError, match="not normalized"):
        PureState(np.full(DIM, np.nan))
    for bad in (np.inf, -np.inf, complex(0.0, np.inf), complex(np.nan, 0.0)):
        amps = np.zeros(DIM, dtype=complex)
        amps[0] = 1.0
        amps[5] = bad
        with pytest.raises(ValueError, match="not normalized"):
            PureState(amps)


def test_stack_norm_check_refuses_what_pure_state_refuses():
    rows = np.zeros((3, DIM), dtype=complex)
    rows[:, 0] = 1.0
    rows[:, 7] = 1e-5  # |psi|^2 = 1 + 1e-10, inside the tolerance
    require_normalized(rows)
    for bad in (1.0 + 1e-8, 0.9, np.nan, np.inf):
        rows[1, 0] = bad
        with pytest.raises(ValueError, match="not normalized"):
            PureState(rows[1])
        with pytest.raises(ValueError, match="not normalized"):
            require_normalized(rows)


def test_stack_norm_check_reads_each_rows_squares():
    rows = np.zeros((2, 3, DIM), dtype=complex)
    rows[..., 0] = 0.6
    rows[..., 1] = 0.8j
    require_normalized(rows)
    require_normalized(rows[0, 0].real + 0.8 * (np.arange(DIM) == 1))
    rows[1, 2, 1] = 0.8
    require_normalized(rows)
    rows[1, 2, 2] = 1e-3
    with pytest.raises(ValueError, match=r"not normalized: .*1\.000001"):
        require_normalized(rows)


def test_signed_permutation_reads_a_kernel_that_moves_and_signs_kets():
    source, sign = signed_permutation(lambda amps: -cnot_amps(amps, "t", "y"))
    assert np.array_equal(source, controlled_flip_permutation("t", "y", Occupation.POL1))
    assert np.array_equal(sign, -np.ones(DIM))
    assert not source.flags.writeable and not sign.flags.writeable
    source, sign = signed_permutation(lambda amps: polarization_gate_amps(amps, "h", PAULI_Z))
    assert np.array_equal(source, np.arange(DIM))
    assert np.array_equal(sign, np.where(np.arange(DIM) < 27, 1, -1))


@pytest.mark.parametrize(
    "kernel",
    [
        lambda amps: polarization_gate_amps(amps, "t", HADAMARD),
        lambda amps: polarization_gate_amps(amps, "x", np.diag([1.0, 1j])),
        lambda amps: 2.0 * amps,
        lambda amps: np.where(np.arange(DIM) == 5, 0.0, amps),
        lambda amps: np.take(amps, np.arange(DIM) // 2 * 2, axis=-1),
        lambda amps: amps[..., :-1],
    ],
    ids=["hadamard", "phase-i", "scaled", "projection", "merge", "shape"],
)
def test_signed_permutation_refuses_any_other_kernel(kernel):
    with pytest.raises(ValueError, match="kernel"):
        signed_permutation(kernel)


def test_states_are_immutable():
    state = make_initial()
    with pytest.raises(ValueError):
        state.amps[0] = 1.0


# --- polarization gates ----------------------------------------------------


def test_hadamard_on_register_photon():
    state = PureState.from_terms({ket(0, "1", "vac", "0"): 1.0})
    out = apply_polarization_gate(state, "y", HADAMARD)
    expected = PureState.from_terms(
        {
            ket(0, "1", "vac", "0"): INV_SQRT2,
            ket(0, "1", "vac", "1"): INV_SQRT2,
        }
    )
    assert out.allclose(expected, atol=1e-15)


def test_pauli_x_flips_polarization():
    state = PureState.from_terms({ket(0, "1", "vac", "0"): 1.0})
    out = apply_polarization_gate(state, "t", PAULI_X)
    assert out.allclose(PureState.from_terms({ket(0, "0", "vac", "0"): 1.0}))


def test_pauli_z_phases():
    plus = PureState.from_terms({ket(0, "0", "vac", "0"): 1.0})
    minus = PureState.from_terms({ket(0, "1", "vac", "0"): 1.0})
    assert apply_polarization_gate(plus, "t", PAULI_Z).allclose(plus)
    out = apply_polarization_gate(minus, "t", PAULI_Z)
    assert abs(out.amplitude(ket(0, "1", "vac", "0")) + 1.0) < 1e-15


def test_gates_leave_vacuum_untouched():
    state = PureState.from_terms({ket(0, "1", "vac", "vac"): 1.0})
    for gate in (HADAMARD, PAULI_X, PAULI_Z):
        for mode in ("x", "y"):
            out = apply_polarization_gate(state, mode, gate)
            assert out.allclose(state, atol=1e-15)


def test_gate_on_home_qubit():
    state = make_initial()
    out = apply_polarization_gate(state, "h", PAULI_X)
    expected = PureState.from_terms(
        {
            ket(1, "1", "vac", "0"): INV_SQRT2,
            ket(0, "0", "vac", "0"): INV_SQRT2,
        }
    )
    assert out.allclose(expected, atol=1e-15)


def test_non_unitary_gate_rejected():
    with pytest.raises(ValueError):
        apply_polarization_gate(make_initial(), "t", np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_engine_gates_are_read_only():
    # A gate call skips the unitarity check for the engine's own gates, which
    # is sound only while no caller can change them; any other array is
    # still checked.
    for gate in (HADAMARD, PAULI_X, PAULI_Z):
        assert not gate.flags.writeable
        with pytest.raises(ValueError):
            gate[0, 0] = 2.0
        scaled = gate * 2.0
        with pytest.raises(ValueError, match="not unitary"):
            apply_polarization_gate(make_initial(), "t", scaled)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="unknown mode"):
        apply_polarization_gate(make_initial(), "z", PAULI_X)
    with pytest.raises(ValueError, match="unknown mode"):
        mode_marginal(make_initial(), "q")
    with pytest.raises(ValueError, match="unknown mode"):
        project_mode(make_initial(), "q", Occupation.POL0)


# --- photonic CNOT ----------------------------------------------------------


def test_cnot_active_control_flips_target():
    state = PureState.from_terms({ket(0, "1", "vac", "0"): 1.0})
    out = apply_cnot(state, "t", "y")
    assert out.allclose(PureState.from_terms({ket(0, "1", "vac", "1"): 1.0}))


def test_cnot_pol0_control_is_identity():
    state = PureState.from_terms({ket(0, "0", "vac", "0"): 1.0})
    assert apply_cnot(state, "t", "y").allclose(state)


def test_cnot_vacuum_control_is_identity():
    state = PureState.from_terms({ket(0, "vac", "1", "0"): 1.0})
    assert apply_cnot(state, "t", "y").allclose(state)


def test_cnot_vacuum_target_unchanged():
    state = PureState.from_terms({ket(0, "1", "vac", "vac"): 1.0})
    assert apply_cnot(state, "t", "y").allclose(state)


def test_cnot_rejects_bad_modes():
    state = make_initial()
    with pytest.raises(ValueError):
        apply_cnot(state, "t", "t")
    with pytest.raises(ValueError):
        apply_cnot(state, "h", "y")
    with pytest.raises(ValueError):
        apply_cnot(state, "t", "h")


# --- polarizing routers -----------------------------------------------------

PHOTONS = ("t", "x", "y")
STAY = (0, 1, 2)


def test_identity_route_fixes_every_ket():
    image, meet = router_maps(PHOTONS, ((STAY, STAY, False, False),))
    assert image.tolist() == [list(range(DIM))]
    assert meet.tolist() == [[-1] * DIM]


@pytest.mark.parametrize("a, b", [("t", "x"), ("x", "y"), ("t", "y")])
def test_pbs_route_follows_the_hand_rule(a, b):
    # A PBS on modes a and b: the route whose sigma1 swaps their slots.
    swap = list(STAY)
    swap[PHOTONS.index(a)], swap[PHOTONS.index(b)] = PHOTONS.index(b), PHOTONS.index(a)
    image, meet = router_maps(PHOTONS, ((STAY, tuple(swap), False, False),))
    pol0, pol1 = Occupation.POL0, Occupation.POL1
    for index in range(DIM):
        k = BasisKet.from_index(index)
        occ = {mode: getattr(k, mode) for mode in PHOTONS}
        # Two photons meet exactly where a pol1 photon enters a mode that
        # holds a pol0 photon, which stays.
        entered = [
            dst for src, dst in ((a, b), (b, a)) if occ[src] is pol1 and occ[dst] is pol0
        ]
        assert meet[0, index] == (MODES.index(entered[0]) if entered else -1), k.label()
        if entered:
            continue
        # Otherwise pol1 photons cross and pol0 photons stay.
        new = dict(occ)
        for src, dst in ((a, b), (b, a)):
            new[dst] = pol1 if occ[src] is pol1 else pol0 if occ[dst] is pol0 else Occupation.VAC
        assert image[0, index] == BasisKet(k.h, new["t"], new["x"], new["y"]).index, k.label()


def test_router_rejects_bad_modes():
    route = ((STAY, STAY, False, False),)
    with pytest.raises(ValueError):
        router_maps(("h", "t", "x"), route)
    with pytest.raises(ValueError):
        router_maps(("t", "t", "x"), route)


# --- the basis-index walk ---------------------------------------------------


def test_each_column_reads_its_own_tables():
    # Three columns and three stages of random permutations, each stage
    # stacking the columns' tables in its own order: every column's terms
    # must be those of its own circuit, walked stage by stage.
    rng = np.random.default_rng(5)
    tables = rng.permuted(np.tile(np.arange(DIM), (3, 3, 1)), axis=-1)
    orders = ([0, 1, 2], [2, 0, 1], [1, 2, 0])
    stages = [
        (tables[stage][order].ravel(), None, np.argsort(order) * DIM)
        for stage, order in enumerate(orders)
    ]
    terms = rng.integers(0, DIM, (2, 3))
    carried, first = carry(terms[..., None], stages)
    for column in range(3):
        expected = terms
        for stage in range(3):
            expected = tables[stage, column][expected]
        assert carried[..., column].tolist() == expected.tolist()
    assert first.tolist() == [-1, -1, -1]


def test_a_router_meet_keys_the_row_stage_entering_index_and_mode():
    # PBS_xy swaps the pol1 photons of x and y, so |h, vac, 1, 1> crosses
    # cleanly; CNOT_xy then makes it |h, vac, 1, 0>, where the next PBS_xy
    # sends x's pol1 photon into y, which holds a pol0 photon.
    pbs_xy = ((STAY, (0, 2, 1), False, False),)
    image, meet = (table.ravel() for table in router_maps(PHOTONS, pbs_xy))
    cnot = controlled_flip_permutation("x", "y", Occupation.POL1)
    keys = meeting_keys(meet)
    stages = [(image, keys, 0), (cnot, None, 0), (image, keys, 0)]
    crossing = [ket(h, "vac", "1", "1").index for h in (1, 0)]
    entering = [ket(h, "vac", "1", "0").index for h in (1, 0)]
    assert [image[i] for i in crossing] == crossing and (meet[crossing] < 0).all()
    assert [cnot[i] for i in crossing] == entering
    assert meet[entering].tolist() == [MODES.index("y")] * 2
    assert keys[entering].tolist() == [i * len(MODES) + MODES.index("y") for i in entering]
    # Row 0's terms meet at the last stage, the h=0 term first by index
    # though it is on the later line; row 1's meet at the first stage.
    _, first = carry(np.array([crossing, entering]), stages)
    assert meeting(int(first), len(stages)) == (0, 2, entering[1], MODES.index("y"))
    _, first = carry(np.array([entering, crossing]), stages)
    assert meeting(int(first), len(stages)) == (0, 0, entering[1], MODES.index("y"))


def test_a_cnot_stage_reports_no_meeting():
    cnot = controlled_flip_permutation("t", "y", Occupation.POL1)
    carried, first = carry(np.arange(DIM)[None, :], [(cnot, None, 0)])
    assert carried.tolist() == [cnot.tolist()]
    assert first == -1


# --- measurements -----------------------------------------------------------


def test_travel_marginal_on_post_attack_state():
    probs = mode_marginal(post_attack_state(), "t")
    assert abs(probs[Occupation.VAC] - 0.25) < 1e-12
    assert abs(probs[Occupation.POL0] - 0.5) < 1e-12
    assert abs(probs[Occupation.POL1] - 0.25) < 1e-12


def test_home_marginal_on_initial_state():
    probs = mode_marginal(make_initial(), "h")
    assert probs[Occupation.VAC] == 0.0
    assert abs(probs[Occupation.POL0] - 0.5) < 1e-12
    assert abs(probs[Occupation.POL1] - 0.5) < 1e-12


def test_register_marginal_on_returned_state():
    # Hand expansion: the two components carry y=1 and y=0 with weight 1/2.
    probs = mode_marginal(returned_state(1), "y")
    assert probs[Occupation.VAC] == 0.0
    assert abs(probs[Occupation.POL0] - 0.5) < 1e-12
    assert abs(probs[Occupation.POL1] - 0.5) < 1e-12


def test_anticorrelation_is_exact_on_post_attack_state():
    state = post_attack_state()
    p_equal = 0.0
    for t_occ, h_occ in (
        (Occupation.POL0, Occupation.POL0),
        (Occupation.POL1, Occupation.POL1),
    ):
        p_t, collapsed = project_mode(state, "t", t_occ)
        if collapsed is None:
            continue
        p_h, _ = project_mode(collapsed, "h", h_occ)
        p_equal += p_t * p_h
    assert p_equal == 0.0


def test_project_mode_collapse():
    prob, collapsed = project_mode(post_attack_state(), "t", Occupation.VAC)
    assert abs(prob - 0.25) < 1e-12
    assert collapsed is not None
    assert collapsed.allclose(PureState.from_terms({ket(0, "vac", "1", "0"): 1.0}))


def test_project_mode_zero_probability():
    prob, collapsed = project_mode(make_initial(), "x", Occupation.POL1)
    assert prob == 0.0
    assert collapsed is None


# --- two-particle measurement ------------------------------------------------


def test_bell_on_returned_state_bit0():
    probs = bell_probabilities(returned_state(0))
    assert abs(probs[BellOutcome.PSI_PLUS] - 1.0) < 1e-12
    for outcome in (
        BellOutcome.PSI_MINUS,
        BellOutcome.PHI_PLUS,
        BellOutcome.PHI_MINUS,
        BellOutcome.NO_PHOTON,
    ):
        assert probs[outcome] < 1e-15


def test_bell_on_returned_state_bit1():
    # Hand expansion in the two-particle basis gives amplitude +-1/2 on the
    # four (register bit, psi outcome) combinations: both psi outcomes at 1/2.
    probs = bell_probabilities(returned_state(1))
    assert abs(probs[BellOutcome.PSI_PLUS] - 0.5) < 1e-12
    assert abs(probs[BellOutcome.PSI_MINUS] - 0.5) < 1e-12
    assert probs[BellOutcome.PHI_PLUS] < 1e-15
    assert probs[BellOutcome.PHI_MINUS] < 1e-15
    assert probs[BellOutcome.NO_PHOTON] == 0.0


def test_bell_eigenstate_projection():
    phi_plus = PureState.from_terms(
        {
            ket(0, "0", "vac", "vac"): INV_SQRT2,
            ket(1, "1", "vac", "vac"): INV_SQRT2,
        }
    )
    prob, collapsed = project_bell(phi_plus, BellOutcome.PHI_PLUS)
    assert abs(prob - 1.0) < 1e-12
    assert collapsed is not None
    assert collapsed.allclose(phi_plus, atol=1e-12)


def test_bell_no_photon_branch():
    state = PureState.from_terms(
        {
            ket(0, "vac", "1", "0"): INV_SQRT2,
            ket(1, "0", "vac", "1"): INV_SQRT2,
        }
    )
    probs = bell_probabilities(state)
    assert abs(probs[BellOutcome.NO_PHOTON] - 0.5) < 1e-12
    prob, collapsed = project_bell(state, BellOutcome.NO_PHOTON)
    assert abs(prob - 0.5) < 1e-12
    assert collapsed is not None
    assert collapsed.allclose(PureState.from_terms({ket(0, "vac", "1", "0"): 1.0}))


# --- exact tabulation ---------------------------------------------------------

T_LABEL = np.array([BasisKet.from_index(i).t for i in range(DIM)])


def test_exact_probabilities_on_the_lattice():
    # A 1/sqrt(2) amplitude squares to 0.4999999999999999 in floats; the
    # tabulator snaps it to the lattice and sums exactly.
    assert exact_probabilities(make_initial().amps, T_LABEL, 3).tolist() == [0.0, 0.5, 0.5]
    assert exact_probabilities(post_attack_state().amps, T_LABEL, 3).tolist() == [
        0.25, 0.5, 0.25
    ]
    # 1e-13 off the lattice still snaps; a label with no amplitude reads 0.
    nudged = make_initial().amps + 1e-13
    assert exact_probabilities(nudged, T_LABEL, 4).tolist() == [0.0, 0.5, 0.5, 0.0]


@pytest.mark.parametrize(
    "amps",
    [
        PureState.from_terms(
            {ket(0, "1", "vac", "0"): np.cos(0.3), ket(1, "0", "vac", "0"): np.sin(0.3)}
        ).amps,
        make_initial().amps * np.exp(0.25j * np.pi),
        np.where(np.arange(DIM) == 0, np.nan, make_initial().amps),
        # 2e-12 off the lattice of n / 4, and off that of n / sqrt(8)
        post_attack_state().amps + 2e-12,
        make_initial().amps * (1.0 + 3e-12),
    ],
    ids=["cos-sin-0.3", "complex-phase", "nan", "2e-12-off-even", "2e-12-off-odd"],
)
def test_exact_probabilities_rejects_off_lattice_amplitudes(amps):
    with pytest.raises(ValueError, match="1e-12"):
        exact_probabilities(amps, T_LABEL, 3)


# --- sampling ----------------------------------------------------------------


def test_sample_never_draws_zero_probability():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        assert sample_from(rng, ("a", "b", "c"), (0.0, 1.0, 0.0)) == "b"


def test_sample_rejects_bad_distributions():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_from(rng, ("a", "b"), (-0.1, 1.1))
    with pytest.raises(ValueError):
        for _ in range(100):
            sample_from(rng, ("a", "b"), (0.2, 0.3))


# --- invariants over random states -------------------------------------------


def _gate_pool():
    rng = np.random.default_rng(2024)
    pool = []
    for mode in ("h", "t", "x", "y"):
        for gate in (HADAMARD, PAULI_X, PAULI_Z):
            pool.append(("pol", mode, gate))
    for _ in range(5):
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(raw)
        pool.append(("pol", "t", q))
    for control in ("t", "x", "y"):
        for target in ("t", "x", "y"):
            if control != target:
                pool.append(("cnot", control, target))
    return pool


def test_every_gate_preserves_norm_on_random_states():
    rng = np.random.default_rng(99)
    pool = _gate_pool()
    for i in range(1000):
        state = random_state(rng)
        kind, a, b = pool[i % len(pool)]
        if kind == "pol":
            out = apply_polarization_gate(state, a, b)
        else:
            out = apply_cnot(state, a, b)
        assert abs(out.norm_sq - 1.0) < 1e-12


def test_every_gate_is_block_diagonal_over_photon_number():
    pool = _gate_pool()
    for index in range(DIM):
        basis_ket = BasisKet.from_index(index)
        state = PureState.from_terms({basis_ket: 1.0})
        sector = {basis_ket.photon_number}
        for kind, a, b in pool:
            if kind == "pol":
                out = apply_polarization_gate(state, a, b)
            else:
                out = apply_cnot(state, a, b)
            assert out.photon_sectors(tol=0.0) == sector


def test_measurement_completeness_on_random_states():
    rng = np.random.default_rng(123)
    for _ in range(100):
        state = random_state(rng)
        for mode in ("h", "t", "x", "y"):
            assert abs(mode_marginal(state, mode).sum() - 1.0) < 1e-12
        assert abs(sum(bell_probabilities(state).values()) - 1.0) < 1e-12


def test_projection_branches_resolve_the_state():
    # Each branch's probability is the mode's marginal entry, and summing
    # sqrt(probability) times collapsed state reassembles the state.
    rng = np.random.default_rng(7)
    state = random_state(rng)
    for mode in MODES:
        marginal = mode_marginal(state, mode)
        resolved = np.zeros(DIM, dtype=complex)
        for occ in Occupation:
            prob, collapsed = project_mode(state, mode, occ)
            assert prob == marginal[occ]
            if collapsed is not None:
                resolved += np.sqrt(prob) * collapsed.amps
        assert abs(marginal.sum() - 1.0) < 1e-12
        assert np.max(np.abs(resolved - state.amps)) < 1e-12
    assert project_mode(state, "h", Occupation.VAC) == (0.0, None)



# --- stacked kernels ------------------------------------------------------------


def _gate_oracle(amps: np.ndarray, mode: str, gate: np.ndarray) -> np.ndarray:
    """A polarization gate ket by ket: a ket whose mode holds level b sends
    gate[b', b] of its amplitude to the ket with level b' there."""
    out = np.zeros(DIM, dtype=complex)
    for index, amp in enumerate(amps):
        basis_ket = BasisKet.from_index(index)
        level = int(getattr(basis_ket, mode))
        if mode != "h" and level == 0:
            out[index] += amp
            continue
        bit = level if mode == "h" else level - 1
        for new_bit in (0, 1):
            new_level = new_bit if mode == "h" else Occupation(new_bit + 1)
            out[dataclasses.replace(basis_ket, **{mode: new_level}).index] += gate[new_bit, bit] * amp
    return out


def _cnot_oracle(amps: np.ndarray, control: str, target: str) -> np.ndarray:
    """The photonic CNOT ket by ket: flip the target's polarization where the
    control holds pol1."""
    out = np.zeros(DIM, dtype=complex)
    flip = {Occupation.VAC: Occupation.VAC, Occupation.POL0: Occupation.POL1, Occupation.POL1: Occupation.POL0}
    for index, amp in enumerate(amps):
        basis_ket = BasisKet.from_index(index)
        if getattr(basis_ket, control) is Occupation.POL1:
            basis_ket = dataclasses.replace(basis_ket, **{target: flip[getattr(basis_ket, target)]})
        out[basis_ket.index] += amp
    return out


def _bell_oracle(amps: np.ndarray) -> np.ndarray:
    """The two-particle basis amplitudes read ket by ket, in bell_amps order."""

    def amp(h, t, x, y):
        return amps[BasisKet(h, Occupation(t), Occupation(x), Occupation(y)).index]

    xy = [(x, y) for x in range(3) for y in range(3)]
    out = []
    for first, second in (((0, 2), (1, 1)), ((0, 1), (1, 2))):
        out += [(amp(*first, x, y) + amp(*second, x, y)) * INV_SQRT2 for x, y in xy]
        out += [(amp(*first, x, y) - amp(*second, x, y)) * INV_SQRT2 for x, y in xy]
    return np.array(out + [amp(h, 0, x, y) for h in (0, 1) for x, y in xy])


def _kernel(kind, a, b):
    """The stacked kernel, its PureState wrapper and its oracle for one gate
    of the pool."""
    if kind == "pol":
        return (
            lambda amps: polarization_gate_amps(amps, a, b),
            lambda state: apply_polarization_gate(state, a, b),
            lambda amps: _gate_oracle(amps, a, b),
        )
    return (
        lambda amps: cnot_amps(amps, a, b),
        lambda state: apply_cnot(state, a, b),
        lambda amps: _cnot_oracle(amps, a, b),
    )


def test_stacked_gates_equal_the_state_gates_on_every_basis_ket():
    # One (54, 54) stack of every basis ket: each row must be the PureState
    # gate's image of its ket, and the oracle's, exactly.
    basis = np.eye(DIM, dtype=complex)
    for kind, a, b in _gate_pool():
        kernel, state_gate, oracle = _kernel(kind, a, b)
        stacked = kernel(basis)
        assert stacked.shape == (DIM, DIM)
        for index, row in enumerate(basis):
            assert stacked[index].tobytes() == state_gate(PureState(row)).amps.tobytes()
            assert (stacked[index] == oracle(row)).all()


def test_stacked_gates_equal_the_state_gates_on_random_stacks():
    # A (3, 4, 54) stack of random states: every row bit for bit the gate of
    # its lone state, and within rounding of the ket-by-ket oracle.
    rng = np.random.default_rng(5)
    stack = np.array([[random_state(rng).amps for _ in range(4)] for _ in range(3)])
    for kind, a, b in _gate_pool():
        kernel, state_gate, oracle = _kernel(kind, a, b)
        stacked = kernel(stack)
        assert stacked.shape == stack.shape
        for index in np.ndindex(stack.shape[:-1]):
            assert stacked[index].tobytes() == state_gate(PureState(stack[index])).amps.tobytes()
            assert np.abs(stacked[index] - oracle(stack[index])).max() <= 1e-15


def test_stacked_kernels_leave_their_input_alone():
    rng = np.random.default_rng(8)
    stack = np.array([random_state(rng).amps for _ in range(3)])
    before = stack.copy()
    for kind, a, b in _gate_pool():
        _kernel(kind, a, b)[0](stack)
    bell_amps(stack)
    assert stack.tobytes() == before.tobytes()


def test_bell_amps_stack_equals_the_state_blocks_and_the_oracle():
    rng = np.random.default_rng(6)
    stack = np.array([[random_state(rng).amps for _ in range(3)] for _ in range(2)])
    stacked = bell_amps(stack)
    assert stacked.shape == stack.shape
    for index in np.ndindex(stack.shape[:-1]):
        state = PureState(stack[index])
        blocks = np.concatenate(list(bell_amplitudes(state).values()), axis=None)
        assert stacked[index].tobytes() == blocks.tobytes()
        assert (stacked[index] == _bell_oracle(stack[index])).all()
    shapes = {outcome: block.shape for outcome, block in bell_amplitudes(state).items()}
    assert shapes == {
        **{outcome: (3, 3) for outcome in BellOutcome},
        BellOutcome.NO_PHOTON: (2, 3, 3),
    }


def test_exact_probabilities_tabulates_a_stack_row_by_row():
    states = (make_initial(), post_attack_state(), returned_state(1), symmetrized_state(0))
    stack = np.array([state.amps for state in states]).reshape(2, 2, DIM)
    stacked = exact_probabilities(stack, T_LABEL, 4)
    assert stacked.shape == (2, 2, 4)
    for index in np.ndindex(2, 2):
        assert stacked[index].tolist() == exact_probabilities(stack[index], T_LABEL, 4).tolist()
    # one row off the lattice refuses the whole stack
    stack[1, 0, 0] = 0.3
    with pytest.raises(ValueError, match="1e-12"):
        exact_probabilities(stack, T_LABEL, 4)
