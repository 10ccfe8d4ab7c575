"""State-engine unit and property tests.

Expected amplitudes and probabilities are frozen from hand expansions of
the pinned protocol states; the engine must reproduce them exactly.
"""

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
    bell_probabilities,
    exact_probabilities,
    ket,
    make_initial,
    mode_marginal,
    project_bell,
    project_mode,
    require_normalized,
    router_maps,
    sample_from,
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

