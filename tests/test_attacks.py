"""Attack-unitary tests against hand-expanded pinned states.

The expected amplitudes below were expanded by hand and frozen here, among
them the image kets of both attacks and the outbound coefficient table they
share.  Each attack's circuit must reproduce its table bit for bit, and
every state to 1e-12.
"""

import math

import numpy as np
import pytest

from pingpong_eve import attacks, verify
from pingpong_eve.attacks import (
    ATTACKS,
    F_KETS,
    SubspaceLeakageError,
    attack_ab,
    attack_ba,
    control_outcomes,
    exact_outcome_table,
    exact_outcome_tables,
    forward_images,
    improved_profile,
    inbound_amps,
    message_amps,
    message_outcome_stack,
    message_outcome_tables,
    outbound_amps,
    symmetrization_amps,
    wojcik_profile,
)
from pingpong_eve.engine import (
    DIM,
    PAULI_X,
    PAULI_Z,
    BasisKet,
    PureState,
    apply_cnot,
    apply_polarization_gate,
    bell_probabilities,
    carry,
    cnot_amps,
    ket,
    make_initial,
    mode_marginal,
    polarization_gate_amps,
)
from pingpong_eve.information import (
    conditionals,
    exact_joint,
    mixture_ae_conditioned,
    mutual_information,
)

from test_engine import post_attack_state, returned_state, symmetrized_state

INV_SQRT2 = 1.0 / np.sqrt(2.0)

B_KETS = (
    ket(0, "vac", "1", "0"),
    ket(0, "1", "1", "vac"),
    ket(1, "0", "vac", "1"),
    ket(1, "0", "0", "vac"),
)
# The reference attack's image kets: the improved attack's, with
# |1, vac, 0, 0> in place of B3.
REFERENCE_KETS = (
    ket(0, "vac", "1", "0"),
    ket(0, "1", "1", "vac"),
    ket(1, "vac", "0", "0"),
    ket(1, "0", "0", "vac"),
)
# Outbound images in the basis of either attack's image kets, one row per
# domain ket.
IMAGE_COEFFS = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [1.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, -1.0],
    ]
) / math.sqrt(2.0)


def subspace_state(coeffs) -> PureState:
    coeffs = np.asarray(coeffs, dtype=complex)
    coeffs = coeffs / np.linalg.norm(coeffs)
    return PureState.from_terms(dict(zip(F_KETS, coeffs)))


# --- outbound truth table ----------------------------------------------------


def test_outbound_images_match_truth_table():
    expected_rows = [
        {B_KETS[0]: INV_SQRT2, B_KETS[1]: INV_SQRT2},
        {B_KETS[2]: INV_SQRT2, B_KETS[3]: INV_SQRT2},
        {B_KETS[0]: INV_SQRT2, B_KETS[1]: -INV_SQRT2},
        {B_KETS[2]: INV_SQRT2, B_KETS[3]: -INV_SQRT2},
    ]
    for f_ket, expected in zip(F_KETS, expected_rows):
        image = attack_ba(PureState.from_terms({f_ket: 1.0}))
        assert image.allclose(PureState.from_terms(expected), atol=1e-12)


def test_circuit_images_equal_the_pinned_table():
    pinned = np.zeros((4, DIM), dtype=complex)
    pinned[:, [b.index for b in B_KETS]] = IMAGE_COEFFS
    images = forward_images()
    assert images.tobytes() == pinned.tobytes()
    # Built once and shared: read-only, so no caller can change the legs,
    # and one entry whether the default attack is named or not.
    assert forward_images() is images and not images.flags.writeable
    assert forward_images() is forward_images("improved") is attacks._IMAGES["improved"]


def test_reference_circuit_images_equal_the_pinned_table():
    # H_y -> PBS_xy -> CNOT_tx -> SWAP_tx: the improved table on the
    # reference attack's own image kets.
    pinned = np.zeros((4, DIM), dtype=complex)
    pinned[:, [r.index for r in REFERENCE_KETS]] = IMAGE_COEFFS
    images = forward_images("wojcik")
    assert images.tobytes() == pinned.tobytes()
    assert forward_images("wojcik") is images and not images.flags.writeable


@pytest.mark.parametrize("attack", ATTACKS)
def test_each_circuit_is_walked_by_the_engine_kernel(monkeypatch, attack):
    calls = []

    def counted(*args):
        calls.append(args)
        return carry(*args)

    monkeypatch.setattr(attacks, "carry", counted)
    assert attacks._trace(attack).tobytes() == forward_images(attack).tobytes()
    assert len(calls) == 1


def test_outbound_images_are_orthonormal():
    images = forward_images()
    gram = images.conj() @ images.T
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12


def test_outbound_on_initial_state():
    out = attack_ba(make_initial())
    assert out.allclose(post_attack_state(), atol=1e-12)


def test_outbound_is_linear():
    # (f1 - f2)/sqrt(2) -> (B1 + B2 - B3 - B4)/2, by linearity of the table.
    state = subspace_state([1.0, -1.0, 0.0, 0.0])
    expected = PureState.from_terms(
        {B_KETS[0]: 0.5, B_KETS[1]: 0.5, B_KETS[2]: -0.5, B_KETS[3]: -0.5}
    )
    assert attack_ba(state).allclose(expected, atol=1e-12)


def test_outbound_rejects_support_outside_domain():
    stray = ket(0, "0", "vac", "0")
    state = PureState.from_terms({F_KETS[0]: INV_SQRT2, stray: INV_SQRT2})
    with pytest.raises(SubspaceLeakageError) as err:
        attack_ba(state)
    assert stray in err.value.offending
    assert "h=0 t=0 x=vac y=0" in str(err.value)


def test_outbound_preserves_home_marginal():
    rng = np.random.default_rng(17)
    for _ in range(20):
        state = subspace_state(rng.normal(size=4) + 1j * rng.normal(size=4))
        before = mode_marginal(state, "h")
        after = mode_marginal(attack_ba(state), "h")
        assert np.max(np.abs(before - after)) < 1e-12


# --- inbound leg --------------------------------------------------------------


def test_inbound_restores_initial_state():
    assert attack_ab(post_attack_state()).allclose(make_initial(), atol=1e-12)


def test_inbound_after_phase_encoding():
    encoded = apply_polarization_gate(post_attack_state(), "t", PAULI_Z)
    assert attack_ab(encoded).allclose(returned_state(1), atol=1e-12)


def test_inbound_with_symmetrization():
    for j in (0, 1):
        state = post_attack_state()
        if j == 1:
            state = apply_polarization_gate(state, "t", PAULI_Z)
        out = attack_ab(state, apply_s=True)
        assert out.allclose(symmetrized_state(j), atol=1e-12)


def test_inbound_rejects_support_outside_image_span():
    state = PureState.from_terms({B_KETS[0]: INV_SQRT2, ket(1, "1", "vac", "0"): INV_SQRT2})
    with pytest.raises(SubspaceLeakageError) as err:
        attack_ab(state)
    assert ket(1, "1", "vac", "0") in err.value.offending


@pytest.mark.parametrize("index", range(DIM))
def test_every_basis_ket_outside_the_domain_leaks(index):
    # Each leg is defined exactly on its own span: the outbound leg on
    # span{f1..f4}, the inbound leg on span{B1..B4}, which the outbound
    # images span.  A lone basis ket outside it is all residual.
    basis_ket = BasisKet.from_index(index)
    state = PureState.from_terms({basis_ket: 1.0})
    for leg, domain in ((attack_ba, F_KETS), (attack_ab, B_KETS)):
        if basis_ket in domain:
            leg(state)
        else:
            with pytest.raises(SubspaceLeakageError) as err:
                leg(state)
            assert err.value.offending == [basis_ket]


@pytest.mark.parametrize("leg, domain", [(attack_ba, F_KETS), (attack_ab, B_KETS)])
def test_leak_threshold(leg, domain):
    # A domain superposition plus one stray ket: each leg tolerates stray
    # amplitude up to 1e-12 and names exactly the stray ket above it.
    stray = ket(0, "0", "vac", "0")
    assert stray not in F_KETS + B_KETS
    weights = np.array([0.5, 0.5j, -0.5, 0.5])
    for amplitude, leaks in ((2e-12, True), (5e-13, False)):
        terms = dict(zip(domain, weights * np.sqrt(1.0 - amplitude**2)))
        state = PureState.from_terms({**terms, stray: amplitude})
        if leaks:
            with pytest.raises(SubspaceLeakageError) as err:
                leg(state)
            assert err.value.offending == [stray]
            assert str(err.value).endswith("[h=0 t=0 x=vac y=0]")
        else:
            assert abs(leg(state).norm_sq - 1.0) < 1e-12


@pytest.mark.parametrize("kernel, domain", [(outbound_amps, F_KETS), (inbound_amps, B_KETS)])
def test_stacked_leak_names_the_stray_kets(kernel, domain):
    # Three rows in the leg's span.  A stray ket at 2e-12 in one row is named
    # alone; strays in two rows are all named, in index order.
    weights = np.array([0.5, 0.5j, -0.5, 0.5])
    high, low = ket(1, "1", "1", "1"), ket(0, "0", "vac", "0")
    assert low.index < high.index and not {low, high} & set(F_KETS + B_KETS)
    for strays, named in (({1: low}, [low]), ({0: high, 2: low}, [low, high])):
        stack = np.zeros((3, DIM), dtype=complex)
        stack[:, [k.index for k in domain]] = weights
        for row, stray in strays.items():
            stack[row] *= np.sqrt(1.0 - 2e-12**2)
            stack[row, stray.index] = 2e-12
        with pytest.raises(SubspaceLeakageError) as err:
            kernel(stack)
        assert err.value.offending == named
    # A nan off the span leaks too, rather than being dropped unseen.
    stack[1, low.index] = np.nan
    with pytest.raises(SubspaceLeakageError) as err:
        kernel(stack)
    assert low in err.value.offending


def test_round_trip_is_identity_on_subspace():
    rng = np.random.default_rng(41)
    for _ in range(100):
        state = subspace_state(rng.normal(size=4) + 1j * rng.normal(size=4))
        assert attack_ab(attack_ba(state)).allclose(state, atol=1e-12)


def test_reference_round_trip_of_a_stack():
    # 100 random in-domain states through both legs of the reference attack
    # as one stack: back to the start within 1e-12, and each row bit for bit
    # the single-state legs' result.
    rng = np.random.default_rng(43)
    coeffs = rng.normal(size=(100, 4)) + 1j * rng.normal(size=(100, 4))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    states = np.zeros((100, DIM), dtype=complex)
    states[:, [k.index for k in F_KETS]] = coeffs
    outbound = outbound_amps(states, "wojcik")
    returned = inbound_amps(outbound, "wojcik")
    assert np.max(np.abs(returned - states)) <= 1e-12
    for state, out_row, back_row in zip(states, outbound, returned):
        assert out_row.tobytes() == attack_ba(PureState(state), "wojcik").amps.tobytes()
        assert back_row.tobytes() == attack_ab(PureState(out_row), attack="wojcik").amps.tobytes()


def test_each_attack_has_its_own_inbound_span():
    # B3 is an improved image ket, outside the reference attack's span.
    state = PureState.from_terms({B_KETS[2]: 1.0})
    attack_ab(state)
    with pytest.raises(SubspaceLeakageError) as err:
        attack_ab(state, attack="wojcik")
    assert err.value.offending == [B_KETS[2]]


# --- symmetrization ------------------------------------------------------------


def test_symmetrization_on_returned_states():
    for j in (0, 1):
        out = PureState(symmetrization_amps(returned_state(j).amps))
        assert out.allclose(symmetrized_state(j), atol=1e-12)


def test_symmetrization_is_an_involution():
    rng = np.random.default_rng(5)
    for _ in range(10):
        amps = rng.normal(size=54) + 1j * rng.normal(size=54)
        state = PureState(amps / np.linalg.norm(amps))
        twice = PureState(symmetrization_amps(symmetrization_amps(state.amps)))
        assert twice.allclose(state, atol=1e-12)


def gate_by_gate_s(amps: np.ndarray) -> np.ndarray:
    """S = X_t Z_t N_ty X_t as the engine's gate kernels, rightmost first."""
    amps = polarization_gate_amps(amps, "t", PAULI_X)
    amps = cnot_amps(amps, "t", "y")
    amps = polarization_gate_amps(amps, "t", PAULI_Z)
    return polarization_gate_amps(amps, "t", PAULI_X)


def gate_by_gate_z(amps: np.ndarray) -> np.ndarray:
    return polarization_gate_amps(amps, "t", PAULI_Z)


def signed_z(amps: np.ndarray) -> np.ndarray:
    return attacks._signed(amps, attacks._Z_T)


SIGNED_GATHERS = [(symmetrization_amps, gate_by_gate_s), (signed_z, gate_by_gate_z)]


@pytest.mark.parametrize("gather, gates", SIGNED_GATHERS, ids=["S", "Z_t"])
def test_signed_gather_equals_its_gates(gather, gates):
    """S and Z_t as signed gathers take the values of their gate words on
    every basis ket, on random stacks of any shape, and on both attacks'
    message stacks; only the sign of a zero may differ."""
    basis = np.eye(DIM, dtype=complex)
    assert np.array_equal(gather(basis), gates(basis))
    rng = np.random.default_rng(32)
    for _ in range(100):
        shape = tuple(rng.integers(1, 5, size=rng.integers(0, 3))) + (DIM,)
        amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        amps[rng.random(shape) < 0.3] = 0.0
        amps[rng.random(shape) < 0.1] = -0.0
        out = gather(amps)
        assert out.shape == shape and out.dtype == complex
        assert np.array_equal(out, gates(amps))
    for attack in ATTACKS:
        outbound = outbound_amps(make_initial().amps, attack)
        for stack in (outbound, message_amps(attack)):
            assert np.array_equal(gather(stack), gates(stack))


def test_message_stacks_read_the_signed_gathers(monkeypatch):
    """Every message round, the plain channel's included, applies Z_t and S
    through their gathers."""
    for attack in (None, *ATTACKS):
        stack = message_amps(attack)
        source, sign = attacks._S
        monkeypatch.setattr(attacks, "_S", (source, -sign))
        assert np.array_equal(message_amps(attack), [stack[0], -stack[1]])
        monkeypatch.undo()
        # With Z_t the identity, bit 1 is sent as bit 0.
        monkeypatch.setattr(attacks, "_Z_T", (np.arange(DIM), np.ones(DIM, dtype=complex)))
        assert np.array_equal(message_amps(attack), stack[:, [0, 0]])
        monkeypatch.undo()


# --- full message leg -----------------------------------------------------------


def test_message_state_matches_pinned_states():
    stack = message_amps()
    for j in (0, 1):
        assert PureState(stack[0, j]).allclose(returned_state(j), atol=1e-12)
        assert PureState(stack[1, j]).allclose(symmetrized_state(j), atol=1e-12)


@pytest.mark.parametrize("attack", [None, *ATTACKS])
def test_message_amps_are_one_s_j_stack(attack):
    """Every channel's message round is one (2, 2, 54) stack indexed [s, j]:
    the returned rows, then their S images, which its tables read as is."""
    stack = message_amps(attack)
    assert stack.shape == (2, 2, DIM)
    assert stack[1].tobytes() == symmetrization_amps(stack[0]).tobytes()
    assert exact_outcome_tables(attack).tobytes() == message_outcome_tables(stack).tobytes()


# The plain table P(k, m | j), indexed [j, k, m]; the symmetrized attack
# mirrors it under (j, k, m) -> (1-j, 1-k, 1-m).  Both are exact.
PLAIN_COND = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.25, 0.25], [0.25, 0.25]]])


def gate_by_gate_message_state(j: int, apply_s: bool, attack: str) -> PureState:
    """The message round one PureState at a time: the outbound leg, Z_t for
    bit 1, the inbound leg, then S as its gate word X_t Z_t N_ty X_t."""
    state = attack_ba(make_initial(), attack)
    if j == 1:
        state = apply_polarization_gate(state, "t", PAULI_Z)
    state = attack_ab(state, attack=attack)
    if apply_s:
        state = apply_polarization_gate(state, "t", PAULI_X)
        state = apply_cnot(state, "t", "y")
        state = apply_polarization_gate(state, "t", PAULI_Z)
        state = apply_polarization_gate(state, "t", PAULI_X)
    return state


def test_message_amps_equal_the_gate_by_gate_round():
    for attack in ATTACKS:
        stack = message_amps(attack)
        assert stack.shape == (2, 2, DIM)
        for apply_s in (False, True):
            for j in (0, 1):
                expected = gate_by_gate_message_state(j, apply_s, attack).amps
                assert (stack[int(apply_s), j] == expected).all()
            encoded = attack_ba(make_initial(), attack)
            encoded = apply_polarization_gate(encoded, "t", PAULI_Z)
            expected = gate_by_gate_message_state(1, apply_s, attack).amps
            assert (attack_ab(encoded, apply_s, attack).amps == expected).all()


def test_plain_channel_message_amps_are_the_encoded_pair():
    # No attack: the prepared pair for bit 0, its Z_t image for bit 1, and
    # their S images, equal to their gates' values and magnitudes; a zero's
    # sign is the signed gathers', and no table reads it.
    stack = message_amps(None)
    returned = np.array([
        make_initial().amps, apply_polarization_gate(make_initial(), "t", PAULI_Z).amps,
    ])
    expected = np.array([returned, gate_by_gate_s(returned)])
    assert np.array_equal(stack, expected)
    assert np.abs(stack).tobytes() == np.abs(expected).tobytes()
    assert message_outcome_stack(stack).tobytes() == message_outcome_stack(expected).tobytes()


def test_stacked_tabulation_equals_per_state_tabulation():
    # Every message state of both attacks as one (2, 2, 2, 54) stack, indexed
    # [attack, s, j]: each row's table must be its lone state's.
    stack = np.array([message_amps(attack) for attack in ATTACKS])
    stacked = message_outcome_stack(stack)
    assert stacked.shape == (2, 2, 2, 3, 5)
    for index in np.ndindex(stack.shape[:-1]):
        state = PureState(stack[index])
        assert stacked[index].tobytes() == message_outcome_stack(state.amps).tobytes()
        by_outcome = list(bell_probabilities(state).values())
        assert np.abs(stacked[index].sum(axis=0) - by_outcome).max() <= 1e-15
    for a, attack in enumerate(ATTACKS):
        for s in (0, 1):
            assert (exact_outcome_table(bool(s), attack) == stacked[a, s, :, 1:, :2]).all()


def test_outcome_tables_are_one_stacked_tabulation(monkeypatch):
    # The reference is the tabulation the stack replaces: each variant's two
    # message states, rows [s] of message_amps, tabulated on their own.
    for attack in ATTACKS:
        expected = [message_outcome_stack(message_amps(attack)[s])[:, 1:, :2] for s in (0, 1)]
        shapes = []

        def counted(amps, tabulate=attacks.message_outcome_stack):
            shapes.append(amps.shape)
            return tabulate(amps)

        with monkeypatch.context() as patch:
            patch.setattr(attacks, "message_outcome_stack", counted)
            tables = exact_outcome_tables(attack)
            assert shapes == [(2, 2, DIM)]
            singles = [exact_outcome_table(s, attack) for s in (False, True)]
        assert tables.shape == (2, 2, 2, 2)
        for s in (0, 1):
            assert tables[s].tobytes() == expected[s].tobytes()
            assert singles[s].tobytes() == expected[s].tobytes()


def test_exact_outcome_table_plain():
    assert (exact_outcome_table(apply_s=False) == PLAIN_COND).all()


def test_exact_outcome_table_symmetrized():
    assert (exact_outcome_table(apply_s=True) == PLAIN_COND[::-1, ::-1, ::-1]).all()


def test_reference_message_tables_equal_the_improved_attack():
    # Both attacks return the same message states, so the reference
    # attack's own tables equal the improved attack's.
    stack = message_amps("wojcik")
    for j in (0, 1):
        assert PureState(stack[0, j]).allclose(returned_state(j), atol=1e-12)
        assert PureState(stack[1, j]).allclose(symmetrized_state(j), atol=1e-12)
    for variant in ("plain", "symmetrized"):
        table = exact_outcome_table(variant == "symmetrized", "wojcik")
        assert (table == conditionals()[variant]).all()


def test_control_outcomes_are_exact():
    # (vac, 0), (vac, 1), (pol0, 0), (pol0, 1), (pol1, 0), (pol1, 1)
    assert control_outcomes("improved") == (0.25, 0.0, 0.0, 0.5, 0.25, 0.0)
    assert control_outcomes(None) == (0.0, 0.0, 0.0, 0.5, 0.5, 0.0)
    # The reference attack loses the travel photon from both halves of the
    # pair, and a surviving photon keeps the control bits unequal.
    assert control_outcomes("wojcik") == (0.25, 0.25, 0.0, 0.25, 0.25, 0.0)


def test_outcome_table_refuses_mass_outside_it(monkeypatch):
    # A phi_plus pair with a pol0 register: a two-particle outcome the table
    # has no column for.
    phi_plus = PureState.from_terms(
        {ket(0, "0", "vac", "0"): INV_SQRT2, ket(1, "1", "vac", "0"): INV_SQRT2}
    )
    monkeypatch.setattr(attacks, "message_amps", lambda attack: np.array([[phi_plus.amps] * 2] * 2))
    with pytest.raises(ValueError, match="outside the table"):
        exact_outcome_table(apply_s=False)


def test_stacked_tables_refuse_mass_outside_them(monkeypatch):
    # The phi_plus pair put in one returned row of the reference attack, and
    # then of the pinned states, with its S image as message_amps gives it:
    # verify's (3, 2, 2, 54) stack is refused with the error that
    # exact_outcome_tables raises on the same [s, j] stack.
    phi_plus = PureState.from_terms(
        {ket(0, "0", "vac", "0"): INV_SQRT2, ket(1, "1", "vac", "0"): INV_SQRT2}
    )
    for index, j in ((1, 1), (2, 0)):
        messages = verify._audited_messages()
        returned = messages[index, 0].copy()
        returned[j] = phi_plus.amps
        messages[index] = returned, symmetrization_amps(returned)
        with monkeypatch.context() as patch:
            patch.setattr(attacks, "message_amps", lambda attack: messages[index])
            with pytest.raises(ValueError, match="outside the table") as single:
                exact_outcome_tables("wojcik")
        with pytest.raises(ValueError) as stacked:
            message_outcome_tables(messages)
        assert str(stacked.value) == str(single.value)


def test_stacked_tables_slice_per_attack():
    # verify's one tabulation holds each attack's exact_outcome_tables, bit
    # for bit, and the pinned states' tables after them.
    tables = message_outcome_tables(verify._audited_messages())
    assert tables.shape == (3, 2, 2, 2, 2)
    for a, attack in enumerate(("improved", "wojcik")):
        assert tables[a].tobytes() == exact_outcome_tables(attack).tobytes()
    assert tables[2].tobytes() == tables[0].tobytes()


# --- profiles --------------------------------------------------------------------


def test_profile_losses():
    assert improved_profile().loss == 0.25
    # derived: P(t = vac) of the attacked control table
    assert improved_profile().loss == sum(control_outcomes("improved")[:2])
    assert wojcik_profile().loss == 0.5
    assert wojcik_profile().loss == sum(control_outcomes("wojcik")[:2])


def test_profile_information_values():
    for profile in (improved_profile(), wojcik_profile()):
        attack = profile.name
        assert abs(profile.i_ae - 0.311278) < 1e-6
        assert abs(profile.i_ab - 0.188722) < 1e-6
        assert abs(profile.i_be - 0.073761) < 1e-6
        # one source of truth: the information layer's values of the
        # attack's own tables
        assert profile.i_ae == mixture_ae_conditioned(0.5, attack)
        assert profile.i_ab == mutual_information(exact_joint("fair-mixture", 0.5, attack), "AB")
        assert profile.i_be == mutual_information(exact_joint("plain", 0.5, attack), "BE")
    # derived from each attack's own states, not shared by construction
    gains = [(p.i_ae, p.i_ab, p.i_be) for p in (improved_profile(), wojcik_profile())]
    assert gains[0] == gains[1]


def test_profile_json_shape():
    payload = improved_profile().to_json_dict()
    assert set(payload) == {"name", "loss", "i_ae", "i_ab", "i_be"}
    assert payload["name"] == "improved"
    assert payload["loss"] == 0.25
