"""Property tests of the polarization gates against dense reference
operators, of the CNOT and the mode and Bell measurements, and of the
attack legs on stacks of states, with the suite's fixed derandomized
Hypothesis profile.

The reference acts on the full 54-dimensional space as a Kronecker product
over (h, t, x, y): the gate itself on h, and on a photon mode the gate
beside an untouched vacuum level.  The stacked attack legs are held to the
single-state legs, row by row and bit for bit.  The exact tabulator is held
to a ``fractions.Fraction`` sum on random lattice states.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, seed  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pingpong_eve.attacks import (  # noqa: E402
    F_KETS,
    attack_ab,
    attack_ba,
    inbound_amps,
    outbound_amps,
)
from pingpong_eve.engine import (  # noqa: E402
    DIM,
    MODES,
    PHOTON_MODES,
    BasisKet,
    BellOutcome,
    Occupation,
    PureState,
    apply_cnot,
    apply_polarization_gate,
    bell_probabilities,
    exact_probabilities,
    make_initial,
    project_bell,
    project_mode,
)
from test_sampler_properties import DETERMINISTIC  # noqa: E402

# Each property keeps the 40 examples its source gave when its seed was
# pinned (see test_sampler_properties), whatever later edits of its body.
DENSE_GATE_SEED = int(
    "3572772686256907476486032475692100301584054886380297937928"
    "9161796170233968139396756938115107930700355891446821693327"
)
GATE_NORM_SEED = int(
    "2723705819938400771344691642231396211577010343895014270395"
    "8286857902920784072714690464527132062434423754924553319971"
)
SCALED_GATE_SEED = int(
    "1731354373483335390236850973761232981299136166155399022830"
    "2985842943413881926429035417472897166743435163267838006273"
)
NON_FINITE_GATE_SEED = int(
    "2591823199906056325514726963881410798529702768064654344571"
    "7361686397635113069004785320367563574207881227388450796599"
)
ROUND_TRIP_SEED = int(
    "627739916560125812139634733348970483687239364741874871245"
    "6200220409224209103628527368628021983958036019404793071379"
)
CNOT_SEED = int(
    "2205201869283593102494956301307536761841984287972914573244"
    "6423128446597720115258930473684984334652791213472517006138"
)
PROJECTION_SEED = int(
    "1201064761912585182900990748580259686512369860089172999808"
    "2576485212973041057539351843209388677908672245906269810049"
)
BELL_SUM_SEED = int(
    "3406993888769152025219415127831943608849595030993807558908"
    "1031045739197941350991555810649547967418293416882829212305"
)
EXACT_SUM_SEED = int(
    "2224630323037689148807939783756258267341698675130226599089"
    "7627244017127565228046321478124989239051078834790311344682"
)

PHOTON_NUMBER = np.array([BasisKet.from_index(i).photon_number for i in range(DIM)])

angle = st.floats(0.0, 2.0 * np.pi)


@st.composite
def unitaries(draw) -> np.ndarray:
    """exp(i phi) [[a, b], [-conj(b), conj(a)]] with |a|^2 + |b|^2 = 1."""
    theta, phi, alpha, beta = (draw(angle) for _ in range(4))
    a = np.cos(theta) * np.exp(1j * alpha)
    b = np.sin(theta) * np.exp(1j * beta)
    return np.exp(1j * phi) * np.array([[a, b], [-np.conj(b), np.conj(a)]])


def random_state(seed: int) -> PureState:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
    return PureState(amps / np.linalg.norm(amps))


def dense_operator(mode: str, gate: np.ndarray) -> np.ndarray:
    factors = []
    for name in MODES:
        if name == "h":
            factors.append(gate if mode == "h" else np.eye(2))
        else:
            local = np.eye(3, dtype=complex)
            if name == mode:
                local[1:, 1:] = gate
            factors.append(local)
    return functools.reduce(np.kron, factors)


def sector_weights(state: PureState) -> np.ndarray:
    return np.bincount(PHOTON_NUMBER, weights=np.abs(state.amps) ** 2, minlength=4)


def random_sector_state(seed: int, sectors: frozenset[int]) -> PureState:
    """A random state whose support is the given photon-number sectors."""
    amps = random_state(seed).amps * np.isin(PHOTON_NUMBER, list(sectors))
    return PureState(amps / np.linalg.norm(amps))


photon_sectors = st.frozensets(st.integers(0, 3), min_size=1)


@DETERMINISTIC
@seed(DENSE_GATE_SEED)
@given(st.sampled_from(MODES), unitaries(), st.integers(0, 2**32 - 1))
def test_gate_equals_dense_reference(mode, gate, seed):
    state = random_state(seed)
    out = apply_polarization_gate(state, mode, gate)
    expected = dense_operator(mode, gate) @ state.amps
    assert np.max(np.abs(out.amps - expected)) <= 1e-12


@DETERMINISTIC
@seed(GATE_NORM_SEED)
@given(st.sampled_from(MODES), unitaries(), st.integers(0, 2**32 - 1))
def test_gate_preserves_norm_and_photon_number(mode, gate, seed):
    state = random_state(seed)
    out = apply_polarization_gate(state, mode, gate)
    assert abs(out.norm_sq - 1.0) < 1e-12
    assert np.max(np.abs(sector_weights(out) - sector_weights(state))) < 1e-12
    # a single basis ket stays inside its own photon-number sector
    ket_state = PureState(np.eye(DIM)[seed % DIM])
    assert ket_state.photon_sectors(tol=0.0) == apply_polarization_gate(
        ket_state, mode, gate
    ).photon_sectors(tol=0.0)


@DETERMINISTIC
@seed(SCALED_GATE_SEED)
@given(st.sampled_from(MODES), unitaries(), st.sampled_from([1.0 + 1e-9, 1.5, 0.5, 0.0]))
def test_scaled_gates_rejected(mode, gate, scale):
    with pytest.raises(ValueError, match="not unitary"):
        apply_polarization_gate(make_initial(), mode, scale * gate)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@DETERMINISTIC
@seed(NON_FINITE_GATE_SEED)
@given(
    st.sampled_from(MODES),
    unitaries(),
    st.integers(0, 3),
    st.sampled_from([np.nan, np.inf, -np.inf, complex(0.0, np.nan)]),
)
def test_non_finite_gates_rejected(mode, gate, entry, bad):
    gate.flat[entry] = bad
    with pytest.raises(ValueError, match="not unitary"):
        apply_polarization_gate(make_initial(), mode, gate)


@pytest.mark.parametrize("shape", [(2,), (4,), (3, 3), (2, 3), (1, 2, 2)])
def test_wrong_shape_gates_rejected(shape):
    with pytest.raises(ValueError, match="must be 2x2"):
        apply_polarization_gate(make_initial(), "t", np.ones(shape))


@DETERMINISTIC
@seed(ROUND_TRIP_SEED)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_stacked_round_trip_is_the_identity(rows, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(rows, 4)) + 1j * rng.normal(size=(rows, 4))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    states = np.zeros((rows, DIM), dtype=complex)
    states[:, [k.index for k in F_KETS]] = coeffs
    outbound = outbound_amps(states)
    returned = inbound_amps(outbound)
    assert np.max(np.abs(returned - states)) <= 1e-12
    for state, out_row, back_row in zip(states, outbound, returned):
        assert out_row.tobytes() == attack_ba(PureState(state)).amps.tobytes()
        assert back_row.tobytes() == attack_ab(PureState(out_row)).amps.tobytes()


@DETERMINISTIC
@seed(CNOT_SEED)
@given(st.permutations(PHOTON_MODES), st.integers(0, 2**32 - 1))
def test_cnot_preserves_norm_and_photon_number(modes, seed):
    control, target = modes[:2]
    state = random_state(seed)
    out = apply_cnot(state, control, target)
    assert abs(out.norm_sq - 1.0) < 1e-12
    assert np.max(np.abs(sector_weights(out) - sector_weights(state))) < 1e-12
    ket_state = PureState(np.eye(DIM)[seed % DIM])
    assert apply_cnot(ket_state, control, target).photon_sectors(tol=0.0) == (
        ket_state.photon_sectors(tol=0.0)
    )


@DETERMINISTIC
@seed(PROJECTION_SEED)
@given(st.sampled_from(MODES), photon_sectors, st.integers(0, 2**32 - 1))
def test_mode_projections_split_the_state(mode, sectors, seed):
    state = random_sector_state(seed, sectors)
    total = 0.0
    mixed = np.zeros(4)
    for outcome in Occupation:
        p, collapsed = project_mode(state, mode, outcome)
        assert p >= 0.0
        total += p
        if collapsed is None:
            continue
        # normalized, inside the parent's photon sectors, and the outcomes
        # together hold each sector's weight
        assert abs(collapsed.norm_sq - 1.0) < 1e-12
        assert collapsed.photon_sectors(tol=0.0) <= state.photon_sectors(tol=0.0)
        mixed += p * sector_weights(collapsed)
    assert abs(total - 1.0) < 1e-12
    assert np.max(np.abs(mixed - sector_weights(state))) < 1e-12


@DETERMINISTIC
@seed(BELL_SUM_SEED)
@given(photon_sectors, st.integers(0, 2**32 - 1))
def test_bell_probabilities_sum_to_one(sectors, seed):
    probs = bell_probabilities(random_sector_state(seed, sectors))
    assert min(probs.values()) >= 0.0
    assert abs(sum(probs.values()) - 1.0) < 1e-12


@pytest.mark.parametrize("sectors", [{0, 1, 2, 3}, {1}, {0}, {0, 2}])
@pytest.mark.parametrize("seed", [3, 19])
def test_bell_projections_resolve_the_state(seed, sectors):
    # sqrt(p) times the collapsed state, summed over the five outcomes,
    # reassembles the state; an outcome of probability zero collapses to None.
    state = random_sector_state(seed, frozenset(sectors))
    resolved = np.zeros(DIM, dtype=complex)
    for outcome in BellOutcome:
        prob, collapsed = project_bell(state, outcome)
        if collapsed is None:
            assert prob == 0.0
            continue
        resolved += np.sqrt(prob) * collapsed.amps
    assert np.max(np.abs(resolved - state.amps)) <= 1e-12


@st.composite
def lattice_states(draw):
    """(k, amplitudes, outcome labels, label count): amplitudes
    +-1/sqrt(2)**k on 2**k distinct indices for some k <= 4, zero elsewhere."""
    k = draw(st.integers(0, 4))
    support = draw(st.lists(st.integers(0, DIM - 1), min_size=2**k, max_size=2**k, unique=True))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=2**k, max_size=2**k))
    size = draw(st.integers(1, 6))
    labels = np.array(draw(st.lists(st.integers(0, size - 1), min_size=DIM, max_size=DIM)))
    amps = np.zeros(DIM)
    amps[support] = np.array(signs) / np.sqrt(2.0) ** k
    return k, amps, labels, size


@DETERMINISTIC
@seed(EXACT_SUM_SEED)
@given(lattice_states(), st.booleans())
def test_exact_probabilities_are_fraction_sums(state, as_pure_state):
    k, amps, labels, size = state
    if as_pure_state:
        amps = PureState(amps).amps
    # Each index of the support adds (1/sqrt(2)**k)**2 = 2**-k to its label.
    expected = [
        sum(Fraction(1, 2**k) for i in np.flatnonzero(amps) if labels[i] == label)
        for label in range(size)
    ]
    assert exact_probabilities(amps, labels, size).tolist() == expected
    assert sum(expected) == 1
