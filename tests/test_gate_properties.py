"""Property tests of the polarization gates against dense reference
operators, with the suite's fixed derandomized Hypothesis profile.

The reference acts on the full 54-dimensional space as a Kronecker product
over (h, t, x, y): the gate itself on h, and on a photon mode the gate
beside an untouched vacuum level.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pingpong_eve.engine import (  # noqa: E402
    DIM,
    MODES,
    BasisKet,
    PureState,
    apply_polarization_gate,
    make_initial,
)
from test_sampler_properties import DETERMINISTIC  # noqa: E402

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


@DETERMINISTIC
@given(st.sampled_from(MODES), unitaries(), st.integers(0, 2**32 - 1))
def test_gate_equals_dense_reference(mode, gate, seed):
    state = random_state(seed)
    out = apply_polarization_gate(state, mode, gate)
    expected = dense_operator(mode, gate) @ state.amps
    assert np.max(np.abs(out.amps - expected)) <= 1e-12


@DETERMINISTIC
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
@given(st.sampled_from(MODES), unitaries(), st.sampled_from([1.0 + 1e-9, 1.5, 0.5, 0.0]))
def test_scaled_gates_rejected(mode, gate, scale):
    with pytest.raises(ValueError, match="not unitary"):
        apply_polarization_gate(make_initial(), mode, scale * gate)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@DETERMINISTIC
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
