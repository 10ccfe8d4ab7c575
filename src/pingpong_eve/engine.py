"""Exact pure-state engine for one polarization qubit plus three photon modes.

The simulated system is the home qubit ``h`` kept by the receiver, and three
spatial modes ``t`` (travel), ``x`` (attack ancilla), ``y`` (attack register)
that each hold at most one photon.  A photon mode is either empty (``vac``)
or holds a single photon polarized ``0`` or ``1``, so each mode is a 3-level
system and the full Hilbert space has dimension 2 * 3 * 3 * 3 = 54.

Basis kets are enumerated in row-major order,

    index = ((h * 3 + code(t)) * 3 + code(x)) * 3 + code(y)

with occupation codes vac=0, pol0=1, pol1=2.  This is a bijection onto
0..53.

Conventions baked into the gates:

* Polarization gates act on the one-photon subspace of a mode and leave the
  vacuum level untouched (phase +1).  On ``h`` they act as ordinary qubit
  gates.  A gate is applied as a 2x2 butterfly over the mode's index pairs
  whose measurement codes are 1 and 2: pol0/pol1 on a photon mode, h=0/h=1
  on ``h``, so no mode needs a branch of its own.
* The photonic CNOT flips the target mode's polarization when the control
  mode holds a ``pol1`` photon; an empty target is left unchanged, and an
  empty or ``pol0`` control makes the gate the identity.

States are immutable.  Every operation is a pure function returning a new
``PureState``.
"""

from __future__ import annotations

import dataclasses
from enum import Enum, IntEnum
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

DIM = 54
MODES = ("h", "t", "x", "y")
PHOTON_MODES = ("t", "x", "y")

_NORM_TOL = 1e-8


class Occupation(IntEnum):
    """Occupation of a photon mode; the integer value is the basis code."""

    VAC = 0
    POL0 = 1
    POL1 = 2

    def label(self) -> str:
        return _OCC_LABELS[self]

    @classmethod
    def from_label(cls, text: str) -> "Occupation":
        try:
            return _OCC_FROM_LABEL[text]
        except KeyError:
            raise ValueError(f"unknown occupation label {text!r}") from None

    @property
    def occupied(self) -> bool:
        return self is not Occupation.VAC


_OCC_LABELS = {Occupation.VAC: "vac", Occupation.POL0: "0", Occupation.POL1: "1"}
_OCC_FROM_LABEL = {label: occ for occ, label in _OCC_LABELS.items()}


class BellOutcome(Enum):
    """Outcome of the two-particle measurement on (h, t)."""

    PSI_PLUS = "psi_plus"
    PSI_MINUS = "psi_minus"
    PHI_PLUS = "phi_plus"
    PHI_MINUS = "phi_minus"
    NO_PHOTON = "no_photon"


@dataclasses.dataclass(frozen=True)
class BasisKet:
    """One computational basis ket |h, t, x, y>."""

    h: int
    t: Occupation
    x: Occupation
    y: Occupation

    def __post_init__(self) -> None:
        if self.h not in (0, 1):
            raise ValueError(f"h must be 0 or 1, got {self.h!r}")

    @property
    def index(self) -> int:
        return ((self.h * 3 + self.t) * 3 + self.x) * 3 + self.y

    @classmethod
    def from_index(cls, index: int) -> "BasisKet":
        if not 0 <= index < DIM:
            raise ValueError(f"basis index out of range: {index}")
        rem, y = divmod(index, 3)
        rem, x = divmod(rem, 3)
        h, t = divmod(rem, 3)
        return cls(h, Occupation(t), Occupation(x), Occupation(y))

    @property
    def photon_number(self) -> int:
        """Number of photons in the travel modes t, x, y."""
        return sum(occ.occupied for occ in (self.t, self.x, self.y))

    def label(self) -> str:
        return (
            f"h={self.h} t={self.t.label()} x={self.x.label()} y={self.y.label()}"
        )


def ket(h: int, t, x, y) -> BasisKet:
    """Shorthand ket constructor accepting Occupation values or labels.

    ket(0, "1", "vac", "0") is the basis ket with h=0, a pol1 photon in t,
    empty x, and a pol0 photon in y.
    """

    def occ(value) -> Occupation:
        if isinstance(value, Occupation):
            return value
        return Occupation.from_label(str(value))

    return BasisKet(h, occ(t), occ(x), occ(y))


def _mode_axis(mode: str) -> int:
    try:
        return MODES.index(mode)
    except ValueError:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}") from None


# Index stride of each mode in the row-major encoding, and the precomputed
# decode tables: occupation code of each mode for every index.
_STRIDE = {"h": 27, "t": 9, "x": 3, "y": 1}
_INDICES = np.arange(DIM)
_CODE_OF = {mode: _INDICES // stride % 3 for mode, stride in _STRIDE.items()}
# Measurement codes: h=0/h=1 read as pol0/pol1, so no index reads as vac.
_OUTCOME_CODE = {**_CODE_OF, "h": _CODE_OF["h"] + 1}
_PHOTON_NUMBER = sum((_CODE_OF[mode] != 0).astype(int) for mode in PHOTON_MODES)


class PureState:
    """Immutable normalized pure state on the 54-dimensional space."""

    __slots__ = ("_amps",)

    def __init__(self, amplitudes: Sequence[complex] | np.ndarray):
        amps = np.array(amplitudes, dtype=complex)
        if amps.shape != (DIM,):
            raise ValueError(f"amplitudes must have shape ({DIM},), got {amps.shape}")
        norm_sq = float(np.vdot(amps, amps).real)
        # A nan or inf amplitude makes norm_sq nan or inf, and fails here.
        if not abs(norm_sq - 1.0) <= _NORM_TOL:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "_amps", amps)

    @property
    def amps(self) -> np.ndarray:
        """Read-only amplitude vector of length 54."""
        return self._amps

    @classmethod
    def from_terms(cls, terms: Mapping[BasisKet, complex]) -> "PureState":
        """Build a state from a {ket: amplitude} mapping (must be normalized)."""
        amps = np.zeros(DIM, dtype=complex)
        for basis_ket, amplitude in terms.items():
            amps[basis_ket.index] += amplitude
        return cls(amps)

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self._amps) ** 2))

    def amplitude(self, basis_ket: BasisKet) -> complex:
        return complex(self._amps[basis_ket.index])

    def overlap(self, other: "PureState") -> complex:
        """Inner product <other|self>."""
        return complex(np.vdot(other._amps, self._amps))

    def nonzero_terms(self, tol: float = 1e-12) -> list[tuple[BasisKet, complex]]:
        out = []
        for index in np.nonzero(np.abs(self._amps) > tol)[0]:
            out.append((BasisKet.from_index(int(index)), complex(self._amps[index])))
        return out

    def photon_sectors(self, tol: float = 1e-12) -> set[int]:
        """Travel-photon numbers carrying any support above tol."""
        mask = np.abs(self._amps) > tol
        return {int(n) for n in np.unique(_PHOTON_NUMBER[mask])}

    def max_amplitude_diff(self, other: "PureState") -> float:
        return float(np.max(np.abs(self._amps - other._amps)))

    def allclose(self, other: "PureState", atol: float = 1e-12) -> bool:
        return self.max_amplitude_diff(other) <= atol

    def equal_up_to_global_phase(self, other: "PureState", atol: float = 1e-12) -> bool:
        overlap = self.overlap(other)
        if abs(overlap) < 1e-6:
            return False
        phase = overlap / abs(overlap)
        return float(np.max(np.abs(self._amps - phase * other._amps))) <= atol

    def __repr__(self) -> str:
        terms = self.nonzero_terms(tol=1e-9)
        if len(terms) > 4:
            return f"PureState({len(terms)} kets)"
        parts = " + ".join(f"({amp:.4g})|{k.label()}>" for k, amp in terms)
        return f"PureState({parts})"


# --- gates ---------------------------------------------------------------

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

_ID2 = np.eye(2, dtype=complex)


def _require_unitary(gate: np.ndarray) -> np.ndarray:
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (2, 2):
        raise ValueError(f"polarization gate must be 2x2, got shape {gate.shape}")
    # A non-finite entry is refused before the product, which would warn.
    if not (np.isfinite(gate).all() and np.abs(gate @ gate.conj().T - _ID2).max() <= 1e-12):
        raise ValueError("polarization gate is not unitary within 1e-12")
    return gate


# (pol0, pol1) index pairs of each mode, shape (2, 18) for a photon mode and
# (2, 27) for h: a polarization gate mixes the two rows and nothing else.
_GATE_PAIRS = {
    mode: np.stack([np.flatnonzero(code == 1), np.flatnonzero(code == 2)])
    for mode, code in _OUTCOME_CODE.items()
}


def apply_polarization_gate(state: PureState, mode: str, gate: np.ndarray) -> PureState:
    """Apply a 2x2 unitary to a mode's polarization; vacuum is untouched.

    On mode ``h`` the gate acts on the qubit itself.
    """
    gate = _require_unitary(gate)
    pairs = _GATE_PAIRS[MODES[_mode_axis(mode)]]
    new = state.amps.copy()
    new[pairs] = gate @ state.amps[pairs]
    return PureState(new)


@lru_cache(maxsize=None)
def controlled_flip_permutation(control: str, target: str, active: Occupation) -> np.ndarray:
    """Index permutation of the CNOT-style gate: when the control photon
    mode's occupation equals ``active``, the target polarization is flipped
    (pol0 <-> pol1, vacuum unchanged)."""
    if control == "h" or target == "h":
        raise ValueError("photonic CNOT acts on photon modes only, not h")
    if control not in PHOTON_MODES or target not in PHOTON_MODES:
        raise ValueError(f"modes must be photon modes {PHOTON_MODES}")
    if control == target:
        raise ValueError("control and target modes must differ")
    if not active.occupied:
        raise ValueError("active control occupation must be pol0 or pol1")

    control_code = _CODE_OF[control]
    target_code = _CODE_OF[target]
    flipped = np.where(target_code == 1, 2, np.where(target_code == 2, 1, 0))
    new_target = np.where(control_code == int(active), flipped, target_code)
    perm = _INDICES + (new_target - target_code) * _STRIDE[target]
    perm.setflags(write=False)
    return perm


def apply_cnot(state: PureState, control: str, target: str) -> PureState:
    """Photonic CNOT: flip target polarization iff the control holds pol1."""
    perm = controlled_flip_permutation(control, target, Occupation.POL1)
    new = np.empty(DIM, dtype=complex)
    new[perm] = state.amps
    return PureState(new)


def make_initial() -> PureState:
    """Entangled pair shared between h and t, with empty x and a pol0 marker
    photon in y: (|h=0, t=1> + |h=1, t=0>)/sqrt(2) (x) |vac>_x |0>_y."""
    amp = 1.0 / np.sqrt(2.0)
    return PureState.from_terms(
        {
            ket(0, "1", "vac", "0"): amp,
            ket(1, "0", "vac", "0"): amp,
        }
    )


# --- measurements ---------------------------------------------------------


def mode_marginal(state: PureState, mode: str) -> np.ndarray:
    """Probabilities of the three occupation outcomes of one mode.

    Entries are indexed by occupation code.  For mode ``h`` the outcome
    ``vac`` has probability 0 and ``pol0``/``pol1`` stand for h=0/h=1.
    """
    code = _OUTCOME_CODE[MODES[_mode_axis(mode)]]
    weights = np.abs(state.amps) ** 2
    return np.array([float(weights[code == occ].sum()) for occ in range(3)])


def project_mode(
    state: PureState, mode: str, outcome: Occupation
) -> tuple[float, PureState | None]:
    """Probability of ``outcome`` when measuring ``mode`` and the collapsed
    state (None when the probability is zero)."""
    mask = _OUTCOME_CODE[MODES[_mode_axis(mode)]] == int(outcome)
    prob = float((np.abs(state.amps[mask]) ** 2).sum())
    if prob <= 0.0:
        return prob, None
    return prob, PureState(np.where(mask, state.amps, 0.0) / np.sqrt(prob))


def _bell_blocks(state: PureState) -> dict[BellOutcome, np.ndarray]:
    """Projection amplitudes c(x, y) of the four (h, t) two-particle states."""
    arr = state.amps.reshape(2, 3, 3, 3)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    return {
        BellOutcome.PSI_PLUS: (arr[0, 2] + arr[1, 1]) * inv_sqrt2,
        BellOutcome.PSI_MINUS: (arr[0, 2] - arr[1, 1]) * inv_sqrt2,
        BellOutcome.PHI_PLUS: (arr[0, 1] + arr[1, 2]) * inv_sqrt2,
        BellOutcome.PHI_MINUS: (arr[0, 1] - arr[1, 2]) * inv_sqrt2,
    }


def bell_probabilities(state: PureState) -> dict[BellOutcome, float]:
    """Exact outcome probabilities of the two-particle measurement on (h, t).

    Support with an empty travel mode shows up as the no_photon outcome.
    """
    probs = {
        outcome: float(np.sum(np.abs(block) ** 2))
        for outcome, block in _bell_blocks(state).items()
    }
    arr = state.amps.reshape(2, 3, 3, 3)
    probs[BellOutcome.NO_PHOTON] = float(np.sum(np.abs(arr[:, 0]) ** 2))
    return probs


def project_bell(
    state: PureState, outcome: BellOutcome
) -> tuple[float, PureState | None]:
    """Probability of one two-particle outcome and the collapsed state."""
    arr = state.amps.reshape(2, 3, 3, 3)
    new = np.zeros_like(arr)
    if outcome is BellOutcome.NO_PHOTON:
        new[:, 0] = arr[:, 0]
        prob = float(np.sum(np.abs(new) ** 2))
    else:
        block = _bell_blocks(state)[outcome]
        prob = float(np.sum(np.abs(block) ** 2))
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        sign = -1.0 if outcome in (BellOutcome.PSI_MINUS, BellOutcome.PHI_MINUS) else 1.0
        if outcome in (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS):
            new[0, 2] = block * inv_sqrt2
            new[1, 1] = sign * block * inv_sqrt2
        else:
            new[0, 1] = block * inv_sqrt2
            new[1, 2] = sign * block * inv_sqrt2
    if prob <= 0.0:
        return prob, None
    return prob, PureState(new.reshape(DIM) / np.sqrt(prob))


def sample_from(rng: np.random.Generator, outcomes: Sequence, probs: Iterable[float]):
    """Draw one outcome from an exact finite distribution.

    Outcomes with probability exactly 0.0 are never drawn; probabilities
    must sum to 1 within floating error.
    """
    u = rng.random()
    acc = 0.0
    pairs = list(zip(outcomes, probs))
    total = 0.0
    for outcome, prob in pairs:
        if prob < 0.0:
            raise ValueError(f"negative probability {prob!r} for outcome {outcome!r}")
        total += prob
        acc += prob
        if u < acc:
            return outcome
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    for outcome, prob in reversed(pairs):
        if prob > 0.0:
            return outcome
    raise ValueError("no outcome has positive probability")

