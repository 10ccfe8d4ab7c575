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
* A polarizing router moves photons between modes by their polarization
  (``router_maps``), and marks the kets on which two photons would meet.
  ``carry`` walks basis-index terms through a word of such index maps, one
  circuit per column, and keys each circuit's first meeting from tables of
  meeting keys built with each router stage (``meeting_keys``).

States are immutable.  Every operation is a pure function returning a new
``PureState``; a state and a stack of them pass one norm check,
``require_normalized``.  The gates and the change to the two-particle
measurement basis are array kernels on amplitude stacks of shape (..., 54)
(``polarization_gate_amps``, ``cnot_amps``, ``bell_amps``), which give each
row what a lone state gets; ``apply_polarization_gate``, ``apply_cnot`` and
``bell_amplitudes`` wrap them for one ``PureState``.  ``signed_permutation``
reads a word of gates that only moves and signs basis kets as one gather and
one multiply.  ``BELL_LABEL`` names the ``BellOutcome`` of each entry of a
``bell_amps`` row, and both measurements share one collapse.
"""

from __future__ import annotations

import dataclasses
import math
from enum import Enum, IntEnum
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

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
        require_normalized(amps)
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
        return float(_norm_sq(self._amps))

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


def _norm_sq(amps: np.ndarray) -> np.ndarray:
    """|psi|^2 of every row of a (..., 54) amplitude stack, as summed squares:
    np.einsum would parse its subscripts on every call."""
    return (amps.real * amps.real + amps.imag * amps.imag).sum(axis=-1)


def require_normalized(amps: np.ndarray) -> None:
    """The norm check of every state, on each row of a (..., 54) amplitude
    stack: |psi|^2 within 1e-8 of 1.  A nan or inf amplitude fails it."""
    norm_sq = _norm_sq(amps)
    bad = ~(np.abs(norm_sq - 1.0) <= _NORM_TOL)
    if bad.any():
        raise ValueError(f"state is not normalized: |psi|^2 = {float(norm_sq[bad].flat[0])!r}")


# --- gates ---------------------------------------------------------------

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
# Module data that every caller shares, so read-only.
for _gate in (PAULI_X, PAULI_Z, HADAMARD):
    _gate.setflags(write=False)

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


def polarization_gate_amps(amps: np.ndarray, mode: str, gate: np.ndarray) -> np.ndarray:
    """Apply a 2x2 unitary to a mode's polarization on every row of a
    (..., 54) amplitude stack; vacuum is untouched.  On mode ``h`` the gate
    acts on the qubit itself.  Each row gets the (2, 2) @ (2, n) product a
    single row gets, so a row of a stack and a lone row agree bit for bit."""
    gate = _require_unitary(gate)
    pairs = _GATE_PAIRS[MODES[_mode_axis(mode)]]
    new = np.array(amps, dtype=complex)
    new[..., pairs] = gate @ new.take(pairs, axis=-1)
    return new


def apply_polarization_gate(state: PureState, mode: str, gate: np.ndarray) -> PureState:
    """``polarization_gate_amps`` on one state."""
    return PureState(polarization_gate_amps(state.amps, mode, gate))


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


@lru_cache(maxsize=None)
def router_maps(modes: tuple[str, ...], routes: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Basis-index maps of a polarizing router over the photon ``modes``
    (its slots, in order) under each route (sigma0, sigma1, flip0, flip1),
    each of shape (len(routes), DIM): the index an index's photons land on,
    and the MODES index of the mode where two of them would meet (-1 when
    they land apart).  A photon of polarization p in slot i moves to slot
    sigma_p[i], and flip_p swaps its polarization.  Photons move slot by
    slot in router order, so the meeting mode is the first slot that an
    earlier photon already took."""
    if len(set(modes)) != len(modes) or not set(modes) <= set(PHOTON_MODES):
        raise ValueError(f"a router's modes must be distinct photon modes {PHOTON_MODES}")
    sigma0, sigma1, flip0, flip1 = (np.array(column) for column in zip(*routes))
    route = np.arange(len(routes))
    landed = np.zeros((len(routes), len(modes), DIM), dtype=int)  # code routed into each slot
    meet = np.full((len(routes), DIM), -1)
    for slot, mode in enumerate(modes):
        for occ, sigma, flip in ((1, sigma0, flip0), (2, sigma1, flip1)):
            target = sigma[:, slot]
            moving = _CODE_OF[mode] == occ
            here = landed[route, target]
            meet = np.where(moving & (here != 0) & (meet < 0), target[:, None], meet)
            landed[route, target] = np.where(moving, np.where(flip, 3 - occ, occ)[:, None], here)
    image = _INDICES + sum(
        (landed[:, slot] - _CODE_OF[mode]) * _STRIDE[mode] for slot, mode in enumerate(modes)
    )
    mode_index = np.array([MODES.index(mode) for mode in modes])
    meet = np.where(meet >= 0, mode_index[meet], -1)
    image.setflags(write=False)
    meet.setflags(write=False)
    return image, meet


# A meeting-key table's entry where no two photons meet: above every key
# that ``carry`` can make.
_APART = 1 << 62


def meeting_keys(meet: np.ndarray) -> np.ndarray:
    """The meeting keys of a router's ``meet`` table, shape (..., DIM), as
    the stages of ``carry`` take them: index i * len(MODES) + mode where two
    of index i's photons meet, and a sentinel above every key where none do."""
    keys = np.where(meet >= 0, _INDICES * len(MODES) + meet, _APART)
    keys.setflags(write=False)
    return keys


def carry(terms: np.ndarray, stages: Sequence[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """Carry each row's basis-index terms, shape (rows, n, 1, ...), through
    ``(image, keys, column)`` stages, one circuit per column: entry
    ``column + i`` of a flat table is the column's landing index for basis
    index i, and its ``meeting_keys`` entry (``keys`` is None for a CNOT).
    Returns the carried terms and each column's least (row, stage, entering
    index, mode) meeting key, -1 where no two photons meet; ``meeting``
    unpacks a key."""
    step = DIM * len(MODES)
    none = len(terms) * len(stages) * step
    rows = np.arange(0, none, len(stages) * step).reshape((-1,) + (1,) * (terms.ndim - 1))
    first = none
    for stage, (image, keys, column) in enumerate(stages):
        at = column + terms
        if keys is not None:
            # A router stage is one take, one add and one min: the row and
            # stage prefix the key that the table holds for the entering index.
            first = np.minimum(first, (keys.take(at) + (rows + stage * step)).min(axis=(0, 1)))
        terms = image.take(at)
    first = np.where(first < none, first, -1)
    # Columns that a stage after the last router sets apart share its key.
    if first.shape != terms.shape[2:]:
        first = np.broadcast_to(first, terms.shape[2:])
    return terms, first


def meeting(key: int, stages: int) -> tuple[int, int, int, int]:
    """The (row, stage, index, mode) of a ``carry`` key over ``stages`` stages."""
    key, mode = divmod(key, len(MODES))
    key, index = divmod(key, DIM)
    return (*divmod(key, stages), index, mode)


def cnot_amps(amps: np.ndarray, control: str, target: str) -> np.ndarray:
    """Photonic CNOT on every row of a (..., 54) amplitude stack: flip the
    target polarization iff the control holds pol1."""
    # The gate is its own inverse, so index i's amplitude comes from perm[i].
    perm = controlled_flip_permutation(control, target, Occupation.POL1)
    return np.asarray(amps, dtype=complex).take(perm, axis=-1)


def apply_cnot(state: PureState, control: str, target: str) -> PureState:
    """``cnot_amps`` on one state."""
    return PureState(cnot_amps(state.amps, control, target))


def signed_permutation(
    kernel: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """The (source, sign) of an amplitude-stack kernel that takes every
    basis ket to one basis ket times +1 or -1, read from its images of the
    54 basis kets: ``amps.take(source, axis=-1) * sign`` is then the
    kernel's action on every row of a finite (..., 54) stack, one gather and
    one multiply in place of its gates.  The values are the kernel's; a
    zero's sign is the multiply's, which may differ from the one the
    kernel's gates leave.  Any other kernel is a ValueError."""
    images = np.asarray(kernel(np.eye(DIM, dtype=complex)))
    if images.shape != (DIM, DIM):
        raise ValueError(f"kernel images must have shape ({DIM}, {DIM}), got {images.shape}")
    source = np.abs(images).argmax(axis=0)
    sign = images[source, _INDICES]
    signed = np.zeros((DIM, DIM), dtype=complex)
    signed[source, _INDICES] = sign
    # Checked without np.unique or np.isin, whose first calls cost a process
    # about 2 MB of memory.
    if not (
        ((sign == 1.0) | (sign == -1.0)).all()
        and np.array_equal(images, signed)
        and (np.bincount(source, minlength=DIM) == 1).all()
    ):
        raise ValueError("kernel does not take every basis ket to one basis ket times +1 or -1")
    source.setflags(write=False)
    sign.setflags(write=False)
    return source, sign


# The prepared pair is fixed data: a state is immutable, so every caller
# shares the one built at import.
_INITIAL = PureState.from_terms(
    dict.fromkeys((ket(0, "1", "vac", "0"), ket(1, "0", "vac", "0")), 1.0 / np.sqrt(2.0))
)


def make_initial() -> PureState:
    """Entangled pair shared between h and t, with empty x and a pol0 marker
    photon in y: (|h=0, t=1> + |h=1, t=0>)/sqrt(2) (x) |vac>_x |0>_y."""
    return _INITIAL


# --- measurements ---------------------------------------------------------


def mode_marginal(state: PureState, mode: str) -> np.ndarray:
    """Probabilities of the three occupation outcomes of one mode.

    Entries are indexed by occupation code.  For mode ``h`` the outcome
    ``vac`` has probability 0 and ``pol0``/``pol1`` stand for h=0/h=1.
    """
    code = _OUTCOME_CODE[MODES[_mode_axis(mode)]]
    weights = np.abs(state.amps) ** 2
    return np.array([float(weights[code == occ].sum()) for occ in range(3)])


def _collapse(
    amps: np.ndarray, mask: np.ndarray, back: np.ndarray | None = None
) -> tuple[float, PureState | None]:
    """The probability of the outcome whose amplitudes ``mask`` keeps and the
    collapsed state, None at probability zero; ``back`` maps coordinates in
    another basis back to the basis kets."""
    prob = float((np.abs(amps[mask]) ** 2).sum())
    if prob <= 0.0:
        return prob, None
    kept = np.where(mask, amps, 0.0) / np.sqrt(prob)
    return prob, PureState(kept if back is None else kept @ back)


def project_mode(
    state: PureState, mode: str, outcome: Occupation
) -> tuple[float, PureState | None]:
    """Probability of ``outcome`` when measuring ``mode`` and the collapsed
    state (None when the probability is zero)."""
    return _collapse(state.amps, _OUTCOME_CODE[MODES[_mode_axis(mode)]] == int(outcome))


# The BellOutcome position of each entry of a bell_amps row: nine c(x, y)
# for each two-particle state, then eighteen c(h, x, y) for no_photon.
BELL_LABEL = np.repeat(np.arange(len(BellOutcome)), [9, 9, 9, 9, 18])
BELL_LABEL.setflags(write=False)


def bell_amps(amps: np.ndarray) -> np.ndarray:
    """Every row of a (..., 54) amplitude stack in the basis of the
    two-particle measurement on (h, t): the c(x, y) of psi_plus, psi_minus,
    phi_plus and phi_minus, then the c(h, x, y) of the kets with an empty
    travel mode for no_photon, each block flattened with y last, in the
    order of ``BellOutcome``, as ``BELL_LABEL`` labels them."""
    amps = np.asarray(amps)
    rows = amps.shape[:-1]
    arr = amps.reshape(*rows, 2, 3, 9)
    out = np.empty((*rows, 6, 9), dtype=complex)
    # (h=0, t=1), (h=0, t=0) against (h=1, t=0), (h=1, t=1): their sums are
    # psi_plus and phi_plus, their differences psi_minus and phi_minus.
    first, second = arr[..., 0, 2:0:-1, :], arr[..., 1, 1:, :]
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    out[..., 0:4:2, :] = (first + second) * inv_sqrt2
    out[..., 1:4:2, :] = (first - second) * inv_sqrt2
    out[..., 4:, :] = arr[..., :, 0, :]
    return out.reshape(*rows, DIM)


def bell_amplitudes(state: PureState) -> dict[BellOutcome, np.ndarray]:
    """Amplitudes of each outcome of the two-particle measurement on (h, t),
    the blocks of ``bell_amps``: c(x, y) of the four (h, t) two-particle
    states, and c(h, x, y) of the kets with an empty travel mode for
    no_photon."""
    blocks = np.split(bell_amps(state.amps), np.flatnonzero(np.diff(BELL_LABEL)) + 1)
    shapes = [(3, 3)] * 4 + [(2, 3, 3)]
    return {
        outcome: block.reshape(shape) for outcome, block, shape in zip(BellOutcome, blocks, shapes)
    }


def bell_probabilities(state: PureState) -> dict[BellOutcome, float]:
    """Outcome probabilities of the two-particle measurement on (h, t).

    Support with an empty travel mode shows up as the no_photon outcome.
    """
    return {
        outcome: float(np.sum(np.abs(block) ** 2))
        for outcome, block in bell_amplitudes(state).items()
    }


def exact_probabilities(amps: np.ndarray, outcome: np.ndarray, size: int) -> np.ndarray:
    """Exact probability of each outcome label 0 .. size - 1 for every row
    of an (..., n) amplitude stack, shape (..., size), where ``outcome``
    labels each of a row's n amplitudes: every amplitude is snapped to the
    lattice n / sqrt(2)**k (integer n, k <= 4), and a label sums the exact
    dyadic floats n**2 * 2**-k of its amplitudes.  An amplitude more than
    1e-12 off the lattice (a nan, or off the real axis) is a ValueError.
    The rows share one pass: row r's labels are offset by r * size."""
    rows = np.shape(amps)[:-1]
    count = math.prod(rows)
    labels = np.ravel(outcome) + size * np.arange(count)[:, None]
    amps = np.ravel(amps)
    # n / sqrt(2)**k is n4 / sqrt(2)**4 for even k and n3 / sqrt(2)**3 for
    # odd k, with integers n4 and n3.
    root8 = np.sqrt(8)
    n4 = np.rint(4 * amps.real)
    n3 = np.rint(root8 * amps.real)
    on4 = np.abs(amps - n4 / 4) <= 1e-12
    if not (on4 | (np.abs(amps - n3 / root8) <= 1e-12)).all():
        raise ValueError("amplitudes are not within 1e-12 of n / sqrt(2)**k, k <= 4")
    squares = np.where(on4, np.ldexp(n4 * n4, -4), np.ldexp(n3 * n3, -3))
    return np.bincount(labels.ravel(), squares, minlength=count * size).reshape(*rows, size)


# Row i of bell_amps' image of the identity holds basis ket i's coordinates;
# the matrix is real orthogonal, so its transpose maps coordinates back.
_FROM_BELL = bell_amps(np.eye(DIM)).real.T
_FROM_BELL.setflags(write=False)


def project_bell(
    state: PureState, outcome: BellOutcome
) -> tuple[float, PureState | None]:
    """Probability of one two-particle outcome and the collapsed state."""
    mask = BELL_LABEL == list(BellOutcome).index(outcome)
    return _collapse(bell_amps(state.amps), mask, _FROM_BELL)


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

