"""Travel-photon attacks: exact unitary action, symmetrization, and profiles.

The eavesdropper intercepts the travel photon on its way to the sender
(outbound leg), entangles it with her ancilla modes x and y, and undoes the
operation on the way back (inbound leg), optionally followed by a
symmetrization step.  Both legs are defined exactly on a four-dimensional
subspace:

domain kets (h, t, x, y):

    f1 = |0, 1, vac, 0>      f2 = |1, 0, vac, 0>
    f3 = |0, 1, vac, 1>      f4 = |1, 0, vac, 1>

Two attacks are defined, each by its outbound circuit, in the order
applied: the paper's improved attack, and Wojcik's reference attack (PRL
90, 157901 (2003)), whose Q_txy = SWAP_tx CPBS_txy H_y is read here with
CPBS_txy = CNOT_tx PBS_xy:

    improved:  H_y -> PBS_xy -> CNOT_tx -> CNOT_ty -> PBS_tx
    wojcik:    H_y -> PBS_xy -> CNOT_tx -> SWAP_tx

H_y, the split, is a Hadamard on y's polarization; a PBS (polarizing beam
splitter) is the engine's router over (t, x, y) that swaps the pol1 photons
of its two modes and keeps pol0 photons in place; SWAP_tx is the router
that swaps t and x whatever the polarization; and each CNOT flips its
target's polarization when t holds pol0.  After the split every gate moves
basis kets, so the images are the split terms carried through the gates'
index maps by ``engine.carry``, once per attack at import, and no term puts
two photons in one mode.  With

    B1 = |0, vac, 1, 0>      B2 = |0, 1, 1, vac>
    B3 = |1, 0, vac, 1>      B4 = |1, 0, 0, vac>      R3 = |1, vac, 0, 0>

the improved attack maps

    f1 -> (B1 + B2)/sqrt(2)      f2 -> (B3 + B4)/sqrt(2)
    f3 -> (B1 - B2)/sqrt(2)      f4 -> (B3 - B4)/sqrt(2)

and the reference attack is the same with R3 in place of B3, so half the
weight of each of its images has t = vac, where the improved attack's
images of f2 and f4 have none.  The inbound leg is the adjoint on the
image span.  Each image ket keeps two travel photons, so photon number is
conserved.  The improved circuit lies outside the census template of
``conventions``: its CNOTs act on (t, x) and then (t, y), the template's
on (t, y) and then (x, y).

Both legs are array kernels on amplitude rows of shape (..., 54),
``outbound_amps`` and ``inbound_amps``, so a stack of states takes one
pass; ``attack_ba`` and ``attack_ab`` wrap them for one ``PureState``.
Every leg takes the attack by name, the improved one by default.  A row
with support outside the leg's span raises SubspaceLeakageError, which
names every leaking ket of the stack.

The symmetrization S = X_t Z_t N_ty X_t (rightmost first) makes the
attack's outcome statistics symmetric under swapping the message-bit value.
Its gates, like the sender's phase encoding Z_t, only move and sign basis
kets, so each is applied as one signed gather (``symmetrization_amps``),
read at import from the engine's gate kernels by
``engine.signed_permutation``: the values are the gates', and a zero's sign
may differ from the one the gates leave.

The message layer is one round, the same for the plain channel and both
attacks.  ``message_amps`` runs it for both bits at once and returns a
(2, 2, 54) stack indexed [s, j]: the prepared pair, the outbound leg when
there is an attack, Z_t^j as one signed gather, the inbound leg when there
is an attack, then S as one signed gather on the returned rows (s = 0),
which gives their S images (s = 1).  ``message_outcome_stack`` tabulates
every row of a stack in one ``engine.exact_probabilities`` call, and
``message_outcome_tables`` reads the conditional tables of a (..., 2, 2,
54) stack of message states off it, refusing mass outside them.  So
``exact_outcome_tables`` is ``message_outcome_tables`` of one
``message_amps`` stack, and ``verify`` tabulates every state it audits,
both attacks' stacks and its pinned rows, in one call.

The control and message outcome tables are tabulated exactly from the
branch states, and each attack's profile from its own: its loss from its
attacked control table's lost-photon entries (``LOST_ENTRIES``), its
information values from its message tables.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import numpy as np

from .engine import (
    DIM,
    HADAMARD,
    PHOTON_MODES,
    BasisKet,
    Occupation,
    PAULI_X,
    PAULI_Z,
    PureState,
    bell_amps,
    carry,
    cnot_amps,
    controlled_flip_permutation,
    exact_probabilities,
    ket,
    make_initial,
    meeting_keys,
    polarization_gate_amps,
    router_maps,
    signed_permutation,
)

F_KETS: tuple[BasisKet, ...] = (
    ket(0, "1", "vac", "0"),
    ket(1, "0", "vac", "0"),
    ket(0, "1", "vac", "1"),
    ket(1, "0", "vac", "1"),
)

_F_INDICES = np.array([k.index for k in F_KETS])

# The circuits' routers, as routes over PHOTON_MODES: a PBS keeps pol0
# photons in place and swaps the pol1 photons of x and y, or of t and x;
# SWAP_tx swaps t and x for both polarizations.
_ROUTES = {
    "PBS_xy": ((0, 1, 2), (0, 2, 1), False, False),
    "PBS_tx": ((0, 1, 2), (1, 0, 2), False, False),
    "SWAP_tx": ((1, 0, 2), (1, 0, 2), False, False),
}
# Each attack's gates after the shared split H_y, in the order applied.
_CIRCUITS = {
    "improved": ("PBS_xy", "CNOT_tx", "CNOT_ty", "PBS_tx"),
    "wojcik": ("PBS_xy", "CNOT_tx", "SWAP_tx"),
}
ATTACKS = tuple(_CIRCUITS)


# (4, 54) read-only rows of f1..f4 after the split H_y, the circuits' only
# gate that makes more than one term.
SPLIT_ROWS = polarization_gate_amps(np.eye(DIM)[_F_INDICES], "y", HADAMARD)
SPLIT_ROWS.setflags(write=False)


# Each gate's basis-index map, with the meeting keys of a router.
_GATES = {
    gate: (image, meeting_keys(meet))
    for gate, image, meet in zip(_ROUTES, *router_maps(PHOTON_MODES, tuple(_ROUTES.values())))
}
for _mode in "xy":
    _GATES[f"CNOT_t{_mode}"] = (controlled_flip_permutation("t", _mode, Occupation.POL0), None)


def _trace(attack: str) -> np.ndarray:
    """(4, 54) read-only array whose rows are the named attack's outbound
    images of f1..f4: each split term carried through its circuit's index
    maps by ``engine.carry``."""
    rows, at = np.nonzero(SPLIT_ROWS)
    stages = [(*_GATES[gate], 0) for gate in _CIRCUITS[attack]]
    landed, first = carry(at[None, :], stages)
    if first >= 0:
        raise AssertionError(f"the {attack} circuit puts two photons in one mode")
    images = np.zeros((len(F_KETS), DIM), dtype=complex)
    np.add.at(images, (rows, landed[0]), SPLIT_ROWS[rows, at])
    images.setflags(write=False)
    return images


# The images both legs read, by attack, when called, so they can be replaced.
_IMAGES = {attack: _trace(attack) for attack in ATTACKS}
_OUTSIDE_F = ~np.isin(np.arange(DIM), _F_INDICES)


def forward_images(attack: str = "improved") -> np.ndarray:
    """The named attack's outbound images of f1..f4, the (4, 54) rows both
    legs read; every attack name they are given is looked up here, so an
    unknown one is a ValueError."""
    if attack not in _IMAGES:
        raise ValueError(f"unknown attack {attack!r}, expected one of {ATTACKS}")
    return _IMAGES[attack]


class SubspaceLeakageError(ValueError):
    """State has support outside the attack's domain or image span."""

    def __init__(self, direction: str, offending: list[BasisKet]):
        self.offending = offending
        labels = ", ".join(k.label() for k in offending)
        super().__init__(
            f"{direction} attack undefined: support outside its subspace on [{labels}]"
        )


def _check_leakage(direction: str, residual: np.ndarray) -> None:
    """Raise SubspaceLeakageError naming, in index order, each ket on which
    any row of the (..., 54) residual exceeds 1e-12 or is nan."""
    magnitude = np.abs(residual)
    # "not <=", so that a nan amplitude leaks too.
    if not magnitude.max() <= 1e-12:
        leaking = ~(magnitude <= 1e-12).reshape(-1, DIM).all(axis=0)
        offending = [BasisKet.from_index(int(i)) for i in np.flatnonzero(leaking)]
        raise SubspaceLeakageError(direction, offending)


# Both legs give each row of a stack a product of its own, the one a single
# state gets, so a row of a stack and a lone state come out bit for bit
# equal; one (n, 4) @ (4, 54) product over the stack differs in the sign of
# some zeros.


def _rows_times(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """rows (..., n) times matrix (n, m), one vector-matrix product per row."""
    return (rows[..., None, :] @ matrix)[..., 0, :]


def outbound_amps(amps: np.ndarray, attack: str = "improved") -> np.ndarray:
    """Outbound leg of the named attack on amplitude rows of shape (..., 54);
    the rows must lie in span{f1..f4}, or SubspaceLeakageError names the
    offending kets."""
    _check_leakage("outbound", np.where(_OUTSIDE_F, amps, 0.0))
    return _rows_times(amps[..., _F_INDICES], forward_images(attack))


def inbound_amps(amps: np.ndarray, attack: str = "improved") -> np.ndarray:
    """Inbound leg of the named attack on amplitude rows of shape (..., 54):
    the adjoint of its outbound leg, defined on the span of its images."""
    images = forward_images(attack)
    coeffs = (images.conj() @ amps[..., None])[..., 0]
    _check_leakage("inbound", amps - _rows_times(coeffs, images))
    restored = np.zeros(amps.shape, dtype=complex)
    restored[..., _F_INDICES] = coeffs
    return restored


def attack_ba(state: PureState, attack: str = "improved") -> PureState:
    """Outbound leg: apply the named attack's unitary on the receiver->sender
    trip.

    Defined only for states supported on span{f1..f4}; anything else raises
    SubspaceLeakageError naming the offending kets.
    """
    return PureState(outbound_amps(state.amps, attack))


def attack_ab(state: PureState, apply_s: bool = False, attack: str = "improved") -> PureState:
    """Inbound leg: undo the named attack's outbound unitary (adjoint on its
    image span), then optionally apply the symmetrization S.

    Defined only for states supported on span of the outbound images.
    """
    restored = inbound_amps(state.amps, attack)
    return PureState(symmetrization_amps(restored) if apply_s else restored)


def _symmetrization_gates(amps: np.ndarray) -> np.ndarray:
    """S = X_t Z_t N_ty X_t, applied rightmost first as the engine's gate
    kernels."""
    amps = polarization_gate_amps(amps, "t", PAULI_X)
    amps = cnot_amps(amps, "t", "y")
    amps = polarization_gate_amps(amps, "t", PAULI_Z)
    return polarization_gate_amps(amps, "t", PAULI_X)


def _phase_gate(amps: np.ndarray) -> np.ndarray:
    """The sender's phase encoding Z_t as the engine's gate kernel."""
    return polarization_gate_amps(amps, "t", PAULI_Z)


# S and Z_t move and sign basis kets, so each is a signed gather, read once
# from the gate kernels above.
_S = signed_permutation(_symmetrization_gates)
_Z_T = signed_permutation(_phase_gate)


def _signed(amps: np.ndarray, gather: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    source, sign = gather
    return np.take(amps, source, axis=-1) * sign


def symmetrization_amps(amps: np.ndarray) -> np.ndarray:
    """S = X_t Z_t N_ty X_t on every row of a (..., 54) amplitude stack, as
    one signed gather with the values of its gates applied rightmost first."""
    return _signed(amps, _S)


def message_amps(attack: str | None = "improved") -> np.ndarray:
    """(2, 2, 54) stack of the states reaching Eve's register and the
    receiver, row [s, j] for message bit j: the returned rows (s = 0) and
    their S images (s = 1).

    Runs the message-mode round on the channel under the named attack (the
    plain channel when ``attack`` is None), both bits at once: the outbound
    leg on the prepared pair, the sender's phase encoding Z_t^j on the
    stack, the inbound leg, then S on the returned rows.
    """
    amps = make_initial().amps
    if attack is not None:
        amps = outbound_amps(amps, attack)
    amps = np.array([amps, _signed(amps, _Z_T)])
    if attack is not None:
        amps = inbound_amps(amps, attack)
    return np.array([amps, symmetrization_amps(amps)])


# Label of each amplitude of a message state's bell_amps row (nine amplitudes
# per BellOutcome, eighteen for no_photon; y is the last axis of every
# block): 5 * (code of y) + (the two-particle outcome).
_MESSAGE_LABEL = np.repeat(np.arange(5), [9, 9, 9, 9, 18]) + 5 * (np.arange(DIM) % 3)
# The (t outcome, h bit) of each entry of control_outcomes, and the entry of
# each basis ket: 2 * (code of t) + (bit of h).
CONTROL_T_H = tuple((t, h) for t in Occupation for h in (0, 1))
# The entries of CONTROL_T_H where the travel photon is lost (t = vac), and
# where a surviving photon's bit equals h's, which breaks the pair's
# anticorrelation: a detection.
LOST_ENTRIES = tuple(i for i, (t, h) in enumerate(CONTROL_T_H) if t is Occupation.VAC)
EQUAL_ENTRIES = tuple(map(CONTROL_T_H.index, ((Occupation.POL0, 0), (Occupation.POL1, 1))))
_CONTROL_LABEL = np.array([2 * k.t + k.h for k in map(BasisKet.from_index, range(DIM))])


def message_outcome_stack(amps: np.ndarray) -> np.ndarray:
    """Exact joint probabilities, shape (..., 3, 5), of the register y's
    occupation code (rows vac, pol0, pol1) and the receiver's two-particle
    outcome (columns in BellOutcome order) for every message-round state of
    a (..., 54) amplitude stack, tabulated in one pass."""
    outcomes = exact_probabilities(bell_amps(amps), _MESSAGE_LABEL, 15)
    return outcomes.reshape(*outcomes.shape[:-1], 3, 5)


@lru_cache(maxsize=None)
def control_outcomes(attack: str | None) -> tuple[float, ...]:
    """Exact P(t outcome, h bit) of a control round on the prepared pair,
    after the named attack's outbound leg (none when ``attack`` is None), in
    the order of ``CONTROL_T_H``: (vac, 0), (vac, 1), (pol0, 0), ...,
    (pol1, 1)."""
    state = make_initial() if attack is None else attack_ba(make_initial(), attack)
    return tuple(exact_probabilities(state.amps, _CONTROL_LABEL, 6).tolist())


def message_outcome_tables(messages: np.ndarray) -> np.ndarray:
    """Exact conditional tables P(k, m | j) of a (..., 2, 2, 54) stack of
    message states with rows indexed (s, j), shape (..., 2, 2, 2, 2) indexed
    by (s, j, k, m): k is Eve's register bit (y polarization) and m the
    receiver's two-particle outcome mapped psi_plus -> 0, psi_minus -> 1.

    All other outcomes (empty register, phi-type or no-photon results) must
    carry zero probability; any mass there, in any row of the stack, is a
    ValueError.  The whole stack is one ``message_outcome_stack`` call.
    """
    outcomes = message_outcome_stack(messages)
    tables = outcomes[..., 1:, :2].copy()
    outcomes[..., 1:, :2] = 0.0
    if outcomes.any():
        raise ValueError(f"unexpected outcome mass {outcomes.sum()!r} outside the table")
    return tables


def exact_outcome_tables(attack: str = "improved") -> np.ndarray:
    """Exact conditional tables P(k, m | j) of both variants from the named
    attack's states, shape (2, 2, 2, 2) indexed by (s, j, k, m), s = 1 with
    the symmetrization: ``message_outcome_tables`` of its ``message_amps``.

    All other outcomes carry zero probability for these states; this is
    verified, not assumed.
    """
    return message_outcome_tables(message_amps(attack))


def exact_outcome_table(apply_s: bool, attack: str = "improved") -> np.ndarray:
    """One variant of ``exact_outcome_tables``: the (2, 2, 2) table P(k, m | j)
    indexed by (j, k, m), with the symmetrization when ``apply_s``."""
    return exact_outcome_tables(attack)[int(apply_s)]


# --- profiles ---------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class AttackProfile:
    """Summary statistics of one attack scheme on a fully attacked channel.

    loss is the control-mode no-photon probability induced per attacked
    round.  The information values are per attacked message bit at balanced
    prior: i_ae for the eavesdropper (who keeps her symmetrization record),
    i_ab for the receiver under the symmetrization mixture, i_be between
    receiver and eavesdropper.
    """

    name: str
    loss: float
    i_ae: float
    i_ab: float
    i_be: float

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def _information_values(attack: str) -> tuple[float, float, float]:
    """(i_ae, i_ab, i_be) per attacked message bit at balanced prior, from
    the information layer's exact joint distributions of the named attack."""
    # Imported here: information imports this module, so a module-level
    # import would be circular.
    from .information import exact_joint, mixture_ae_conditioned, mutual_information

    return (
        mixture_ae_conditioned(0.5, attack),
        mutual_information(exact_joint("fair-mixture", 0.5, attack), "AB"),
        mutual_information(exact_joint("plain", 0.5, attack), "BE"),
    )


@lru_cache(maxsize=None)
def attack_profile(attack: str) -> AttackProfile:
    """The named attack's profile, from its own states: the loss is
    P(t = vac) of its attacked control table, the information values those
    of its own message tables."""
    control = control_outcomes(attack)
    loss = sum(control[i] for i in LOST_ENTRIES)
    return AttackProfile(attack, loss, *_information_values(attack))


def improved_profile() -> AttackProfile:
    """Attack implemented here: quarter loss, same information values as the
    half-loss reference attack."""
    return attack_profile("improved")


def wojcik_profile() -> AttackProfile:
    """Wojcik's reference attack, derived from its own circuit: half loss."""
    return attack_profile("wojcik")
