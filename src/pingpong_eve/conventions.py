"""Exhaustive search over gate-semantics conventions for the outbound unitary.

The outbound attack circuit is described structurally as five stages applied
to the travel photon and the two ancilla modes, rightmost first:

    split     -- Hadamard on the y polarization
    route_txy -- polarizing router over modes (t, x, y)
    cnot_ty   -- polarization-controlled flip over modes (t, y)
    route_ytx -- polarizing router over modes (y, t, x)
    cnot_xy   -- polarization-controlled flip over modes (x, y)

A polarizing router sends every photon through a mode permutation selected
by the photon's polarization ("transmit one polarization, reflect the
other"), but the exact permutation pair, optional polarization flips, and
the CNOT control/activation conventions are underdetermined.  This module
enumerates a finite family of 576 candidate semantics, composes the circuit
for each, and reports which candidates reproduce the pinned truth-table
images.

The stages are the engine's own gates: the split is its Hadamard, each CNOT
its index permutation, and each router a basis-index map over its decode
tables.  Terms that a router sends onto the same ket add their amplitudes,
which is how some candidates end with images of the wrong norm (mismatch).
A candidate is invalid when a router would put two photons into one mode
within a single basis term; the state space here is strictly
single-occupancy, so its first such collision is reported instead.

solve() composes the whole census in one batched pass: every candidate's
split terms are gathered through flat integer tables of all 144 router and
4 CNOT conventions.  An image holds at most two terms per row, so a
candidate that completes is scored on those terms and the references'
support alone, never as a dense image.  compose_candidate is the
single-candidate replay of the same circuit, and the tests hold solve()
equal to it on every candidate.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import operator
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from . import engine
from .attacks import F_KETS, forward_images
from .engine import DIM, BasisKet, Occupation

PERMUTATIONS = tuple(itertools.permutations((0, 1, 2)))
CONTROL_POSITIONS = ("first-index", "second-index")
ACTIVATIONS = ("pol1", "pol0")

ROUTE_TXY_MODES = ("t", "x", "y")
ROUTE_YTX_MODES = ("y", "t", "x")
CNOT_TY_MODES = ("t", "y")
CNOT_XY_MODES = ("x", "y")

STATUS_MATCH = "match"
STATUS_MISMATCH = "mismatch"
STATUS_INVALID = "invalid-double-occupancy"

_SLOT_LETTERS = "abc"


def perm_label(perm: tuple[int, int, int]) -> str:
    """Slot letters in routing order: "abc" is identity, "cba" swaps a and c."""
    return "".join(_SLOT_LETTERS[i] for i in perm)


@dataclasses.dataclass(frozen=True)
class Convention:
    """One candidate gate semantics.

    sigma0 / sigma1 route photons of polarization 0 / 1: a photon sitting in
    router slot i moves to slot sigma[i].  flip0 / flip1 flip the routed
    photon's polarization afterwards.  control_position picks which of a
    CNOT's two listed modes carries the control photon and active_on picks
    the control polarization that triggers the target flip.
    """

    sigma0: tuple[int, int, int]
    sigma1: tuple[int, int, int]
    flip0: bool
    flip1: bool
    control_position: str
    active_on: str


# Router conventions (sigma0, sigma1, flip0, flip1) and CNOT conventions
# (control_position, active_on), each in enumeration order.
_ROUTES = tuple(itertools.product(PERMUTATIONS, PERMUTATIONS, (False, True), (False, True)))
_CNOTS = tuple(itertools.product(CONTROL_POSITIONS, ACTIVATIONS))


@lru_cache(maxsize=None)
def enumerate_conventions() -> tuple[Convention, ...]:
    """All 576 candidates, defaults first, in a fixed documented order:
    candidate ``route * 4 + cnot`` pairs _ROUTES[route] with _CNOTS[cnot]."""
    return tuple(Convention(*route, *cnot) for route in _ROUTES for cnot in _CNOTS)


@dataclasses.dataclass(frozen=True)
class Collision:
    """First double occupancy seen while composing a candidate."""

    stage: str
    input_term: str
    mode: str


@lru_cache(maxsize=None)
def _split_rows() -> tuple[tuple[tuple[int, complex], ...], ...]:
    """(index, amplitude) terms of each reference input after the split
    stage, which no candidate changes."""
    rows = []
    for ket in F_KETS:
        state = engine.PureState(np.eye(DIM)[ket.index])
        split = engine.apply_polarization_gate(state, "y", engine.HADAMARD).amps
        rows.append(tuple((int(i), complex(split[i])) for i in np.flatnonzero(split)))
    return tuple(rows)


@lru_cache(maxsize=None)
def _router_tables(modes: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Basis-index maps of one router stage under every route in _ROUTES,
    each of shape (144, DIM): the index an index's photons land on, and the
    engine.MODES index of the mode where two of them would meet (-1 when
    they land apart).  Photons move slot by slot in router order, so the
    meeting mode is the first slot that an earlier photon already took.  A
    flip swaps the occupation codes 1 (pol0) and 2 (pol1)."""
    sigma0, sigma1, flip0, flip1 = (np.array(column) for column in zip(*_ROUTES))
    routes = np.arange(len(_ROUTES))
    landed = np.zeros((len(_ROUTES), len(modes), DIM), dtype=int)  # code routed into each slot
    meet = np.full((len(_ROUTES), DIM), -1)
    for slot, mode in enumerate(modes):
        for occ, sigma, flip in ((1, sigma0, flip0), (2, sigma1, flip1)):
            target = sigma[:, slot]
            moving = engine._CODE_OF[mode] == occ
            here = landed[routes, target]
            meet = np.where(moving & (here != 0) & (meet < 0), target[:, None], meet)
            landed[routes, target] = np.where(moving, np.where(flip, 3 - occ, occ)[:, None], here)
    image = engine._INDICES + sum(
        (landed[:, slot] - engine._CODE_OF[mode]) * engine._STRIDE[mode]
        for slot, mode in enumerate(modes)
    )
    mode_index = np.array([engine.MODES.index(mode) for mode in modes])
    return image, np.where(meet >= 0, mode_index[meet], -1)


@lru_cache(maxsize=None)
def _router_map(modes: tuple[str, ...], route: tuple) -> tuple[tuple, tuple]:
    """One route's row of _router_tables, route = (sigma0, sigma1, flip0,
    flip1): the landing index and meeting mode name (None when the photons
    land apart) of every index."""
    image, meet = (table[_ROUTES.index(route)].tolist() for table in _router_tables(modes))
    return tuple(image), tuple(engine.MODES[m] if m >= 0 else None for m in meet)


@lru_cache(maxsize=None)
def _cnot_map(modes: tuple[str, str], control_position: str, active_on: str) -> tuple:
    """The engine's CNOT index permutation under one candidate's convention."""
    control, target = modes if control_position == "first-index" else modes[::-1]
    active = Occupation.POL1 if active_on == "pol1" else Occupation.POL0
    return tuple(engine.controlled_flip_permutation(control, target, active).tolist())


@dataclasses.dataclass(frozen=True)
class CompositionResult:
    """Images of the four reference inputs, or the collision that stopped
    composition."""

    images: np.ndarray | None
    collision: Collision | None


def compose_candidate(conv: Convention) -> CompositionResult:
    """Apply the five stages to each reference input under one candidate.

    Terms routed onto the same ket add their amplitudes.  The first term, in
    row, stage and index order, that would put two photons in one mode stops
    the composition with a collision.
    """
    route = (conv.sigma0, conv.sigma1, conv.flip0, conv.flip1)
    cnot = (conv.control_position, conv.active_on)
    stages = (
        ("route_txy", *_router_map(ROUTE_TXY_MODES, route)),
        ("cnot_ty", _cnot_map(CNOT_TY_MODES, *cnot), None),
        ("route_ytx", *_router_map(ROUTE_YTX_MODES, route)),
        ("cnot_xy", _cnot_map(CNOT_XY_MODES, *cnot), None),
    )
    images = np.zeros((len(F_KETS), DIM), dtype=complex)
    for row, terms in enumerate(_split_rows()):
        for stage, image_of, meet_at in stages:
            routed: dict[int, complex] = {}
            for index, amp in terms:
                if meet_at and meet_at[index]:
                    label = BasisKet.from_index(index).label()
                    return CompositionResult(None, Collision(stage, label, meet_at[index]))
                routed[image_of[index]] = routed.get(image_of[index], 0.0) + amp
            terms = sorted(routed.items())
        for index, amp in terms:
            images[row, index] = amp
    images.setflags(write=False)
    return CompositionResult(images=images, collision=None)


def deviation_from_reference(images: np.ndarray, references: np.ndarray) -> float:
    """Largest amplitude difference after removing the best common phase.

    The phase is fit once across all four image vectors (stacked overlap),
    so four individually-phased lookalikes do not pass as a match.  Images
    orthogonal to the references have no best phase: the phase is then 1
    and the deviation is max|images - references|, which a global phase on
    the references moves.  In the census 85 of the 216 complete candidates
    are orthogonal; under such a phase 37 of them move between 1 and
    sqrt(2), and none comes near a match.
    """
    overlap = complex(np.vdot(references, images))
    phase = overlap / abs(overlap) if abs(overlap) > 0.0 else 1.0
    return float(np.max(np.abs(images - phase * references)))


MATCH_TOL = 1e-10


class CandidateReport(NamedTuple):
    candidate_id: int
    convention: Convention
    status: str
    deviation: float | None
    collision: Collision | None


_status_of = operator.itemgetter(CandidateReport._fields.index("status"))


# The candidate-dependent stages in circuit order; the routers are those
# with a meeting-mode table.
_STAGES = (
    ("route_txy", ROUTE_TXY_MODES),
    ("cnot_ty", CNOT_TY_MODES),
    ("route_ytx", ROUTE_YTX_MODES),
    ("cnot_xy", CNOT_XY_MODES),
)


@lru_cache(maxsize=None)
def _batch_tables() -> tuple:
    """Every candidate's stages as raveled integer tables, built on first use.

    Per stage an (image, meet) pair, flat so that entry c * DIM + index is
    convention c's value at a basis index: for a router, the landing index
    and meeting mode (engine.MODES index, -1 for none) under each route in
    _ROUTES; for a CNOT, the index permutation under each CNOT convention in
    _CNOTS, and None.  Then the split rows' term indices and amplitudes,
    shape (4, 2)."""
    stages = []
    for name, modes in _STAGES:
        if name.startswith("route"):
            stages.append(tuple(table.ravel() for table in _router_tables(modes)))
        else:
            stages.append((np.array([_cnot_map(modes, *cnot) for cnot in _CNOTS]).ravel(), None))
    rows = _split_rows()
    # The solver routes each row's two terms apart and adds them only where
    # they end on one ket; a sum of two is the same in either order, so the
    # images equal compose_candidate's bit for bit.
    if any(len(terms) != 2 for terms in rows):
        raise AssertionError("the batched solver expects two terms per split row")
    index = np.array([[i for i, _ in terms] for terms in rows])
    amps = np.array([[a for _, a in terms] for terms in rows])
    return tuple(stages), index, amps


@lru_cache(maxsize=None)
def _collision(key: int) -> Collision:
    """Decode a packed (row, stage, index, mode) collision key."""
    key, mode = divmod(key, len(engine.MODES))
    key, index = divmod(key, DIM)
    stage = key % len(_STAGES)
    return Collision(_STAGES[stage][0], BasisKet.from_index(index).label(), engine.MODES[mode])


def _deviations(terms: np.ndarray, amps: np.ndarray, references: np.ndarray) -> list[float]:
    """deviation_from_reference of each image in a stack: image i puts the
    split amplitudes amps, shape (4, 2), on the basis indices terms[:, i],
    where terms has shape (8, n), row r's two terms on lines 2r and 2r + 1.

    An image is nonzero only on its terms and the references only on their
    support, and every other entry is 0 on both sides, so the overlap and
    the deviation are read off those entries alone."""
    n = terms.shape[1]
    support_row, support_col = np.nonzero(references)
    support = references[support_row, support_col]
    # The entries read, one per line: each term's, then each support entry's.
    row = np.concatenate((np.arange(len(terms)) // 2, support_row))
    col = np.concatenate((terms, np.broadcast_to(support_col[:, None], (len(support), n))))
    # A row's image on an entry that none, the first, the second or both of
    # its terms land on; two terms on one ket add as in compose_candidate.
    table = np.column_stack((np.zeros(len(amps)), amps, (0.0 + amps[:, 0]) + amps[:, 1]))
    code = (terms[2 * row] == col) + 2 * (terms[2 * row + 1] == col)
    image = table.take((4 * row)[:, None] + code)
    reference = references.take((references.shape[1] * row)[:, None] + col)
    # One contiguous row per candidate, which numpy sums pairwise; summed
    # down the columns instead, some overlaps at complex phases come out a
    # bit off deviation_from_reference's.
    products = np.ascontiguousarray((support.conj()[:, None] * image[len(terms) :]).T)
    overlap = products.sum(axis=1)
    norm = np.abs(overlap)
    phase = np.ones_like(overlap)
    # part by part, as Python divides a complex by a float
    np.divide(overlap.real, norm, out=phase.real, where=norm > 0.0)
    np.divide(overlap.imag, norm, out=phase.imag, where=norm > 0.0)
    return np.abs(image - phase * reference).max(axis=0).tolist()


def solve() -> list[CandidateReport]:
    """Classify every candidate against the truth-table images.

    All 576 candidates are composed at once by gathering their split terms
    through each stage's table; compose_candidate replays one of them.
    """
    stages, index, amps = _batch_tables()
    conventions = enumerate_conventions()
    # Terms run down the lines, candidates across the columns.  The first
    # router sees the same split terms under every candidate, so it runs
    # once per route; candidate route * 4 + cnot then takes its route's
    # column.
    route = np.arange(len(_ROUTES)) * DIM
    cnot = np.tile(np.arange(len(_CNOTS)) * DIM, len(_ROUTES))
    rows = (np.arange(index.size) // index.shape[1])[:, None]
    terms = index.reshape(-1, 1)

    # The first collision in row, stage, term-index order is the least
    # packed (row, stage, index, mode) key over the terms that meet.  Terms
    # that compose_candidate would have merged share their index, and so
    # their key.
    no_collision = index.shape[0] * len(_STAGES) * DIM * len(engine.MODES)
    first = no_collision
    for stage, (image, meet) in enumerate(stages):
        if meet is None:  # a CNOT
            terms = image.take(cnot + terms)
            continue
        at = route + terms
        mode = meet.take(at)
        key = ((rows * len(_STAGES) + stage) * DIM + terms) * len(engine.MODES) + mode
        first = np.minimum(first, np.where(mode >= 0, key, no_collision).min(axis=0))
        terms = image.take(at)
        if stage == 0:
            route, terms, first = (a.repeat(len(_CNOTS), axis=-1) for a in (route, terms, first))

    found = iter(_deviations(terms[:, first == no_collision], amps, forward_images()))
    keys = first.tolist()
    deviations = [next(found) if key == no_collision else None for key in keys]
    statuses = [
        STATUS_INVALID if dev is None else STATUS_MATCH if dev <= MATCH_TOL else STATUS_MISMATCH
        for dev in deviations
    ]
    collisions = [None if key == no_collision else _collision(key) for key in keys]
    # tuple.__new__ builds each report from its fields as CandidateReport._make
    # does, without a Python call per report
    fields = zip(range(len(conventions)), conventions, statuses, deviations, collisions)
    return list(map(tuple.__new__, itertools.repeat(CandidateReport), fields))


def summarize(reports: Iterable[CandidateReport]) -> dict[str, int]:
    counts = dict.fromkeys((STATUS_MATCH, STATUS_MISMATCH, STATUS_INVALID), 0)
    counts.update(collections.Counter(map(_status_of, reports)))
    return counts


CSV_HEADER = (
    "candidate_id,sigma0,sigma1,flip0,flip1,control_position,active_on,status,deviation"
)


@lru_cache(maxsize=None)
def _row_prefixes() -> tuple[str, ...]:
    """The id and six convention fields of each candidate's CSV row,
    comma-terminated, indexed by candidate id."""
    return tuple(
        f"{candidate_id},{perm_label(conv.sigma0)},{perm_label(conv.sigma1)},"
        f"{str(conv.flip0).lower()},{str(conv.flip1).lower()},"
        f"{conv.control_position},{conv.active_on},"
        for candidate_id, conv in enumerate(enumerate_conventions())
    )


def report_rows(reports: Iterable[CandidateReport]) -> list[str]:
    """CSV rows (without header) in enumeration order, deterministic; each
    row's convention fields are those of its candidate_id, as in solve()."""
    prefixes = _row_prefixes()
    return [
        f"{prefixes[candidate_id]}{status},"
        if deviation is None
        else f"{prefixes[candidate_id]}{status},{deviation:.12e}"
        for candidate_id, _, status, deviation, _ in reports
    ]
