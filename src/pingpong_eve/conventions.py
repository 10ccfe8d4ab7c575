"""Exhaustive search over gate-semantics conventions for the outbound unitary.

The census template is a five-stage circuit on the travel photon and the
two ancilla modes, in the order applied:

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
for each, and reports which reproduce the attack's images.  None does.
Under the route "abc"/"acb" without flips the two routers are the attack's
PBS_xy and PBS_tx, but the attack's CNOTs act on (t, x) and then (t, y).

The stages are the engine's own gates on the attack's split rows: each
CNOT is the engine's index permutation and each router its router_maps.
Terms that a router sends onto the same ket add their amplitudes, which is
how some candidates end with images of the wrong norm (mismatch).  A
candidate is invalid when a router would put two photons into one mode
within a single basis term; the state space here is strictly
single-occupancy, so its first such collision is reported instead.

solve() composes the whole census in one call of ``engine.carry``, the walk
that also traces the attacks' circuits: every candidate's split terms go
through flat integer tables of all 144 router and 4 CNOT conventions, the
first router once per route, and the kernel keys each candidate's first
collision.  An image holds at most two terms per row, so a candidate that
completes is scored on those terms and the references' support alone,
never as a dense image.  compose_candidate is an independent
single-candidate replay of the same circuit, term by term in Python, and
the tests hold solve() equal to it on every candidate.

Every solve() call composes the census afresh, on tables built once per
process (``_batch_tables``): each stage's flat tables, router meeting keys
included, and what the deviations read of the split rows and the
references (their support, its conjugate values, each line's row offsets,
the split-amplitude table).  So a call is one carry and one vectorized
deviation pass, and it returns the census as three read-only columns
(``Census``: status codes, deviations and meeting keys), with no Python
object per candidate.  The solve-conventions command keeps its rendered
census once per process, and verify, which calls solve() twice on each
run, never reads that memo.
"""

from __future__ import annotations

import dataclasses
import itertools
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import engine
from .attacks import F_KETS, SPLIT_ROWS, forward_images
from .engine import DIM, BasisKet, Occupation

PERMUTATIONS = tuple(itertools.permutations((0, 1, 2)))
CONTROL_POSITIONS = ("first-index", "second-index")
ACTIVATIONS = ("pol1", "pol0")

# The template's candidate-dependent stages in circuit order, after the
# split, with their modes; the routers are those with a meeting-key table.
_STAGES = (
    ("route_txy", ("t", "x", "y")),
    ("cnot_ty", ("t", "y")),
    ("route_ytx", ("y", "t", "x")),
    ("cnot_xy", ("x", "y")),
)

# A census's status codes index STATUSES.
STATUSES = ("match", "mismatch", "invalid-double-occupancy")
STATUS_MATCH, STATUS_MISMATCH, STATUS_INVALID = STATUSES

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


def _convention(candidate_id: int) -> Convention:
    route, cnot = divmod(candidate_id, len(_CNOTS))
    return Convention(*_ROUTES[route], *_CNOTS[cnot])


def enumerate_conventions() -> tuple[Convention, ...]:
    """All 576 candidates, defaults first, in a fixed documented order:
    candidate ``route * 4 + cnot`` pairs _ROUTES[route] with _CNOTS[cnot]."""
    return tuple(map(_convention, range(len(_ROUTES) * len(_CNOTS))))


@dataclasses.dataclass(frozen=True)
class Collision:
    """First double occupancy seen while composing a candidate."""

    stage: str
    input_term: str
    mode: str


def _cnot_map(modes: tuple[str, str], control_position: str, active_on: str) -> np.ndarray:
    """The engine's CNOT index permutation under one candidate's convention."""
    control, target = modes if control_position == "first-index" else modes[::-1]
    active = Occupation.POL1 if active_on == "pol1" else Occupation.POL0
    return engine.controlled_flip_permutation(control, target, active)


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
    route = ((conv.sigma0, conv.sigma1, conv.flip0, conv.flip1),)
    cnot = (conv.control_position, conv.active_on)
    stages = [
        (name, *(table[0] for table in engine.router_maps(modes, route)))
        if name.startswith("route")
        else (name, _cnot_map(modes, *cnot), None)
        for name, modes in _STAGES
    ]
    images = np.zeros((len(F_KETS), DIM), dtype=complex)
    for row, split in enumerate(SPLIT_ROWS):
        terms = [(i, split[i]) for i in np.flatnonzero(split)]
        for stage, image_of, meet_at in stages:
            routed: dict[int, complex] = {}
            for index, amp in terms:
                if meet_at is not None and meet_at[index] >= 0:
                    label = BasisKet.from_index(index).label()
                    mode = engine.MODES[meet_at[index]]
                    return CompositionResult(None, Collision(stage, label, mode))
                routed[image_of[index]] = routed.get(image_of[index], 0.0) + amp
            terms = sorted(routed.items())
        for index, amp in terms:
            images[row, index] = amp
    images.setflags(write=False)
    return CompositionResult(images=images, collision=None)


MATCH_TOL = 1e-10


class CandidateReport(NamedTuple):
    candidate_id: int
    convention: Convention
    status: str
    deviation: float | None
    collision: Collision | None


class Census(NamedTuple):
    """The classified census, entry i for candidate i of
    ``enumerate_conventions()``; every column is read-only.  Two censuses
    compare by their columns' ``tobytes``, as verify compares them: ``==``
    on the tuple would ask numpy for the truth of an array."""

    status: np.ndarray  # int8 codes into STATUSES
    deviation: np.ndarray  # float64, NaN where the candidate is invalid
    key: np.ndarray  # int64 engine.carry meeting keys, negative where it completes

    def report(self, candidate_id: int) -> CandidateReport:
        """Candidate ``candidate_id``'s row of the three columns as one report."""
        deviation = self.deviation[candidate_id]
        key = int(self.key[candidate_id])
        return CandidateReport(
            candidate_id,
            _convention(candidate_id),
            STATUSES[self.status[candidate_id]],
            None if np.isnan(deviation) else float(deviation),
            None if key < 0 else _collision(key),
        )


class _Tables(NamedTuple):
    """What every ``solve`` call reads that the template, the split rows and
    the references fix; ``_deviations`` reads one line per entry: each of the
    eight split terms' (two per row), then each support entry's of the
    references."""

    stages: tuple  # the engine.carry stages of every candidate
    index: np.ndarray  # the split rows' term indices, shape (4, 2, 1, 1)
    references: np.ndarray  # forward_images() when these tables were built
    pairs: np.ndarray  # per line, the lines of its row's two terms, shape (2, lines)
    amps_at: np.ndarray  # per line, its row's offset in amps, shape (lines, 1)
    reference_at: np.ndarray  # per line, its row's offset in references, (lines, 1)
    support_col: np.ndarray  # the support entries' columns, one per candidate
    support_conj: np.ndarray  # the support entries' conjugate values, (support, 1)
    amps: np.ndarray  # per split row: 0, its two terms' amplitudes and their sum


@lru_cache(maxsize=None)
def _batch_tables() -> _Tables:
    """The census tables, built on first use.  The stages hold, per stage,
    the raveled image and meeting-key tables of all router routes, or the
    raveled tables of all CNOT conventions, and column offsets over a
    (route, cnot) grid that reads row-major as the candidate ids.  The
    references are ``forward_images()``, read here: a test that patches them
    clears this memo."""
    route = np.arange(len(_ROUTES))[:, None] * DIM
    cnot = np.arange(len(_CNOTS)) * DIM
    stages = []
    for name, modes in _STAGES:
        if name.startswith("route"):
            image, meet = engine.router_maps(modes, _ROUTES)
            stages.append((image.ravel(), engine.meeting_keys(meet).ravel(), route))
        else:
            maps = np.array([_cnot_map(modes, *conv) for conv in _CNOTS])
            stages.append((maps.ravel(), None, cnot))
    rows = SPLIT_ROWS
    # The solver routes each row's two terms apart and adds them only where
    # they end on one ket; a sum of two is the same in either order, so the
    # images equal compose_candidate's bit for bit.
    if (np.count_nonzero(rows, axis=1) != 2).any():
        raise AssertionError("the batched solver expects two terms per split row")
    index = np.array([np.flatnonzero(row) for row in rows])
    amps = np.take_along_axis(rows, index, axis=1)
    references = forward_images()
    support_row, support_col = np.nonzero(references)
    line = np.concatenate((np.arange(index.size) // 2, support_row))
    # A row's image on an entry that none, the first, the second or both of
    # its terms land on; two terms on one ket add as in compose_candidate.
    table = np.column_stack((np.zeros(len(amps)), amps, (0.0 + amps[:, 0]) + amps[:, 1]))
    return _Tables(
        tuple(stages),
        index[..., None, None],
        references,
        np.array([2 * line, 2 * line + 1]),
        (table.shape[1] * line)[:, None],
        (references.shape[1] * line)[:, None],
        np.broadcast_to(support_col[:, None], (len(support_col), len(_ROUTES) * len(_CNOTS))),
        references[support_row, support_col].conj()[:, None],
        table,
    )


def _collision(key: int) -> Collision:
    """The Collision of a meeting key that ``engine.carry`` reports."""
    _, stage, index, mode = engine.meeting(key, len(_STAGES))
    return Collision(_STAGES[stage][0], BasisKet.from_index(index).label(), engine.MODES[mode])


def _deviations(terms: np.ndarray, tables: _Tables) -> np.ndarray:
    """Deviation of each image in a stack from the references: the largest
    amplitude difference after removing the best common phase, fit once
    across all four rows (a phase of 1 for an image orthogonal to them).  The
    dense computation, ``deviation_from_reference``, lives in the tests'
    oracles (tests/oracles.py), which hold these deviations to it.  Image i
    puts the split amplitudes on the basis indices terms[:, i], where terms
    has shape (8, n), row r's two terms on lines 2r and 2r + 1.

    An image is nonzero only on its terms and the references only on their
    support, and every other entry is 0 on both sides, so the overlap and
    the deviation are read off those entries alone."""
    col = np.concatenate((terms, tables.support_col[:, : terms.shape[1]]))
    # whether the first and the second term of the line's row land on it
    lands = terms.take(tables.pairs, axis=0) == col
    image = tables.amps.take(tables.amps_at + lands[0] + 2 * lands[1])
    reference = tables.references.take(tables.reference_at + col)
    # One contiguous row per candidate, which numpy sums pairwise; summed
    # down the columns instead, some overlaps at complex phases come out a
    # bit off those of deviation_from_reference in tests/oracles.py.
    products = np.ascontiguousarray((tables.support_conj * image[len(terms) :]).T)
    overlap = products.sum(axis=1)
    norm = np.abs(overlap)
    fitted = norm > 0.0
    phase = np.ones_like(overlap)
    # part by part, as Python divides a complex by a float
    np.divide(overlap.real, norm, out=phase.real, where=fitted)
    np.divide(overlap.imag, norm, out=phase.imag, where=fitted)
    return np.abs(image - phase * reference).max(axis=0)


def solve() -> Census:
    """Classify every candidate against the truth-table images.

    All 576 candidates are composed at once by gathering their split terms
    through each stage's table; compose_candidate replays one of them.
    """
    tables = _batch_tables()
    # Terms run down the lines, candidates across a (route, cnot) grid of
    # columns: the first router sees the same split terms under every
    # candidate, so it runs once per route.  Terms that compose_candidate
    # would have merged share their index, and so their meeting key.
    terms, first = engine.carry(tables.index, tables.stages)
    key = first.ravel()
    complete = key < 0
    deviation = np.full(key.shape, np.nan)
    deviation[complete] = _deviations(terms.reshape(tables.index.size, -1)[:, complete], tables)
    status = np.full(key.shape, STATUSES.index(STATUS_INVALID), dtype=np.int8)
    # False (match) or True (mismatch), cast into the codes of STATUSES
    np.greater(deviation, MATCH_TOL, out=status, where=complete)
    for column in (status, deviation, key):
        column.setflags(write=False)
    return Census(status, deviation, key)


def summarize(census: Census) -> dict[str, int]:
    counts = np.bincount(census.status, minlength=len(STATUSES))
    return dict(zip(STATUSES, counts.tolist()))


CSV_HEADER = (
    "candidate_id,sigma0,sigma1,flip0,flip1,control_position,active_on,status,deviation"
)


def report_rows(census: Census) -> list[str]:
    """CSV rows (without header) in candidate order, deterministic; an
    invalid candidate's deviation field is empty."""
    labels = {perm: perm_label(perm) for perm in PERMUTATIONS}
    flags = {False: "false", True: "true"}
    routes = [
        f"{labels[sigma0]},{labels[sigma1]},{flags[flip0]},{flags[flip1]}"
        for sigma0, sigma1, flip0, flip1 in _ROUTES
    ]
    cnots = [",".join(cnot) for cnot in _CNOTS]
    invalid = STATUSES.index(STATUS_INVALID)
    return [
        f"{candidate_id},{routes[candidate_id // len(_CNOTS)]},"
        f"{cnots[candidate_id % len(_CNOTS)]},{STATUSES[status]},"
        + ("" if status == invalid else f"{deviation:.12e}")
        for candidate_id, (status, deviation) in enumerate(
            zip(census.status.tolist(), census.deviation.tolist())
        )
    ]
