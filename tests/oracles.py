"""Reference computations the tests hold the package to.

Each helper is the plain, unoptimized form of something the package
computes another way, or a statistic only the tests need.  They read only
the package's public API.
"""

from __future__ import annotations

import math

import numpy as np

from pingpong_eve import protocol


def chi_squared(counts: np.ndarray, expected_conditional: np.ndarray) -> tuple[float, int]:
    """Pearson chi-squared of observed (j, k, m) counts against an exact
    conditional table, conditioning on the per-j sample sizes.

    Cells with zero expected probability contribute no degrees of freedom;
    any observation in such a cell returns an infinite statistic.
    """
    counts = np.asarray(counts, dtype=float)
    expected_conditional = np.asarray(expected_conditional, dtype=float)
    stat = 0.0
    df = 0
    for j in (0, 1):
        n_j = counts[j].sum()
        if n_j == 0:
            continue
        support = expected_conditional[j] > 0.0
        if np.any(counts[j][~support] > 0):
            return math.inf, df
        expected_counts = n_j * expected_conditional[j]
        df += int(support.sum()) - 1
        stat += float(
            (((counts[j] - expected_counts) ** 2)[support] / expected_counts[support]).sum()
        )
    return stat, df


def deviation_from_reference(images: np.ndarray, references: np.ndarray) -> float:
    """Largest amplitude difference after removing the best common phase:
    the dense form of the deviations ``conventions.solve`` reports.

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


def sample(table, seed: int, block: int, n: int) -> np.ndarray:
    """Cell indices of the first n rounds of chunk ``block`` of a run of the
    round table with ``seed``, from the run's stream jumped ahead to the chunk."""
    stream = protocol.round_rng(seed, block * protocol.BLOCK_ROUNDS)
    return table.cells_of(stream.random_raw(n))
