"""Output checks of the benchmark.

Three kinds, each returning a list of problems (empty when the output is
right):

* exact invariants of one ``simulate`` op: counts that add up, zero
  detections, zero stray outcomes, zero counts in cells the exact outcome
  table forbids, the CSV agreeing row for row with the stats JSON;
* pooled statistical gates over every op of one configuration in a run:
  each observed rate within ``Z_MAX`` standard errors of its exact
  expectation, derived from ``attacks.exact_outcome_table`` and the scheme's
  loss.  They test the distribution, not a particular seed-to-output
  mapping, so a sampler that draws differently still passes;
* the audit pass: every verify check passes, the pinned insecurity
  thresholds and the solver census are printed.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import re

from workloads import SimConfig

# Wide on purpose: a run makes about a hundred of these tests, and a
# false alarm would count every op of the configuration as failed.
Z_MAX = 6.0
# Exact-table cells below this are zero (the tables come from float
# projections of exact states).
_ZERO = 1e-12

_S_KEYS = ("counts_s_off", "counts_s_on")


@dataclasses.dataclass(frozen=True)
class Expectation:
    """Exact per-round probabilities of one simulate configuration."""

    attack_fraction: float
    p_control_lost: float
    p_unattacked_message_lost: float
    p_coin: float
    tables: tuple  # conditional P(k, m | j) without / with the coin, as nested lists
    qber: float


def expectation(sim: SimConfig) -> Expectation:
    """Exact expectations of ``sim`` from the package's exact layer."""
    from pingpong_eve.attacks import exact_outcome_table, improved_profile, wojcik_profile

    plain = exact_outcome_table(apply_s=False).tolist()
    symmetrized = exact_outcome_table(apply_s=True).tolist()
    if sim.scheme == "none":
        return Expectation(0.0, 1.0 - sim.eta, 1.0 - sim.eta, 0.0, (plain, symmetrized), 0.0)
    loss = (wojcik_profile() if sim.scheme == "wojcik-reference" else improved_profile()).loss
    mu = min(1.0, (1.0 - sim.eta) / loss)
    p_coin = 0.5 if sim.scheme == "improved-symmetrized" else 0.0
    prior = (sim.c0, 1.0 - sim.c0)
    qber = 0.0
    for weight, table in ((1.0 - p_coin, plain), (p_coin, symmetrized)):
        for j in (0, 1):
            for k in (0, 1):
                qber += weight * prior[j] * table[j][k][1 - j]
    return Expectation(mu, mu * loss, 0.0, p_coin, (plain, symmetrized), qber)


def simulate_problems(
    op_sim: SimConfig, rounds: int, seed: int, doc: dict, stdout: str, exp: Expectation
) -> list[str]:
    """Exact invariants of one simulate op's stats JSON and stdout summary."""
    problems = []
    meta, stats = doc["metadata"], doc["stats"]
    echoed = (meta["scheme"], meta["rounds"], meta["seed"], meta["eta"], meta["c0"])
    if echoed != (op_sim.scheme, rounds, seed, op_sim.eta, op_sim.c0):
        problems.append(f"metadata echo {echoed} does not match the command")
    if stats["n_rounds"] != rounds:
        problems.append(f"n_rounds={stats['n_rounds']}, asked for {rounds}")
    if stats["n_control"] + stats["n_message"] != rounds:
        problems.append("n_control + n_message != rounds")
    if stats["n_detection"] != 0:
        problems.append(f"{stats['n_detection']} detections, exact expectation 0")
    if stats["n_stray_outcomes"] != 0:
        problems.append(f"{stats['n_stray_outcomes']} stray outcomes")
    if op_sim.scheme == "none":
        if stats["n_control_attacked"] or stats["n_message_attacked"]:
            problems.append("attacked rounds without an attack scheme")
    elif stats["n_message_unattacked_lost"] != 0:
        problems.append("unattacked message lost on the attacker's lossless channel")
    total = errors = 0
    for s, s_key in enumerate(_S_KEYS):
        counts = stats[s_key]
        weight = exp.p_coin if s else 1.0 - exp.p_coin
        for j in (0, 1):
            for k in (0, 1):
                for m in (0, 1):
                    n = counts[j][k][m]
                    total += n
                    errors += n if m != j else 0
                    if n and (weight == 0.0 or exp.tables[s][j][k][m] <= _ZERO):
                        problems.append(f"{n} rounds in forbidden cell {s_key}[{j}][{k}][{m}]")
    if total != stats["n_message_attacked"]:
        problems.append("joint counts do not add up to n_message_attacked")
    if errors != stats["n_qber_errors"]:
        problems.append("n_qber_errors disagrees with the joint counts")
    summary = (
        f"rounds={stats['n_rounds']} control={stats['n_control']}"
        f" message={stats['n_message']}"
    )
    if summary not in stdout.splitlines():
        problems.append("stdout summary line disagrees with the stats JSON")
    return problems


def csv_problems(path: str, rounds: int, stats: dict) -> list[str]:
    """Tally the per-round CSV and compare it with the stats JSON."""
    n_control = n_lost = n_detection = n_unattacked_lost = 0
    counts = {key: [[[0, 0], [0, 0]], [[0, 0], [0, 0]]] for key in _S_KEYS}
    m_bit = {"psi_plus": 0, "psi_minus": 1}
    expected_index = 0
    with open(path, newline="") as handle:
        lines = (line for line in handle if not line.startswith("#"))
        reader = csv.DictReader(lines)
        for row in reader:
            if int(row["round_index"]) != expected_index:
                return [f"row {expected_index} has round_index {row['round_index']}"]
            expected_index += 1
            if row["mode"] == "control":
                n_control += 1
                n_lost += row["photon_lost"] == "true"
                n_detection += row["detection_event"] == "true"
            elif row["attacked"] == "true":
                if row["m"] in m_bit and row["k"]:
                    key = "counts_s_on" if row["s_applied"] == "true" else "counts_s_off"
                    counts[key][int(row["j"])][int(row["k"])][m_bit[row["m"]]] += 1
            else:
                n_unattacked_lost += row["photon_lost"] == "true"
    tallied = {
        "n_rounds": expected_index,
        "n_control": n_control,
        "n_control_lost": n_lost,
        "n_detection": n_detection,
        "n_message_unattacked_lost": n_unattacked_lost,
        **counts,
    }
    problems = []
    if expected_index != rounds:
        problems.append(f"CSV has {expected_index} rows, expected {rounds}")
    for key, value in tallied.items():
        if stats[key] != value:
            problems.append(f"CSV tally {key}={value} but stats JSON says {stats[key]}")
    return problems


def _binomial_problem(label: str, hits: int, n: int, p: float) -> str | None:
    if n == 0:
        return None
    if p <= _ZERO or p >= 1.0 - _ZERO:
        want = 0 if p <= _ZERO else n
        return None if hits == want else f"{label}: {hits}/{n}, exact expectation {want}/{n}"
    z = (hits - n * p) / math.sqrt(n * p * (1.0 - p))
    if abs(z) > Z_MAX:
        return f"{label}: {hits}/{n} vs exact p={p:.6f}, z={z:+.2f}"
    return None


def pooled_problems(sim: SimConfig, exp: Expectation, stats_list: list[dict]) -> list[str]:
    """Statistical gates over every op of one configuration in a run."""

    def total(key: str) -> int:
        return sum(stats[key] for stats in stats_list)

    def cell_total(s_key: str, j: int, k: int, m: int) -> int:
        return sum(stats[s_key][j][k][m] for stats in stats_list)

    n_control, n_message = total("n_control"), total("n_message")
    n_attacked_msg = total("n_message_attacked")
    n_coin = sum(cell_total("counts_s_on", j, k, m)
                 for j in (0, 1) for k in (0, 1) for m in (0, 1))
    n_j0 = sum(cell_total(s_key, 0, k, m)
               for s_key in _S_KEYS for k in (0, 1) for m in (0, 1))
    tests = [
        ("control rounds", n_control, total("n_rounds"), sim.control_prob),
        ("attacked control rounds", total("n_control_attacked"), n_control,
         exp.attack_fraction),
        ("attacked message rounds", n_attacked_msg, n_message, exp.attack_fraction),
        ("control loss", total("n_control_lost"), n_control, exp.p_control_lost),
        ("unattacked message loss", total("n_message_unattacked_lost"),
         n_message - n_attacked_msg, exp.p_unattacked_message_lost),
        ("decode errors", total("n_qber_errors"), n_attacked_msg, exp.qber),
        ("message bit 0", n_j0, n_attacked_msg, sim.c0),
        ("symmetrization coin", n_coin, n_attacked_msg, exp.p_coin),
    ]
    for s, s_key in enumerate(_S_KEYS):
        for j in (0, 1):
            n_sj = sum(cell_total(s_key, j, k, m) for k in (0, 1) for m in (0, 1))
            for k in (0, 1):
                for m in (0, 1):
                    tests.append((f"P(k={k}, m={m} | j={j}) {s_key}",
                                  cell_total(s_key, j, k, m), n_sj, exp.tables[s][j][k][m]))
    problems = [_binomial_problem(*test) for test in tests]
    return [f"{sim.scheme} eta={sim.eta}: {p}" for p in problems if p]


CENSUS_LINE = "candidates=576 matches=0 mismatches=216 invalid=360"
# The insecurity thresholds README.md pins, to the digits it prints them.
PINNED_ETA_STAR = {"improved": "0.777294", "wojcik": "0.554588"}
_VERIFY_TOTAL = re.compile(r"^(\d+)/(\d+) checks passed$")


def audit_problems(calls: list[tuple[tuple[str, ...], int, str]]) -> list[str]:
    """Check one audit pass from its (argv, exit code, stdout) triples."""
    problems = []
    for argv, code, stdout in calls:
        if code != 0:
            problems.append(f"{' '.join(argv[:3])} exited {code}")
        lines = stdout.splitlines()
        if argv[0] == "verify":
            verdicts = [line.split(" ", 1)[0] for line in lines[1:-1]]
            match = _VERIFY_TOTAL.match(lines[-1]) if lines else None
            if not verdicts or any(v != "PASS" for v in verdicts) or not match or (
                int(match.group(1)) != len(verdicts) or match.group(1) != match.group(2)
            ):
                problems.append("verify: not every check passed")
        elif argv[0] == "analyze":
            scheme = argv[argv.index("--scheme") + 1]
            if not any(
                line.startswith(f"insecure below eta*={PINNED_ETA_STAR[scheme]}")
                for line in lines
            ):
                problems.append(f"analyze {scheme}: pinned eta*={PINNED_ETA_STAR[scheme]} not printed")
        elif argv[0] == "solve-conventions" and CENSUS_LINE not in lines:
            problems.append(f"solve-conventions: census line {CENSUS_LINE!r} not printed")
    return problems
