"""Workload definitions shared by `bench/run.py` and its child runs.

Inputs are generated from the benchmark seed only; the program receives
the generated scenario files, observables and initial states.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

WORKLOADS = ("all-cold", "operator", "grid")

#: The README scenario: g = 1, n = 4, alpha = 1.3, default 128^2 grid.
README_SCENARIO = {"suite": "all", "potential": {"g": 1.0, "n": 4.0}, "lms": {"alpha": 1.3}}

SCENARIOS = {
    "all-cold": README_SCENARIO,
    "operator": {**README_SCENARIO, "suite": "opalg"},
    "grid": {**README_SCENARIO, "suite": "quantum-leak", "grid": {"count": 256}},
}

#: Valid ``all`` scenarios that end in a runtime failure at the commit the
#: benchmark was defined on; the probe reports how many still do.
CRASH_POTENTIALS = ({"g": 1.0, "n": -2.0}, {"g": 1.0, "n": 2.5}, {"g": -1.0, "n": 4.0})

#: Check-id prefix of the suite each workload runs; None means every check.
CHECK_PREFIX = {"all-cold": None, "operator": "op-", "grid": "qg-"}

#: Observables per operator run: integer coefficients, q degree <= 4,
#: p degree <= 2.
OBSERVABLES = 40
Q_DEGREE, P_DEGREE = 4, 2
MONOMIAL_COPIES = 8  # 14 monomials x 8 = 112 terms over 40 observables

#: Liouville transport of the grid workload: a Gaussian of density width
#: TRANSPORT_WIDTH placed uniformly in [-TRANSPORT_SPREAD, TRANSPORT_SPREAD]^2
#: on a 128^2 qp grid of half-width TRANSPORT_EXTENT, carried for
#: TRANSPORT_TIME under g = 1, n = 4. The norm must stay within NORM_TOL,
#: the tolerance tests/test_qgrid.py uses.
TRANSPORT_COUNT = 128
TRANSPORT_EXTENT = 5.0
TRANSPORT_WIDTH = 0.5
TRANSPORT_SPREAD = 0.25
TRANSPORT_TIME = 0.25
NORM_TOL = 1e-6

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Measured values that are drifts or gaps: they must not grow relative to
#: the reference. Every value of the tower and quartic-scaling checks is a
#: drift; elsewhere the key names them.
GAP_KEY = re.compile(r"drift|gap|dev|diff")
GAP_CHECKS = ("vir-tower-", "ne-quartic-scaling")
#: A gap counts as grown when it exceeds the reference by this factor plus
#: an absolute floor at the level of double-precision roundoff.
GAP_GROWTH, GAP_FLOOR = 1.1, 1e-14


def gap_values(check: dict) -> dict:
    """The drift and gap values among a report check's measured values."""
    whole = check["id"].startswith(GAP_CHECKS)
    return {
        k: v for k, v in check["measured"].items()
        if isinstance(v, float) and (whole or GAP_KEY.search(k))
    }


def gap_grew(value: float, reference: float) -> bool:
    return value > reference * GAP_GROWTH + GAP_FLOOR


def observables(seed: int, count: int = OBSERVABLES):
    """Seed-generated polynomial observables C(q, p).

    Each is a list of ``(coefficient, q_power, p_power)`` over distinct
    monomials with nonzero integer coefficients, so no terms cancel and
    every observable is non-constant. The monomials of each observable are
    the same for every seed: the multiset of non-constant monomials (each
    one MONOMIAL_COPIES times) dealt into ``count`` observables of two or
    three terms. The seed picks the coefficients and the constant terms, so
    the work per run hardly depends on it; the cost of an observable
    depends mostly on its monomials.
    """
    shapes = random.Random("operator-monomials")
    monomials = [(a, b) for a in range(Q_DEGREE + 1) for b in range(P_DEGREE + 1)
                 if (a, b) != (0, 0)]
    deck = monomials * MONOMIAL_COPIES
    shapes.shuffle(deck)
    sizes = [3] * (len(deck) - 2 * count) + [2] * (3 * count - len(deck))
    groups, start = [], 0
    for size in sizes:
        groups.append(deck[start:start + size])
        start += size
    # Swap repeated monomials out until every observable has distinct terms.
    for group in groups:
        while len(set(group)) < len(group):
            i = next(k for k, m in enumerate(group) if group.index(m) != k)
            other = shapes.choice(groups)
            j = shapes.randrange(len(other))
            if other[j] not in group and group[i] not in other:
                group[i], other[j] = other[j], group[i]
    rng = random.Random(f"operator-{seed}")
    out = []
    for group in groups:
        if rng.random() < 0.5:
            group = group + [(0, 0)]
        out.append([(rng.choice((-3, -2, -1, 1, 2, 3)), a, b) for a, b in group])
    return out


def series_order(terms) -> int:
    """Order ``jmax`` at which the derivative series of C terminates."""
    degree = max(a + b for _, a, b in terms)
    return max(0, (degree - 1) // 2)


def transport_center(seed: int) -> tuple[float, float]:
    rng = random.Random(f"grid-{seed}")
    return (rng.uniform(-TRANSPORT_SPREAD, TRANSPORT_SPREAD),
            rng.uniform(-TRANSPORT_SPREAD, TRANSPORT_SPREAD))


def batch_size(workload: str) -> int:
    """Library operations a child runs after the CLI suite."""
    return {"all-cold": 0, "operator": OBSERVABLES, "grid": 1}[workload]


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def expected_checks(workload: str, reference: dict) -> dict:
    """Check id -> reference entry for the checks a workload's suite runs."""
    prefix = CHECK_PREFIX[workload]
    return {cid: entry for cid, entry in reference["checks"].items()
            if prefix is None or cid.startswith(prefix)}
