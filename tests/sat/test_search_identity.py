"""Pin the CDCL search: decision, conflict and propagation counts.

Any change to the solver's decision order, propagation or learning shows up
here as a different counter triple.  A change that is meant to leave the
search alone (a faster data structure, say) must keep these numbers exactly;
one that changes the search on purpose re-pins them and says so.

The instances are the SAT-attack DIP loops of the baseline tests: one
incremental solver per attack, queried under assumptions with clauses added
between calls, so the pins cover ``add_clause``, ``_ensure_var`` growth and
backtracking across ``solve`` calls, not only a single fresh solve.

The pins measure the attack's key-cone encoding, which adds each DIP's oracle
constraint over the key inputs' fan-out only.  Their conflict counts equal
those of encoding two full circuit copies per DIP; the decision and
propagation counts are lower, because the gates a DIP fixes are not in the
formula.  The solver never decides a variable that occurs in no watched
clause (the miter registers one for every input name of each copy), which
removes exactly one decision and one propagation per such variable per
solve and leaves the conflicts, the DIPs and the models unchanged.
"""

import sys

import numpy as np
import pytest

import repro.baselines  # noqa: F401  (registers the sat_attack module)
from repro.benchgen import get_benchmark
from repro.locking import AntiSatLocking, RandomXorLocking
from repro.sat import SatSolver

# ``repro.baselines.sat_attack`` resolves to the function (the package
# re-exports it under the module's name), so reach the module itself.
SAT_ATTACK_MODULE = sys.modules["repro.baselines.sat_attack"]


@pytest.fixture(scope="module")
def c3540():
    return get_benchmark("c3540")


@pytest.fixture
def attack_solvers(monkeypatch):
    """Record every solver the SAT attack builds."""
    created = []

    class RecordingSolver(SatSolver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(SAT_ATTACK_MODULE, "SatSolver", RecordingSolver)
    return created


def _counters(solvers):
    (solver,) = solvers
    return solver.decisions, solver.conflicts, solver.propagations


def test_xor_locking_dip_loop_search_is_pinned(c3540, attack_solvers):
    locked = RandomXorLocking(6).lock(c3540.copy(), rng=np.random.default_rng(15))
    result = SAT_ATTACK_MODULE.sat_attack(locked, max_iterations=32)
    assert result.success
    assert _counters(attack_solvers) == (522, 88, 6276)


def test_antisat_dip_loop_search_is_pinned(c3540, attack_solvers):
    locked = AntiSatLocking(16).lock(c3540.copy(), rng=np.random.default_rng(4))
    result = SAT_ATTACK_MODULE.sat_attack(locked, max_iterations=6)
    assert not result.success
    assert _counters(attack_solvers) == (575, 31, 5933)
