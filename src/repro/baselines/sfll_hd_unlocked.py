"""SFLL-HD-Unlocked [Yang et al., TIFS 2019].

The attack performs connectivity analysis on the locked netlist (tracing the
key inputs to the restore unit, then the perturb unit), extracts input
patterns that activate the perturb signal, and recovers the hard-coded key by
Gaussian elimination over the linear system relating the activating patterns
to the Hamming-distance constraint ``HD(x, k) = h``.

Documented limitations that the GNNUnlock paper exploits (Section I-A and
V-D):

* it does not work for ``h <= 4`` because the resulting matrices are singular,
* it fails to identify the perturb signals when ``K / h = 2`` (the corner case
  that achieves the highest removal resilience),
* it only accepts bench-format netlists.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..locking.base import LockingResult
from ..netlist.circuit import CircuitError
from ..sat.equivalence import check_equivalence
from .analysis import enumerate_activating_patterns, trace_sfll_structure
from .base import BaselineResult

__all__ = ["sfll_hd_unlocked_attack"]


def sfll_hd_unlocked_attack(
    result: LockingResult,
    *,
    h: Optional[int] = None,
    max_patterns: int = 96,
    verify: bool = True,
) -> BaselineResult:
    """Run the SFLL-HD-Unlocked attack on a locked netlist."""
    scheme = result.scheme
    if h is None:
        h = int(result.parameters.get("h", 0))
    key_size = int(result.parameters.get("key_size", len(result.key)))

    if "anti" in scheme.lower():
        return BaselineResult(
            attack="SFLL-HD-Unlocked",
            scheme=scheme,
            success=False,
            reason="SFLL-HD-Unlocked targets SFLL-HD, not Anti-SAT",
        )
    if h <= 4:
        return BaselineResult(
            attack="SFLL-HD-Unlocked",
            scheme=scheme,
            success=False,
            reason=f"h={h} <= 4 produces singular matrices (documented limitation)",
            statistics={"keys_reported": 0},
        )
    if 2 * h >= key_size:
        return BaselineResult(
            attack="SFLL-HD-Unlocked",
            scheme=scheme,
            success=False,
            reason=(
                f"K/h = {key_size}/{h} <= 2: perturb signals cannot be identified "
                "(corner case reported in the paper)"
            ),
            statistics={"keys_reported": 0},
        )

    try:
        structure = trace_sfll_structure(result.locked)
    except CircuitError as exc:
        return BaselineResult(
            attack="SFLL-HD-Unlocked", scheme=scheme, success=False, reason=str(exc)
        )

    patterns = enumerate_activating_patterns(
        result.locked,
        structure.flip_root,
        structure.protected_inputs,
        max_patterns=max_patterns,
    )
    if len(patterns) < len(structure.protected_inputs):
        return BaselineResult(
            attack="SFLL-HD-Unlocked",
            scheme=scheme,
            success=False,
            reason=(
                f"only {len(patterns)} activating patterns found; Gaussian "
                "elimination is under-determined"
            ),
            statistics={"keys_reported": 0, "patterns": len(patterns)},
        )

    key_bits, singular = _solve_key(patterns, structure.protected_inputs, h)
    if singular:
        return BaselineResult(
            attack="SFLL-HD-Unlocked",
            scheme=scheme,
            success=False,
            reason="Gaussian elimination hit a singular matrix",
            statistics={"keys_reported": 0, "patterns": len(patterns)},
        )

    pairing = dict(structure.pairing or {})
    unpaired_keys = [k for k in result.locked.key_inputs if k not in pairing]
    unpaired_pis = [p for p in structure.protected_inputs if p not in pairing.values()]
    pairing.update(dict(zip(unpaired_keys, unpaired_pis)))
    recovered_key = {
        key_name: bool(key_bits.get(net, False)) for key_name, net in pairing.items()
    }

    success = True
    reason = ""
    if verify:
        try:
            success = check_equivalence(
                result.locked, result.original, key_assignment=recovered_key
            ).equivalent
            reason = "" if success else "recovered key does not unlock the design"
        except Exception as exc:  # noqa: BLE001
            success = False
            reason = f"key verification failed: {exc}"
    return BaselineResult(
        attack="SFLL-HD-Unlocked",
        scheme=scheme,
        success=success,
        reason=reason,
        recovered_key=recovered_key,
        identified_gates=structure.restore_gates,
        statistics={"keys_reported": 1, "patterns": len(patterns)},
    )


def _solve_key(
    patterns: List[Dict[str, bool]], protected_inputs, h: int
) -> tuple[Dict[str, bool], bool]:
    """Solve ``HD(x_p, k) = h`` for ``k`` by (real-valued) Gaussian elimination.

    Each activating pattern ``x_p`` contributes one linear equation in the
    unknown key bits: ``sum_i k_i (1 - 2 x_p[i]) = h - sum_i x_p[i]``.  With
    enough linearly independent patterns the system determines ``k``; a
    rank-deficient system is reported as singular, mirroring the published
    attack's failure mode.
    """
    inputs = list(protected_inputs)
    n = len(inputs)
    rows = []
    rhs = []
    for pattern in patterns:
        x = np.array([1.0 if pattern.get(net, False) else 0.0 for net in inputs])
        rows.append(1.0 - 2.0 * x)
        rhs.append(float(h) - x.sum())
    matrix = np.array(rows)
    target = np.array(rhs)
    rank = np.linalg.matrix_rank(matrix)
    if rank < n - 2:
        # Clearly under-determined: the published attack aborts here too.
        return {}, True
    solution, *_ = np.linalg.lstsq(matrix, target, rcond=None)
    bits = np.clip(np.round(solution), 0, 1).astype(bool)
    return {net: bool(bit) for net, bit in zip(inputs, bits)}, False
