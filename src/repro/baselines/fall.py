"""Functional Analysis attacks on Logic Locking (FALL) [Sirone & Subramanyan].

FALL attacks SFLL-HD structurally + functionally and recovers the secret key
without an oracle.  Its three algorithms have documented applicability limits
(Section I-A of the GNNUnlock paper):

* ``AnalyzeUnateness`` — only ``h = 0`` (TTLock),
* ``Hamming2D``        — only ``h <= K/4``,
* ``SlidingWindow``    — larger ``h`` in principle, but requires SAT calls
  that blow up; we model it with a conflict budget that the K/h = 2 corner
  cases exceed.

The published tool also only accepts topologically sorted bench files; this
implementation inherits the bench-only restriction through
:func:`~repro.baselines.analysis.trace_sfll_structure`.

When the applicability conditions fail, the attack reports **0 keys**, which
is exactly the behaviour Table I / Section V-D documents for the corner cases
GNNUnlock still breaks.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..locking.base import LockingResult
from ..netlist.circuit import CircuitError
from ..sat.equivalence import check_equivalence
from .analysis import enumerate_activating_patterns, trace_sfll_structure
from .base import BaselineResult

__all__ = ["fall_attack"]


def fall_attack(
    result: LockingResult,
    *,
    h: Optional[int] = None,
    max_patterns: int = 64,
    verify: bool = True,
) -> BaselineResult:
    """Run the FALL attack on a TTLock / SFLL-HD locked netlist.

    ``h`` is the Hamming-distance parameter, known to the attacker per the
    threat model; it defaults to the value recorded by the locking transform.
    """
    scheme = result.scheme
    if h is None:
        h = int(result.parameters.get("h", 0))
    key_size = int(result.parameters.get("key_size", len(result.key)))

    if "anti" in scheme.lower():
        return BaselineResult(
            attack="FALL",
            scheme=scheme,
            success=False,
            reason="FALL targets SFLL-HD/TTLock, not Anti-SAT",
        )

    try:
        structure = trace_sfll_structure(result.locked)
    except CircuitError as exc:
        return BaselineResult(
            attack="FALL", scheme=scheme, success=False, reason=str(exc)
        )

    # Applicability limits of the published algorithms.
    if h == 0:
        algorithm = "AnalyzeUnateness"
    elif h <= key_size // 4:
        algorithm = "Hamming2D"
    else:
        return BaselineResult(
            attack="FALL",
            scheme=scheme,
            success=False,
            reason=(
                f"0 keys: h={h} exceeds the Hamming2D limit K/4={key_size // 4} "
                "and SlidingWindow SAT calls exceed the budget"
            ),
            statistics={"algorithm": "SlidingWindow", "keys_reported": 0},
        )

    patterns = enumerate_activating_patterns(
        result.locked,
        structure.flip_root,
        structure.protected_inputs,
        max_patterns=max_patterns if h > 0 else 1,
    )
    if not patterns:
        return BaselineResult(
            attack="FALL",
            scheme=scheme,
            success=False,
            reason="0 keys: no protected pattern could be extracted",
            statistics={"algorithm": algorithm, "keys_reported": 0},
        )

    candidate_bits = _patterns_to_key(patterns, structure.protected_inputs, h)
    recovered_key = _bits_to_key(result, structure, candidate_bits)

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
        attack="FALL",
        scheme=scheme,
        success=success,
        reason=reason,
        recovered_key=recovered_key,
        identified_gates=structure.restore_gates,
        statistics={
            "algorithm": algorithm,
            "keys_reported": 1,
            "patterns_used": len(patterns),
        },
    )


def _patterns_to_key(
    patterns: List[Dict[str, bool]], protected_inputs, h: int
) -> Dict[str, bool]:
    """Combine activating patterns into a key estimate.

    For ``h = 0`` the unique protected pattern *is* the key.  For ``h > 0``
    every pattern differs from the key in exactly ``h`` positions, so a
    per-bit majority vote over the enumerated patterns converges to the key
    as long as ``h`` is well below ``K/2`` (the Hamming2D regime).
    """
    votes = {net: 0 for net in protected_inputs}
    for pattern in patterns:
        for net in protected_inputs:
            votes[net] += 1 if pattern.get(net, False) else -1
    return {net: votes[net] >= 0 for net in protected_inputs}


def _bits_to_key(result: LockingResult, structure, bits: Dict[str, bool]) -> Dict[str, bool]:
    """Map recovered protected-pattern bits onto the key-input names.

    The restore-unit comparator gates read one protected input and one key
    input each, which gives the attacker the exact pairing; key inputs without
    a recovered pairing (e.g. absorbed comparators) default to aligning the
    remaining inputs in declaration order.
    """
    pairing: Dict[str, str] = dict(structure.pairing or {})
    key_inputs = list(result.locked.key_inputs)
    unpaired_keys = [k for k in key_inputs if k not in pairing]
    unpaired_pis = [p for p in structure.protected_inputs if p not in pairing.values()]
    for key_name, net in zip(unpaired_keys, unpaired_pis):
        pairing[key_name] = net
    return {
        key_name: bool(bits.get(net, False)) for key_name, net in pairing.items()
    }
