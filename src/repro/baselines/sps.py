"""Signal Probability Skew (SPS) attack [Yasin et al., ASP-DAC 2016].

The Anti-SAT output ``Y = g(X⊕Kl1) ∧ ḡ(X⊕Kl2)`` is built from two nets with
strongly *opposite* probability skews (the AND tree is skewed towards 0, its
complement towards 1).  The SPS attack scans every 2-input AND-like gate,
computes the absolute difference of its input skews (ADS), picks the gate with
the maximum ADS as the Anti-SAT output, removes its fan-in cone (restricted to
key-fed logic) and bypasses the integration XOR.

The attack is scheme-specific: on TTLock / SFLL-HD there is no such oppositely
skewed AND gate, the located gate is some random design gate, and the removal
does not recover the original design — which is exactly the limitation Table I
reports.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from ..locking.base import LockingResult
from ..netlist.circuit import Circuit
from ..netlist.signal_probability import (
    estimate_probabilities_independent,
    signal_probability_skew,
)
from ..netlist.traversal import fanin_cone, key_cone
from ..sat.equivalence import check_equivalence
from .base import BaselineResult

__all__ = ["sps_attack", "locate_antisat_output"]

_AND_LIKE = ("AND", "AND2", "NAND", "NAND2")


def locate_antisat_output(circuit: Circuit) -> Tuple[Optional[str], float]:
    """Return (gate, ADS) of the most oppositely-skewed AND-like gate."""
    probabilities = estimate_probabilities_independent(circuit)
    key_fed = set(key_cone(circuit))
    best_gate: Optional[str] = None
    best_ads = -1.0
    for gate in circuit:
        if gate.cell.name not in _AND_LIKE or len(gate.inputs) != 2:
            continue
        if gate.name not in key_fed:
            continue
        skews = [signal_probability_skew(probabilities[n]) for n in gate.inputs]
        ads = abs(skews[0] - skews[1])
        if ads > best_ads:
            best_ads = ads
            best_gate = gate.name
    return best_gate, best_ads


def sps_attack(
    result: LockingResult,
    *,
    ads_threshold: float = 0.9,
    verify: bool = True,
) -> BaselineResult:
    """Run the SPS attack on a locked circuit.

    ``ads_threshold`` is the minimum absolute-difference-of-skews for a gate
    to be accepted as the Anti-SAT output (the two branches of a genuine
    Anti-SAT block have skews close to -0.5 and +0.5).
    """
    locked = result.locked
    candidate, ads = locate_antisat_output(locked)
    if candidate is None or ads < ads_threshold:
        return BaselineResult(
            attack="SPS",
            scheme=result.scheme,
            success=False,
            reason=(
                "no oppositely-skewed AND gate found "
                f"(best ADS {ads:.2f} < {ads_threshold})"
            ),
            statistics={"best_ads": ads},
        )

    # Remove the candidate's key-fed fan-in cone and bypass the integration
    # XOR(s) it feeds, then drop the key inputs.
    to_remove: Set[str] = fanin_cone(locked, candidate, include_start=True) & set(
        key_cone(locked)
    )
    labels = {g: ("AN" if g in to_remove else "DN") for g in locked.gate_names()}
    for sink in locked.fanout_of(candidate):
        cell = locked.gate(sink).cell.name
        if cell in ("XOR", "XNOR", "XOR2", "XNOR2"):
            labels[sink] = "AN"
            to_remove.add(sink)

    from ..core.removal import remove_protection_logic  # local import: avoids cycle

    try:
        recovered = remove_protection_logic(locked, labels)
    except Exception as exc:  # noqa: BLE001 - attack failure is a result
        return BaselineResult(
            attack="SPS",
            scheme=result.scheme,
            success=False,
            reason=f"removal failed: {exc}",
            identified_gates=tuple(sorted(to_remove)),
            statistics={"best_ads": ads},
        )

    success = True
    reason = ""
    if verify:
        try:
            success = check_equivalence(
                recovered, result.original, method="auto"
            ).equivalent
            reason = "" if success else "recovered design not equivalent"
        except Exception as exc:  # noqa: BLE001
            success = False
            reason = f"equivalence check failed: {exc}"
    return BaselineResult(
        attack="SPS",
        scheme=result.scheme,
        success=success,
        reason=reason,
        recovered_circuit=recovered,
        identified_gates=tuple(sorted(to_remove)),
        statistics={"best_ads": ads, "candidate": candidate},
    )
