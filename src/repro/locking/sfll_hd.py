"""SFLL-HDh and TTLock logic locking [Yasin et al., CCS 2017 / GLSVLSI 2017].

Both schemes strip functionality from the design and restore it with a
key-controlled unit:

* the **perturb unit** hard-codes the secret key: it detects input patterns
  whose Hamming distance from the secret key equals ``h`` and flips the
  protected output for exactly those patterns (this is the
  "functionality-stripped circuit"),
* the **restore unit** compares the same inputs against the external key
  inputs and flips the output back; with the correct key the two flips cancel
  for every input pattern.

TTLock is the ``h = 0`` special case: the perturb unit is a key-dependent
AND-tree of (possibly inverted) inputs and the restore unit is a plain
comparator.  For ``h > 0`` both units are Hamming-distance checkers built from
a popcount adder tree and an equality comparator, which is what the paper's
``G`` block in Fig. 2d denotes.

Ground truth: perturb-unit gates (and the output-stripping XOR) are labelled
``PN``; restore-unit gates (and the restoring XOR) are labelled ``RN``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..netlist.circuit import Circuit
from .arith import (
    build_and_tree,
    build_equals_constant,
    build_inverter,
    build_popcount,
)
from .base import (
    DESIGN,
    PERTURB,
    RESTORE,
    LockingError,
    LockingResult,
    LockingScheme,
    insert_xor_on_net,
)
from .keys import key_assignment, key_input_names, random_key_bits
from .registry import SchemeInfo, SchemeParam, register_scheme

__all__ = ["SfllHdLocking", "TTLockLocking"]


class SfllHdLocking(LockingScheme):
    """SFLL-HDh locking.

    Parameters
    ----------
    key_size:
        Key width ``K`` (also the number of protected primary inputs).
    h:
        Hamming distance parameter.  ``h = 0`` degenerates to TTLock.
    target_output:
        Primary output to protect.  Randomly chosen when omitted.
    """

    name = "SFLL-HD"

    def __init__(self, key_size: int, h: int, *, target_output: Optional[str] = None):
        if key_size < 2:
            raise LockingError("SFLL-HD key size must be >= 2")
        if not 0 <= h <= key_size:
            raise LockingError(f"h must be in [0, {key_size}], got {h}")
        self.key_size = key_size
        self.h = h
        self.target_output = target_output

    # ------------------------------------------------------------------
    def lock(
        self,
        circuit: Circuit,
        *,
        rng: Optional[np.random.Generator] = None,
    ) -> LockingResult:
        rng = self._rng(rng)
        if len(circuit.inputs) < self.key_size:
            raise LockingError(
                f"{self.name} with K={self.key_size} needs {self.key_size} PIs, "
                f"circuit {circuit.name} has {len(circuit.inputs)}"
            )
        if len(circuit) == 0:
            raise LockingError("cannot lock an empty circuit")

        original = circuit.copy()
        locked = circuit.copy(
            f"{circuit.name}_{self.name.lower().replace('-', '')}"
            f"_k{self.key_size}_h{self.h}"
        )

        key_names = key_input_names(self.key_size)
        for name in key_names:
            locked.add_key_input(name)
        key_bits = random_key_bits(self.key_size, rng)
        key = key_assignment(key_names, key_bits)

        pi_pool = list(circuit.inputs)
        x_idx = rng.choice(len(pi_pool), size=self.key_size, replace=False)
        x_nets = [pi_pool[int(i)] for i in sorted(x_idx)]
        target = self._choose_target(original, rng)

        perturb_created: List[str] = []
        restore_created: List[str] = []

        def perturb_namer(tag: str) -> str:
            return locked.fresh_net_name(f"ptb_{tag}")

        def restore_namer(tag: str) -> str:
            return locked.fresh_net_name(f"rst_{tag}")

        flip = self._build_perturb_unit(
            locked, x_nets, key_bits, perturb_namer, perturb_created
        )
        restore = self._build_restore_unit(
            locked, x_nets, key_names, restore_namer, restore_created
        )

        # Strip the protected output, then restore it.  After the second
        # splice the stripping XOR has been renamed to a shadow net; the gate
        # named ``target`` is the restoring XOR.
        insert_xor_on_net(locked, target, flip)
        strip_gate = insert_xor_on_net(locked, target, restore)
        perturb_created.append(strip_gate)
        restore_created.append(target)

        labels: Dict[str, str] = {g: DESIGN for g in locked.gate_names()}
        for g in perturb_created:
            labels[g] = PERTURB
        for g in restore_created:
            labels[g] = RESTORE

        return LockingResult(
            scheme=self.name if self.h > 0 else "TTLock",
            original=original,
            locked=locked,
            key=key,
            labels=labels,
            target_net=target,
            protected_inputs=tuple(x_nets),
            parameters={"key_size": self.key_size, "h": self.h},
        )

    # ------------------------------------------------------------------
    def _choose_target(self, original: Circuit, rng: np.random.Generator) -> str:
        """Pick the primary output whose function is stripped."""
        if self.target_output is not None:
            if not original.is_output(self.target_output) or not original.has_gate(
                self.target_output
            ):
                raise LockingError(
                    f"target output {self.target_output} is not a gate-driven PO"
                )
            return self.target_output
        candidates = [po for po in original.outputs if original.has_gate(po)]
        if not candidates:
            raise LockingError("no gate-driven primary output to protect")
        return candidates[int(rng.integers(0, len(candidates)))]

    def _build_perturb_unit(
        self,
        locked: Circuit,
        x_nets: Sequence[str],
        key_bits: np.ndarray,
        namer,
        created: List[str],
    ) -> str:
        """Flip signal: 1 iff HD(X_sel, hard-coded key) == h."""
        if self.h == 0:
            # TTLock: AND-tree of per-bit matches; the structure (which inputs
            # are inverted) depends on the secret key, exactly as the paper
            # describes.
            match_bits = []
            for x, k in zip(x_nets, key_bits):
                if k:
                    match_bits.append(x)
                else:
                    match_bits.append(build_inverter(locked, x, namer, created))
            return build_and_tree(locked, match_bits, namer, created, tag="match")
        mismatch_bits = []
        for x, k in zip(x_nets, key_bits):
            if k:
                mismatch_bits.append(build_inverter(locked, x, namer, created))
            else:
                mismatch_bits.append(x)
        count = build_popcount(locked, mismatch_bits, namer, created, tag="cnt")
        return build_equals_constant(locked, count, self.h, namer, created, tag="hd")

    def _build_restore_unit(
        self,
        locked: Circuit,
        x_nets: Sequence[str],
        key_names: Sequence[str],
        namer,
        created: List[str],
    ) -> str:
        """Restore signal: 1 iff HD(X_sel, key inputs) == h."""
        if self.h == 0:
            # Basic comparator: AND-tree of XNORs.
            match_bits = []
            for i, (x, k) in enumerate(zip(x_nets, key_names)):
                net = namer(f"cmp_{i}")
                locked.add_gate(net, "XNOR", [x, k])
                created.append(net)
                match_bits.append(net)
            return build_and_tree(locked, match_bits, namer, created, tag="cmp")
        mismatch_bits = []
        for i, (x, k) in enumerate(zip(x_nets, key_names)):
            net = namer(f"mm_{i}")
            locked.add_gate(net, "XOR", [x, k])
            created.append(net)
            mismatch_bits.append(net)
        count = build_popcount(locked, mismatch_bits, namer, created, tag="cnt")
        return build_equals_constant(locked, count, self.h, namer, created, tag="hd")


class TTLockLocking(SfllHdLocking):
    """TTLock: protect the single input pattern equal to the secret key."""

    name = "TTLock"

    def __init__(self, key_size: int, *, target_output: Optional[str] = None):
        super().__init__(key_size, 0, target_output=target_output)


_SFLL_CLASS_MAP = {DESIGN: 0, RESTORE: 1, PERTURB: 2}


def _make_sfll(key_size: int, h: int) -> SfllHdLocking:
    # h = 0 protects only the key pattern itself: that is TTLock.
    return TTLockLocking(key_size) if h == 0 else SfllHdLocking(key_size, h)


def _check_sfll(params: Dict[str, object]) -> None:
    if params["h"] > params["key_size"]:  # type: ignore[operator]
        raise ValueError(
            f"h must be in [0, {params['key_size']}], got {params['h']}"
        )


register_scheme(
    SchemeInfo(
        name="ttlock",
        display_name="TTLock",
        factory=TTLockLocking,
        params=(
            SchemeParam(
                "key_size",
                minimum=2,
                description="key width K (= number of protected primary inputs)",
            ),
        ),
        class_map=_SFLL_CLASS_MAP,
        description="SFLL-HD with h = 0: protects the single pattern equal to the key",
        default_technology="GEN65",
    )
)

register_scheme(
    SchemeInfo(
        name="sfll",
        display_name="SFLL-HD",
        factory=_make_sfll,
        params=(
            SchemeParam(
                "key_size",
                minimum=2,
                description="key width K (= number of protected primary inputs)",
            ),
            SchemeParam(
                "h",
                minimum=0,
                description="Hamming distance of protected patterns from the key",
            ),
        ),
        class_map=_SFLL_CLASS_MAP,
        aliases=("sfllhd",),
        description=(
            "Stripped-functionality locking: Hamming-distance perturb unit "
            "cancelled by a key-driven restore unit"
        ),
        default_technology="GEN65",
        uses_h=True,
        matrix_params={"h": 2},
        check=_check_sfll,
    )
)
