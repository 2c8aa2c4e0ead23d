"""Attack-wide configuration.

One object gathers every knob that controls dataset generation, GNN training
and the evaluation protocol so benchmark harnesses and examples stay short.
The defaults are the scaled-down "laptop" configuration; ``paper_scale()``
returns the configuration matching Table II of the paper.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Sequence, Tuple

from ..benchgen.profiles import DEFAULT_SIZE_SCALE
from ..gnn.model import GnnConfig

__all__ = ["AttackConfig"]


@dataclass(frozen=True)
class AttackConfig:
    """Configuration of an end-to-end GNNUnlock run."""

    #: Number of times each benchmark is locked per (K, h) setting.
    locks_per_setting: int = 2
    #: Key sizes per suite (the paper: ISCAS {8,16,32,64}, ITC {32,64,128}).
    iscas_key_sizes: Tuple[int, ...] = (8, 16, 32, 64)
    itc_key_sizes: Tuple[int, ...] = (32, 64, 128)
    #: Benchmark scaling knob (see repro.benchgen.profiles).
    size_scale: float = DEFAULT_SIZE_SCALE
    #: Synthesis technology for SFLL/TTLock datasets ("BENCH8" = no mapping).
    technology: str = "BENCH8"
    synthesis_effort: str = "medium"
    #: GNN hyper-parameters (hidden width, epochs, sampler, ...).
    gnn: GnnConfig = field(default_factory=GnnConfig)
    #: Random seed for dataset generation (keys, target nets, ...).
    seed: int = 11

    def with_gnn(self, **kwargs) -> "AttackConfig":
        """Copy of the config with GNN hyper-parameters overridden."""
        return replace(self, gnn=replace(self.gnn, **kwargs))

    def with_overrides(self, overrides: Mapping[str, object]) -> "AttackConfig":
        """Copy of the config with dotted-key overrides applied.

        Keys are either :class:`AttackConfig` field names (``seed``,
        ``locks_per_setting``, ...) or ``gnn.``-prefixed
        :class:`~repro.gnn.model.GnnConfig` field names (``gnn.epochs``).
        As a convenience, a bare GnnConfig field name (``epochs``) is also
        accepted — but AttackConfig takes precedence for names present in
        both, so ``seed`` always means the campaign/dataset seed; use
        ``gnn.seed`` to override the training seed.  Sequence-valued fields
        accept any sequence and are normalised to tuples so configs stay
        hashable.
        """
        own_fields = {f.name for f in dataclasses.fields(AttackConfig)}
        gnn_fields = {f.name for f in dataclasses.fields(GnnConfig)}
        own: Dict[str, object] = {}
        gnn: Dict[str, object] = {}
        for key, value in overrides.items():
            if key.startswith("gnn."):
                name = key[len("gnn."):]
                if name not in gnn_fields:
                    raise ValueError(f"unknown GnnConfig field {name!r}")
                gnn[name] = value
            elif key in own_fields:
                if key == "gnn":
                    raise ValueError("override GNN fields with 'gnn.<field>' keys")
                if isinstance(value, (list, tuple)):
                    value = tuple(value)
                own[key] = value
            elif key in gnn_fields:
                gnn[key] = value
            else:
                raise ValueError(
                    f"unknown AttackConfig override {key!r}; use a field name or "
                    "a 'gnn.'-prefixed GnnConfig field name"
                )
        config = replace(self, **own) if own else self
        return config.with_gnn(**gnn) if gnn else config

    def derive_seed(self, *parts: object) -> int:
        """Stable seed derived from the base seed and an identity tuple.

        Every randomised stage (locking one instance, training one model)
        seeds its generator from the *identity* of the work item rather than
        from execution order, so serial and parallel campaign runs produce
        bit-identical artifacts.
        """
        digest = hashlib.sha256(
            ("|".join(map(str, parts)) + f"|{self.seed}").encode()
        )
        return int.from_bytes(digest.digest()[:8], "big")

    def scaled_down(self) -> "AttackConfig":
        """A configuration small enough for unit tests (seconds per attack)."""
        return replace(
            self,
            locks_per_setting=1,
            iscas_key_sizes=(8,),
            itc_key_sizes=(32,),
            gnn=replace(self.gnn, hidden_dim=24, epochs=40, root_nodes=400),
        )

    def paper_scale(self) -> "AttackConfig":
        """The configuration reported in Table II (512 hidden, 2000 epochs)."""
        return replace(
            self,
            locks_per_setting=3,
            gnn=replace(
                self.gnn,
                hidden_dim=512,
                epochs=2000,
                patience=2000,
                root_nodes=3000,
            ),
        )
