"""Declarative attack campaigns.

A :class:`CampaignSpec` describes a grid of
``{benchmark suite x locking scheme x key-size group x AttackConfig
overrides x attack}`` and expands it into independent, deterministically
seeded :class:`AttackTask` units.  One task = one attack on one target
benchmark; tasks that share a :class:`DatasetSpec` reuse the same generated
(and cached) locked dataset.

Scheme grid entries are compact strings::

    "antisat"            Anti-SAT, bench-format netlists
    "ttlock"             TTLock on the default GEN65 library
    "sfll:2"             SFLL-HD with h = 2
    "sfll:4@GEN45"       SFLL-HD4 mapped onto the 45nm-like library
    "xor"                random XOR/XNOR locking (baseline campaigns)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..benchgen.profiles import ALL_PROFILES, DEFAULT_SIZE_SCALE
from ..core.config import AttackConfig
from ..core.dataset import LockedInstance, NodeDataset, build_dataset
from ..core.generation import (
    generate_instances,
    suite_benchmarks,
    suite_key_sizes,
)
from ..gnn.model import GnnConfig
from ..locking import available_schemes, find_scheme, get_scheme
from .cache import fingerprint

__all__ = [
    "AttackTask",
    "BASELINE_ATTACKS",
    "CampaignSpec",
    "DatasetSpec",
    "PROFILES",
    "SchemeSpec",
    "config_from_dict",
    "config_to_dict",
    "parse_scheme_spec",
    "registered_attacks",
    "profile_campaign",
    "profile_config",
    "profile_suites",
]

#: Baseline attacks the runner can schedule besides GNNUnlock; values are the
#: dotted entry points resolved lazily inside the worker (keeps imports cheap).
BASELINE_ATTACKS: Dict[str, str] = {
    "sat": "repro.baselines.sat_attack",
    "sps": "repro.baselines.sps_attack",
    "fall": "repro.baselines.fall_attack",
    "sfll-hd-unlocked": "repro.baselines.sfll_hd_unlocked_attack",
}

def registered_attacks(*, include_summary: bool = False) -> Tuple[str, ...]:
    """Every attack the runner can schedule, sorted.

    ``dataset-summary`` is a diagnostic rather than an attack; the capability
    matrix excludes it unless ``include_summary`` is set.
    """
    names = set(BASELINE_ATTACKS) | {"gnnunlock"}
    if include_summary:
        names.add("dataset-summary")
    return tuple(sorted(names))


@dataclass(frozen=True)
class SchemeSpec:
    """Parsed form of a ``scheme[:h][@TECH]`` grid entry."""

    scheme: str
    h: Optional[int] = None
    technology: str = "BENCH8"

    def __str__(self) -> str:
        text = self.scheme
        if self.h is not None:
            text += f":{self.h}"
        return f"{text}@{self.technology}"


def parse_scheme_spec(spec: str) -> SchemeSpec:
    """Parse ``"sfll:2@GEN65"``-style grid entries."""
    if isinstance(spec, SchemeSpec):
        return spec
    text = spec.strip()
    technology: Optional[str] = None
    if "@" in text:
        text, technology = text.split("@", 1)
    h: Optional[int] = None
    if ":" in text:
        text, h_text = text.split(":", 1)
        h = int(h_text)
    info = find_scheme(text)
    if info is None:
        raise ValueError(
            f"unknown locking scheme in grid entry {spec!r}; registered: "
            f"{', '.join(available_schemes())}"
        )
    if info.uses_h and h is None:
        raise ValueError(
            f"{info.display_name} grid entries need an h value, e.g. "
            f"'{info.name}:2' ({spec!r})"
        )
    if h is not None and not info.uses_h:
        raise ValueError(
            f"{info.display_name} does not take an h value ({spec!r})"
        )
    return SchemeSpec(
        scheme=info.name,
        h=h,
        technology=(technology or info.default_technology).upper(),
    )


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DatasetSpec:
    """Everything that determines one generated locked dataset.

    The fields are exactly the inputs of
    :func:`repro.core.generation.generate_instances` — two equal specs
    produce bit-identical datasets, which is what makes the content-addressed
    cache sound.
    """

    scheme: str
    suite: str
    benchmarks: Tuple[str, ...]
    key_sizes: Tuple[int, ...]
    h: Optional[int] = None
    technology: str = "BENCH8"
    locks_per_setting: int = 1
    size_scale: float = DEFAULT_SIZE_SCALE
    synthesis_effort: str = "medium"
    seed: int = 11

    def canonical(self) -> Dict[str, object]:
        payload = dataclasses.asdict(self)
        payload["kind"] = "dataset"
        return payload

    def fingerprint(self) -> str:
        return fingerprint(self.canonical())

    def to_config(self, base: Optional[AttackConfig] = None) -> AttackConfig:
        """AttackConfig whose generation-relevant fields match this spec."""
        base = base if base is not None else AttackConfig()
        return dataclasses.replace(
            base,
            locks_per_setting=self.locks_per_setting,
            size_scale=self.size_scale,
            synthesis_effort=self.synthesis_effort,
            seed=self.seed,
        )

    def generate(self) -> List[LockedInstance]:
        """Generate the locked instances this spec describes."""
        return generate_instances(
            self.scheme,
            self.benchmarks,
            key_sizes=self.key_sizes,
            h=self.h,
            config=self.to_config(),
            technology=self.technology,
        )

    def build(self, instances: Sequence[LockedInstance]) -> NodeDataset:
        return build_dataset(instances)


@dataclass(frozen=True)
class AttackTask:
    """One schedulable unit: one attack against one target benchmark."""

    task_id: str
    dataset: DatasetSpec
    target_benchmark: str
    attack: str = "gnnunlock"
    validation_benchmark: Optional[str] = None
    config: AttackConfig = field(default_factory=AttackConfig)
    verify_removal: bool = True
    apply_postprocessing: bool = True
    #: Extra kwargs for baseline attack functions, as a hashable item tuple.
    attack_params: Tuple[Tuple[str, object], ...] = ()
    #: Wall-clock budget measured from campaign submission (None = unlimited).
    timeout_s: Optional[float] = None

    def canonical(self) -> Dict[str, object]:
        """Identity of the task *result* (excludes scheduling details)."""
        return {
            "kind": "task",
            "dataset": self.dataset.canonical(),
            "target": self.target_benchmark,
            "attack": self.attack,
            "validation": self.validation_benchmark,
            "gnn": dict(self.config.gnn.__dict__),
            "verify_removal": self.verify_removal,
            "apply_postprocessing": self.apply_postprocessing,
            "attack_params": sorted(self.attack_params),
        }

    def fingerprint(self) -> str:
        return fingerprint(self.canonical())

    def model_canonical(self) -> Dict[str, object]:
        """Identity of the trained model (prediction-stage knobs excluded)."""
        return {
            "kind": "model",
            "dataset": self.dataset.canonical(),
            "target": self.target_benchmark,
            "validation": self.validation_benchmark,
            "gnn": dict(self.config.gnn.__dict__),
        }

    def model_fingerprint(self) -> str:
        return fingerprint(self.model_canonical())


# ----------------------------------------------------------------------
# AttackConfig <-> JSON.  The service accepts campaign submissions over the
# wire, so specs need a faithful, validating round-trip through plain JSON.


def config_to_dict(config: AttackConfig) -> Dict[str, object]:
    """Flatten an :class:`AttackConfig` (nested GnnConfig included) to JSON."""
    return dataclasses.asdict(config)


def config_from_dict(payload: Mapping[str, object]) -> AttackConfig:
    """Rebuild an :class:`AttackConfig` from :func:`config_to_dict` output.

    Unknown fields raise :class:`ValueError` (a typo in a submitted spec must
    not silently fall back to a default), sequences are normalised to tuples
    so the config stays hashable, and the result is type-checked with
    :func:`validate_config`.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(f"config must be a JSON object, got {type(payload).__name__}")
    own_fields = {f.name for f in dataclasses.fields(AttackConfig)}
    unknown = sorted(set(payload) - own_fields)
    if unknown:
        raise ValueError(f"unknown AttackConfig field(s): {', '.join(unknown)}")
    data = dict(payload)
    gnn_payload = data.pop("gnn", None)
    gnn = GnnConfig()
    if gnn_payload is not None:
        if not isinstance(gnn_payload, Mapping):
            raise ValueError("config field 'gnn' must be a JSON object")
        gnn_fields = {f.name for f in dataclasses.fields(GnnConfig)}
        unknown = sorted(set(gnn_payload) - gnn_fields)
        if unknown:
            raise ValueError(f"unknown GnnConfig field(s): {', '.join(unknown)}")
        gnn = GnnConfig(**dict(gnn_payload))
    for key, value in data.items():
        if isinstance(value, (list, tuple)):
            data[key] = tuple(value)
    config = AttackConfig(gnn=gnn, **data)
    validate_config(config)
    return config


def validate_config(config: AttackConfig) -> None:
    """Type-check every config field against the dataclass defaults.

    Catches specs that would only explode deep inside a worker (e.g. a CLI
    override like ``gnn.epochs=abc`` or a JSON submission carrying a string
    where an int belongs) while they are still cheap to reject.
    """

    def check(obj: object, prefix: str) -> None:
        defaults = type(obj)()
        for spec_field in dataclasses.fields(obj):
            value = getattr(obj, spec_field.name)
            default = getattr(defaults, spec_field.name)
            name = f"{prefix}{spec_field.name}"
            if dataclasses.is_dataclass(default):
                check(value, f"{name}.")
                continue
            if isinstance(default, bool):
                ok = isinstance(value, bool)
            elif isinstance(default, int):
                ok = isinstance(value, int) and not isinstance(value, bool)
            elif isinstance(default, float):
                ok = isinstance(value, (int, float)) and not isinstance(value, bool)
            elif isinstance(default, str):
                ok = isinstance(value, str)
            elif isinstance(default, tuple):
                ok = isinstance(value, (list, tuple)) and all(
                    isinstance(item, int) and not isinstance(item, bool)
                    for item in value
                )
            else:
                continue
            if not ok:
                raise ValueError(
                    f"invalid value for {name}: {value!r} "
                    f"(expected {type(default).__name__})"
                )

    check(config, "")


#: Attacks schedulable besides the baselines (see :data:`BASELINE_ATTACKS`).
_BUILTIN_ATTACKS = ("gnnunlock", "dataset-summary")


# ----------------------------------------------------------------------
def _lockable(scheme: str, benchmark: str, key_sizes: Sequence[int], size_scale: float) -> bool:
    """Whether at least one key size of the group fits the benchmark's PIs."""
    profile = ALL_PROFILES.get(benchmark)
    if profile is None:
        return True  # unknown names fail at generation time with a clear error
    n_inputs = profile.scaled(size_scale)[0]
    required = get_scheme(scheme).required_inputs
    return any(n_inputs >= required(k) for k in key_sizes)


@dataclass
class CampaignSpec:
    """Declarative grid of attack tasks.

    ``expand()`` produces the cartesian product of suites, schemes, key-size
    groups, config overrides and attacks, one task per target benchmark.
    Targets whose stand-in has too few primary inputs for every key size of a
    group are skipped, mirroring :func:`generate_instances`.
    """

    name: str = "campaign"
    schemes: Sequence[str] = ("antisat",)
    suites: Sequence[str] = ("ISCAS-85",)
    #: Key-size groups; each group is the sweep of ONE dataset.  ``None``
    #: uses the suite's paper sweep from the config as a single group.
    key_size_groups: Optional[Sequence[Sequence[int]]] = None
    #: Benchmarks forming each dataset; ``None`` = the whole suite.
    benchmarks: Optional[Sequence[str]] = None
    #: Benchmarks to attack; ``None`` = every dataset benchmark.
    targets: Optional[Sequence[str]] = None
    #: AttackConfig override grid (see :meth:`AttackConfig.with_overrides`).
    overrides: Sequence[Mapping[str, object]] = field(default_factory=lambda: ({},))
    attacks: Sequence[str] = ("gnnunlock",)
    attack_params: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    #: Post-processing grid axis for GNNUnlock tasks; ``(True, False)`` runs
    #: every attack with and without rectification (the Section V ablation).
    #: Both variants share one trained model, so the ablation trains once.
    postprocessing: Sequence[bool] = (True,)
    config: AttackConfig = field(default_factory=AttackConfig)
    timeout_s: Optional[float] = None
    #: Derive a distinct GNN training seed per task from the task identity.
    #: Identity-based (not order-based), so serial and parallel runs agree.
    derive_gnn_seeds: bool = True

    def expand(self) -> List[AttackTask]:
        tasks: List[AttackTask] = []
        overrides = list(self.overrides) or [{}]
        for suite in self.suites:
            pool = tuple(self.benchmarks or suite_benchmarks(suite))
            for scheme_text in self.schemes:
                spec = parse_scheme_spec(scheme_text)
                for override_idx, override in enumerate(overrides):
                    config = self.config.with_overrides(override)
                    groups = self.key_size_groups or (
                        tuple(suite_key_sizes(suite, config)),
                    )
                    for group in groups:
                        group = tuple(int(k) for k in group)
                        dataset = DatasetSpec(
                            scheme=spec.scheme,
                            suite=suite,
                            benchmarks=pool,
                            key_sizes=group,
                            h=spec.h,
                            technology=spec.technology,
                            locks_per_setting=config.locks_per_setting,
                            size_scale=config.size_scale,
                            synthesis_effort=config.synthesis_effort,
                            seed=config.seed,
                        )
                        targets = tuple(self.targets or pool)
                        for attack in self.attacks:
                            for target in targets:
                                if target not in pool:
                                    raise ValueError(
                                        f"target {target!r} is not part of the "
                                        f"dataset benchmarks {pool}"
                                    )
                                if not _lockable(
                                    spec.scheme, target, group, config.size_scale
                                ):
                                    continue
                                pp_axis = (
                                    tuple(self.postprocessing) or (True,)
                                    if attack == "gnnunlock"
                                    else (True,)
                                )
                                for apply_pp in pp_axis:
                                    tasks.append(
                                        self._make_task(
                                            spec, suite, dataset, group,
                                            override_idx, len(overrides),
                                            attack, target, config,
                                            apply_postprocessing=apply_pp,
                                        )
                                    )
        return tasks

    def _make_task(
        self,
        spec: SchemeSpec,
        suite: str,
        dataset: DatasetSpec,
        group: Tuple[int, ...],
        override_idx: int,
        n_overrides: int,
        attack: str,
        target: str,
        config: AttackConfig,
        *,
        apply_postprocessing: bool = True,
    ) -> AttackTask:
        key_part = "k" + ".".join(str(k) for k in group)
        id_parts = [self.name, str(spec), suite, key_part]
        if n_overrides > 1:
            id_parts.append(f"ov{override_idx}")
        id_parts += [attack, target]
        if not apply_postprocessing:
            id_parts.append("raw")
        task_config = config
        if self.derive_gnn_seeds and attack == "gnnunlock":
            # The seed ignores the post-processing axis on purpose: both
            # ablation variants must share one trained (and cached) model.
            task_config = config.with_gnn(
                seed=config.derive_seed(
                    "gnn", str(spec), suite, key_part, override_idx, target
                )
                % (2**32)
            )
        params = tuple(sorted(self.attack_params.get(attack, {}).items()))
        return AttackTask(
            task_id="/".join(id_parts),
            dataset=dataset,
            target_benchmark=target,
            attack=attack,
            config=task_config,
            apply_postprocessing=apply_postprocessing,
            attack_params=params,
            timeout_s=self.timeout_s,
        )

    # ------------------------------------------------------------------
    # JSON round-trip and validation (the campaign service's wire format).

    def to_json_dict(self) -> Dict[str, object]:
        """Plain-JSON rendering of the spec; inverse of :meth:`from_json_dict`.

        Tuples become lists and scheme entries become their compact string
        form, so the payload survives ``json.dumps``/``json.loads`` and two
        specs that expand identically serialise identically.
        """

        def names(values: Optional[Sequence[object]]) -> Optional[List[str]]:
            return None if values is None else [str(v) for v in values]

        return {
            "name": str(self.name),
            "schemes": [str(parse_scheme_spec(s)) for s in self.schemes],
            "suites": [str(s) for s in self.suites],
            "key_size_groups": (
                None
                if self.key_size_groups is None
                else [[int(k) for k in group] for group in self.key_size_groups]
            ),
            "benchmarks": names(self.benchmarks),
            "targets": names(self.targets),
            "overrides": [dict(override) for override in self.overrides],
            "attacks": [str(a) for a in self.attacks],
            "attack_params": {
                str(attack): dict(params)
                for attack, params in self.attack_params.items()
            },
            "postprocessing": [bool(p) for p in self.postprocessing],
            "config": config_to_dict(self.config),
            "timeout_s": None if self.timeout_s is None else float(self.timeout_s),
            "derive_gnn_seeds": bool(self.derive_gnn_seeds),
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, object]) -> "CampaignSpec":
        """Rebuild a spec from :meth:`to_json_dict` output (or hand-written
        JSON), rejecting unknown fields with a clear message.

        A ``"priority"`` key is dropped: job snapshots and clients from
        releases whose service scheduled by priority still send it.
        """
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"campaign spec must be a JSON object, got {type(payload).__name__}"
            )
        data = dict(payload)
        data.pop("priority", None)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown CampaignSpec field(s): {', '.join(unknown)}")

        def listy(key: str, value: object) -> list:
            if isinstance(value, (str, Mapping)) or not hasattr(value, "__iter__"):
                raise ValueError(f"campaign field {key!r} must be a JSON array")
            return list(value)

        kwargs: Dict[str, object] = {}
        if "config" in data:
            kwargs["config"] = config_from_dict(data.pop("config"))
        for key in ("schemes", "suites", "attacks"):
            if key in data and data[key] is not None:
                kwargs[key] = tuple(str(v) for v in listy(key, data.pop(key)))
        for key in ("benchmarks", "targets"):
            if key in data:
                value = data.pop(key)
                if value is not None:
                    kwargs[key] = tuple(str(v) for v in listy(key, value))
        if data.get("key_size_groups") is not None:
            groups = listy("key_size_groups", data.pop("key_size_groups"))
            try:
                kwargs["key_size_groups"] = tuple(
                    tuple(int(k) for k in listy("key_size_groups", group))
                    for group in groups
                )
            except (TypeError, ValueError):
                raise ValueError(
                    "campaign field 'key_size_groups' must be an array of "
                    "integer arrays, e.g. [[8, 16], [32]]"
                ) from None
        else:
            data.pop("key_size_groups", None)
        if "overrides" in data:
            overrides = listy("overrides", data.pop("overrides"))
            if not all(isinstance(o, Mapping) for o in overrides):
                raise ValueError(
                    "campaign field 'overrides' must be an array of objects, "
                    'e.g. [{}, {"gnn.epochs": 5}]'
                )
            kwargs["overrides"] = tuple(dict(o) for o in overrides)
        if "attack_params" in data:
            params_map = data.pop("attack_params")
            if not isinstance(params_map, Mapping) or not all(
                isinstance(p, Mapping) for p in params_map.values()
            ):
                raise ValueError(
                    "campaign field 'attack_params' must map attack names to "
                    'objects, e.g. {"sat": {"max_iterations": 12}}'
                )
            kwargs["attack_params"] = {
                str(attack): dict(params) for attack, params in params_map.items()
            }
        if "postprocessing" in data:
            kwargs["postprocessing"] = tuple(
                bool(p) for p in listy("postprocessing", data.pop("postprocessing"))
            )
        kwargs.update(data)  # name, timeout_s, derive_gnn_seeds pass through
        return cls(**kwargs)

    def canonical(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"kind": "campaign"}
        payload.update(self.to_json_dict())
        return payload

    def fingerprint(self) -> str:
        """Content address of the whole campaign (used for job dedup)."""
        return fingerprint(self.canonical())

    def validate(self) -> List[AttackTask]:
        """Check the spec end to end and return its expanded tasks.

        Raises :class:`ValueError` — never a raw traceback from deep inside a
        worker — on an unknown scheme, suite, benchmark, target or attack and
        on config values of the wrong type.  Called by ``repro run`` before
        executing (or dry-run printing) anything and by the campaign service
        on every submission.
        """
        if not isinstance(self.name, str):
            raise ValueError(f"campaign name must be a string, got {self.name!r}")
        if self.timeout_s is not None and (
            isinstance(self.timeout_s, bool)
            or not isinstance(self.timeout_s, (int, float))
        ):
            raise ValueError(
                f"timeout_s must be a number of seconds or null, got "
                f"{self.timeout_s!r}"
            )
        for scheme in self.schemes:
            parse_scheme_spec(scheme)
        for suite in self.suites:
            suite_benchmarks(suite)
        for kind, values in (("benchmark", self.benchmarks), ("target", self.targets)):
            for name in values or ():
                if name not in ALL_PROFILES:
                    raise ValueError(
                        f"unknown {kind} {name!r}; choose from "
                        f"{', '.join(sorted(ALL_PROFILES))}"
                    )
        known_attacks = set(_BUILTIN_ATTACKS) | set(BASELINE_ATTACKS)
        for attack in self.attacks:
            if attack not in known_attacks:
                raise ValueError(
                    f"unknown attack {attack!r}; choose from {sorted(known_attacks)}"
                )
        for group in self.key_size_groups or ():
            for key_size in group:
                if int(key_size) <= 0:
                    raise ValueError(f"key sizes must be positive, got {key_size!r}")
        self._validate_scheme_params()
        validate_config(self.config)
        for override in self.overrides:
            validate_config(self.config.with_overrides(override))
        return self.expand()

    def _validate_scheme_params(self) -> None:
        """Typed scheme-parameter validation at spec time.

        Runs every (scheme, key size) combination the grid will expand to
        through the registry's parameter schema, so an out-of-range ``h`` or
        an invalid key size is rejected here (CLI exit 2 / HTTP 400) instead
        of raising deep inside dataset generation on a worker.
        """
        for scheme_text in self.schemes:
            spec = parse_scheme_spec(scheme_text)
            info = get_scheme(spec.scheme)
            key_sizes = set()
            for group in self.key_size_groups or ():
                key_sizes.update(int(k) for k in group)
            if self.key_size_groups is None:
                for suite in self.suites:
                    for override in list(self.overrides) or [{}]:
                        config = self.config.with_overrides(override)
                        key_sizes.update(
                            int(k) for k in suite_key_sizes(suite, config)
                        )
            for key_size in sorted(key_sizes):
                params: Dict[str, object] = {"key_size": key_size}
                if info.uses_h:
                    params["h"] = spec.h
                try:
                    info.validate_params(params)
                except ValueError as exc:
                    raise ValueError(
                        f"invalid parameters for scheme {scheme_text!r}: {exc}"
                    ) from None


# ----------------------------------------------------------------------
# Workload profiles (shared by the CLI and the benchmark harnesses).

PROFILES: Tuple[str, ...] = ("quick", "full")


def profile_config(profile: str = "quick") -> AttackConfig:
    """The AttackConfig of a named workload profile.

    * ``quick``  — ISCAS-only, one lock per setting, reduced key sweep;
      every paper table regenerates in well under a minute.
    * ``full``   — both suites, the paper's sweeps, two locks per setting;
      tens of minutes on a laptop CPU.
    """
    profile = profile.lower()
    if profile == "full":
        return AttackConfig(
            locks_per_setting=2,
            iscas_key_sizes=(8, 16, 32, 64),
            itc_key_sizes=(32, 64, 128),
            seed=11,
        ).with_gnn(hidden_dim=64, epochs=120, root_nodes=1500, eval_every=10)
    if profile == "quick":
        return AttackConfig(
            locks_per_setting=1,
            iscas_key_sizes=(8, 16, 32),
            itc_key_sizes=(32, 64),
            seed=11,
        ).with_gnn(hidden_dim=32, epochs=60, root_nodes=600, eval_every=5)
    raise ValueError(f"unknown profile {profile!r}; choose from {PROFILES}")


def profile_suites(profile: str = "quick") -> Tuple[str, ...]:
    """Benchmark suites a profile covers."""
    return ("ISCAS-85", "ITC-99") if profile.lower() == "full" else ("ISCAS-85",)


def profile_campaign(profile: str = "quick", **kwargs) -> CampaignSpec:
    """A ready-to-run campaign for a workload profile.

    Keyword arguments override any :class:`CampaignSpec` field, so callers
    can narrow the grid (``schemes=("antisat",), targets=("c2670",)``).
    """
    fields = {
        "name": f"{profile}-campaign",
        "schemes": ("antisat",),
        "suites": profile_suites(profile),
        "config": profile_config(profile),
    }
    fields.update(kwargs)
    return CampaignSpec(**fields)
