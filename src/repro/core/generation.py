"""Dataset generation (Section IV-A / V-A of the paper).

Each benchmark is locked several times per key-size with freshly drawn random
keys, producing the per-scheme datasets of Table III.  SFLL / TTLock datasets
are synthesised onto a standard-cell-like library afterwards (the paper's
Design Compiler step); Anti-SAT datasets stay in the bench vocabulary because
the original Anti-SAT locking tool only handles bench files.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..benchgen.profiles import ALL_PROFILES
from ..benchgen.registry import get_benchmark
from ..locking import SCHEMES
from ..locking.base import LockingError
from ..synth.flow import SynthesisOptions, synthesize_locked
from .config import AttackConfig
from .dataset import LockedInstance, NodeDataset, build_dataset

__all__ = [
    "generate_instances",
    "generate_dataset",
    "suite_benchmarks",
    "suite_key_sizes",
]


def suite_benchmarks(suite: str) -> List[str]:
    """Benchmark names of a suite (``"ISCAS-85"`` or ``"ITC-99"``)."""
    suite_norm = suite.upper().replace("_", "-")
    names = [
        name for name, prof in ALL_PROFILES.items() if prof.suite.upper() == suite_norm
    ]
    if not names:
        raise ValueError(f"unknown benchmark suite {suite!r}")
    return sorted(names)


def suite_key_sizes(suite: str, config: AttackConfig) -> Sequence[int]:
    """Key sizes the paper uses for a suite."""
    suite_norm = suite.upper().replace("_", "-")
    return (
        config.iscas_key_sizes if suite_norm == "ISCAS-85" else config.itc_key_sizes
    )


def generate_instances(
    scheme: str,
    benchmarks: Iterable[str],
    *,
    key_sizes: Sequence[int],
    h: Optional[int] = None,
    config: AttackConfig = AttackConfig(),
    technology: Optional[str] = None,
) -> List[LockedInstance]:
    """Lock every benchmark ``locks_per_setting`` times for every key size.

    Benchmarks whose PI count cannot support a key size are skipped for that
    key size — this reproduces the paper's note that ``c3540`` is not locked
    with K = 64 "due to the limited number of PIs in the design".
    """
    technology = technology if technology is not None else config.technology
    info = SCHEMES.get(scheme)
    # A sweep-level h only reaches schemes that take one (SFLL-HD).
    params = {"h": h} if info.uses_h and h is not None else {}
    # Legacy datasets record h = None for schemes that ignore the sweep-level
    # h (Anti-SAT); the registry flag keeps those fingerprints byte-identical.
    strip_h = info.strip_instance_h
    instances: List[LockedInstance] = []
    for bench_name in benchmarks:
        profile = ALL_PROFILES[bench_name]
        circuit = get_benchmark(bench_name, size_scale=config.size_scale)
        for key_size in key_sizes:
            if len(circuit.inputs) < info.required_inputs(key_size):
                continue
            for copy_index in range(config.locks_per_setting):
                rng = np.random.default_rng(
                    config.derive_seed(scheme, bench_name, key_size, h, copy_index)
                )
                locker = info.create(key_size=key_size, **params)
                result = locker.lock(circuit.copy(), rng=rng)
                if technology.upper() != "BENCH8":
                    result = synthesize_locked(
                        result,
                        SynthesisOptions(
                            technology=technology, effort=config.synthesis_effort
                        ),
                    )
                instances.append(
                    LockedInstance(
                        benchmark=bench_name,
                        suite=profile.suite,
                        result=result,
                        key_size=key_size,
                        h=None if strip_h else h,
                        technology=technology.upper(),
                        copy_index=copy_index,
                    )
                )
    if not instances:
        raise LockingError(
            f"no benchmark could be locked with scheme {scheme} and key sizes "
            f"{list(key_sizes)}"
        )
    return instances


def generate_dataset(
    scheme: str,
    suite: str,
    *,
    h: Optional[int] = None,
    config: AttackConfig = AttackConfig(),
    technology: Optional[str] = None,
    key_sizes: Optional[Sequence[int]] = None,
) -> NodeDataset:
    """Generate one of the paper's datasets (Table III rows)."""
    benchmarks = suite_benchmarks(suite)
    key_sizes = key_sizes if key_sizes is not None else suite_key_sizes(suite, config)
    instances = generate_instances(
        scheme,
        benchmarks,
        key_sizes=key_sizes,
        h=h,
        config=config,
        technology=technology,
    )
    return build_dataset(instances)
