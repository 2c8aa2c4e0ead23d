"""Pluggable locking-scheme registry.

Every locking scheme is one self-describing registered module: it declares
its canonical grid name and aliases, a typed parameter schema
(:class:`SchemeParam`), its ground-truth node-label class map, the
primary-input requirement per key size and the default synthesis technology.
Callers resolve a name with ``SCHEMES.get(name)``, then read
``.required_inputs(k)`` or ``.class_map`` or call ``.create(...)``.  Adding a
scheme means writing one module that calls :func:`register_scheme` —
generation, labelling, campaign validation, the ``repro schemes`` listing
and the capability matrix all pick it up from here.

Canonical names are the compact grid strings (``"antisat"``, ``"sfll"``,
``"xor"``...) that appear inside dataset fingerprints; they must never change
for an existing scheme or every cache and dedupe key shifts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from .base import LockingScheme

__all__ = [
    "SchemeInfo",
    "SchemeParam",
    "SchemeRegistry",
    "available_schemes",
    "find_scheme",
    "get_scheme",
    "register_scheme",
    "unregister_scheme",
    "SCHEMES",
]

#: Sentinel marking a parameter with no default (the caller must supply it).
_REQUIRED = object()


def _normalize(name: str) -> str:
    """Fold a scheme name to its lookup key (``"Anti-SAT"`` -> ``"antisat"``)."""
    return name.lower().replace("-", "").replace("_", "")


@dataclass(frozen=True)
class SchemeParam:
    """One typed parameter of a locking scheme (``key_size``, ``h``, ...)."""

    name: str
    type: type = int
    default: object = _REQUIRED
    minimum: Optional[int] = None
    maximum: Optional[int] = None
    description: str = ""

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED

    def validate(self, value: object, owner: str) -> object:
        if self.type is int and (
            isinstance(value, bool) or not isinstance(value, int)
        ):
            raise ValueError(
                f"{owner} parameter {self.name!r} must be an integer, "
                f"got {value!r}"
            )
        if not isinstance(value, self.type):
            raise ValueError(
                f"{owner} parameter {self.name!r} must be "
                f"{self.type.__name__}, got {value!r}"
            )
        if self.minimum is not None and value < self.minimum:
            raise ValueError(
                f"{owner} parameter {self.name!r} must be >= {self.minimum}, "
                f"got {value!r}"
            )
        if self.maximum is not None and value > self.maximum:
            raise ValueError(
                f"{owner} parameter {self.name!r} must be <= {self.maximum}, "
                f"got {value!r}"
            )
        return value

    def describe(self) -> Dict[str, object]:
        """JSON-friendly schema entry (``repro schemes --json``)."""
        payload: Dict[str, object] = {
            "name": self.name,
            "type": self.type.__name__,
            "required": self.required,
        }
        if not self.required:
            payload["default"] = self.default
        if self.minimum is not None:
            payload["minimum"] = self.minimum
        if self.maximum is not None:
            payload["maximum"] = self.maximum
        if self.description:
            payload["description"] = self.description
        return payload


@dataclass(frozen=True)
class SchemeInfo:
    """Self-description of one registered locking scheme."""

    #: Canonical grid name (``"antisat"``); part of dataset fingerprints.
    name: str
    #: Human-readable name; matches ``LockingResult.scheme`` of the factory's
    #: results so class maps resolve from either form.
    display_name: str
    #: Builds a ready :class:`LockingScheme` from validated parameters.
    factory: Callable[..., LockingScheme]
    #: Typed parameter schema, validated by :meth:`validate_params`.
    params: Tuple[SchemeParam, ...]
    #: Ground-truth label -> integer class for GNN training.
    class_map: Mapping[str, int]
    aliases: Tuple[str, ...] = ()
    description: str = ""
    #: Technology a grid entry maps onto when it names none.
    default_technology: str = "BENCH8"
    #: Primary inputs a circuit needs to be lockable at a key size.
    required_inputs: Callable[[int], int] = lambda key_size: key_size
    #: Whether the scheme takes the ``h`` grid parameter (``"sfll:2"``).
    uses_h: bool = False
    #: Drop the instance-level ``h`` in generated datasets (legacy: Anti-SAT
    #: instances record ``h=None`` even when a sweep-level h was supplied).
    strip_instance_h: bool = False
    #: Parameter values the standing capability matrix uses (e.g. a default
    #: ``h`` for SFLL, which has no universal default otherwise).
    matrix_params: Mapping[str, object] = field(default_factory=dict)
    #: Cross-parameter validation hook; raises ``ValueError`` on bad combos.
    check: Optional[Callable[[Dict[str, object]], None]] = None

    def lookup_keys(self) -> List[str]:
        keys = [self.name, self.display_name, *self.aliases]
        return sorted({_normalize(key) for key in keys})

    def validate_params(self, params: Mapping[str, object]) -> Dict[str, object]:
        """Type/range-check ``params`` against the schema; fill defaults.

        Raises :class:`ValueError` on an unknown parameter, a missing
        required one, a type mismatch or an out-of-range value — the same
        error surface for ``repro run``/``repro submit`` spec validation and
        direct :meth:`create` calls.
        """
        remaining = dict(params)
        values: Dict[str, object] = {}
        for spec in self.params:
            if spec.name in remaining:
                value = remaining.pop(spec.name)
            elif spec.required:
                raise ValueError(
                    f"{self.display_name} requires parameter {spec.name!r}"
                )
            else:
                value = spec.default
            values[spec.name] = spec.validate(value, self.display_name)
        if remaining:
            known = ", ".join(spec.name for spec in self.params)
            raise ValueError(
                f"unknown {self.display_name} parameter(s): "
                f"{', '.join(sorted(remaining))} (schema: {known})"
            )
        if self.check is not None:
            self.check(values)
        return values

    def create(self, **params: object) -> LockingScheme:
        """Instantiate the scheme from validated parameters."""
        return self.factory(**self.validate_params(params))

    def describe(self) -> Dict[str, object]:
        """JSON-friendly self-description (``repro schemes --json``)."""
        return {
            "name": self.name,
            "display_name": self.display_name,
            "aliases": list(self.aliases),
            "description": self.description,
            "params": [spec.describe() for spec in self.params],
            "classes": dict(self.class_map),
            "default_technology": self.default_technology,
            "uses_h": self.uses_h,
        }


class SchemeRegistry:
    """Name-indexed collection of :class:`SchemeInfo` entries."""

    def __init__(self) -> None:
        self._schemes: Dict[str, SchemeInfo] = {}
        self._index: Dict[str, SchemeInfo] = {}

    # ------------------------------------------------------------------
    def register(self, info: SchemeInfo) -> SchemeInfo:
        if info.name != _normalize(info.name):
            raise ValueError(
                f"canonical scheme name {info.name!r} must be normalized "
                "(lowercase, no separators)"
            )
        if info.name in self._schemes:
            raise ValueError(f"locking scheme {info.name!r} already registered")
        for key in info.lookup_keys():
            owner = self._index.get(key)
            if owner is not None:
                raise ValueError(
                    f"scheme name/alias {key!r} already taken by "
                    f"{owner.name!r}"
                )
        self._schemes[info.name] = info
        for key in info.lookup_keys():
            self._index[key] = info
        return info

    def unregister(self, name: str) -> None:
        """Remove a scheme (test seam; production schemes stay registered)."""
        info = self._schemes.pop(name, None)
        if info is None:
            raise ValueError(f"locking scheme {name!r} is not registered")
        for key in info.lookup_keys():
            self._index.pop(key, None)

    # ------------------------------------------------------------------
    def find(self, name: str) -> Optional[SchemeInfo]:
        """Resolve a name/alias/display name; ``None`` when unknown."""
        return self._index.get(_normalize(str(name)))

    def get(self, name: str) -> SchemeInfo:
        info = self.find(name)
        if info is None:
            raise ValueError(
                f"unknown locking scheme {name!r}; registered: "
                f"{', '.join(self.names())}"
            )
        return info

    def names(self) -> List[str]:
        """Canonical names of every registered scheme, sorted."""
        return sorted(self._schemes)

    def create(self, name: str, **params: object) -> LockingScheme:
        """``SchemeRegistry.create("antisat", key_size=8)`` — the one
        construction path harnesses and examples should use."""
        return self.get(name).create(**params)

    def __iter__(self) -> Iterator[SchemeInfo]:
        return iter(self._schemes[name] for name in self.names())

    def __len__(self) -> int:
        return len(self._schemes)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self.find(name) is not None


#: The process-wide registry.  Scheme modules register themselves on import;
#: importing :mod:`repro.locking` populates it with every built-in scheme.
SCHEMES = SchemeRegistry()


def register_scheme(info: SchemeInfo) -> SchemeInfo:
    """Register ``info`` in the global registry (module-bottom idiom)."""
    return SCHEMES.register(info)


def unregister_scheme(name: str) -> None:
    SCHEMES.unregister(name)


def get_scheme(name: str) -> SchemeInfo:
    """Resolve a scheme name/alias/display name or raise ``ValueError``."""
    return SCHEMES.get(name)


def find_scheme(name: str) -> Optional[SchemeInfo]:
    """Like :func:`get_scheme` but returns ``None`` for unknown names."""
    return SCHEMES.find(name)


def available_schemes() -> List[str]:
    """Canonical names of every registered scheme, sorted."""
    return SCHEMES.names()
