"""Bearer-token authentication for the service.

The tokens file is JSON mapping each secret token string to its grant::

    {
      "tokens": {
        "s3cret-alice": {"name": "alice", "role": "submit"},
        "s3cret-ops":   {"name": "ops", "role": "admin"}
      }
    }

* ``name`` identifies the principal; jobs record it as their owner.  Two
  tokens may share a name (key rotation) — they share job ownership.
* ``role`` is ``"submit"`` (submit, and see / cancel / stream *own* jobs),
  ``"worker"`` (fleet drainers: lease tasks and move artifacts) or
  ``"admin"`` (everything, every job).  Default: ``submit``.

Entries written for older releases may still carry the per-token limits
those releases enforced (``max_queued``, ``max_active``, ``submit_rate``,
``submit_burst``, ``max_priority``); they load and are ignored.

The registry re-reads the file whenever it changes on disk, so revoking a
token (deleting its entry) takes effect without a restart.  A token absent
from the file is simply unknown — revocation and "never existed" are
indistinguishable on the wire (401 either way).
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional

__all__ = ["ROLES", "TokenInfo", "TokenRegistry"]

ROLES = ("submit", "worker", "admin")

#: Per-token limits older releases enforced; entries carrying them still
#: load, and the values are ignored.
LEGACY_FIELDS = frozenset(
    {"max_queued", "max_active", "submit_rate", "submit_burst", "max_priority"}
)


@dataclass(frozen=True)
class TokenInfo:
    """One token's grant: identity and role."""

    name: str
    role: str = "submit"

    @property
    def is_admin(self) -> bool:
        return self.role == "admin"

    @property
    def is_worker(self) -> bool:
        """Fleet drainers: may lease tasks and use the artifact store, but
        may not submit jobs or administer the service."""
        return self.role in ("worker", "admin")


def _parse_token_entry(token: str, entry: object) -> TokenInfo:
    if not isinstance(entry, dict):
        raise ValueError(f"token entry for {token[:8]!r}... must be a JSON object")
    unknown = sorted(set(entry) - {"name", "role"} - LEGACY_FIELDS)
    if unknown:
        raise ValueError(f"unknown token field(s): {', '.join(unknown)}")
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError("every token entry needs a non-empty string 'name'")
    role = entry.get("role", "submit")
    if role not in ROLES:
        raise ValueError(f"token {name!r}: role must be one of {ROLES}, got {role!r}")
    return TokenInfo(name=name, role=role)


def parse_tokens(payload: object) -> Dict[str, TokenInfo]:
    """Parse the tokens-file JSON payload into ``{secret: TokenInfo}``."""
    if not isinstance(payload, dict) or not isinstance(payload.get("tokens"), dict):
        raise ValueError('tokens file must be {"tokens": {"<secret>": {...}}}')
    tokens: Dict[str, TokenInfo] = {}
    for secret, entry in payload["tokens"].items():
        if not isinstance(secret, str) or not secret:
            raise ValueError("token secrets must be non-empty strings")
        tokens[secret] = _parse_token_entry(secret, entry)
    return tokens


class TokenRegistry:
    """Tokens loaded from a file, re-read whenever it changes on disk.

    ``lookup`` is what the API calls per request: a cheap ``stat`` plus a
    dict lookup on the unchanged path, a full (validated) reload when the
    operator edited the file.  A reload that fails to parse keeps the last
    good token set and surfaces the error through ``last_error`` — a typo
    while editing must not lock every client out.
    """

    def __init__(
        self,
        path: os.PathLike,
        on_error: Optional[Callable[[str], None]] = None,
    ):
        self.path = Path(path)
        self._on_error = on_error
        self._lock = threading.Lock()
        self._signature: Optional[tuple] = None
        self._tokens: Dict[str, TokenInfo] = {}
        self.last_error: Optional[str] = None
        self._reload_locked(initial=True)

    def _reload_locked(self, initial: bool = False) -> None:
        try:
            stat = self.path.stat()
        except OSError as exc:
            if initial:
                raise ValueError(
                    f"cannot load tokens file {self.path}: {exc}"
                ) from None
            self._note_error_locked(f"{type(exc).__name__}: {exc}")
            return
        # mtime_ns alone can miss two saves within the filesystem's
        # timestamp granularity (the second being the revocation);
        # size and inode (atomic-rename editors) close that window.
        signature = (stat.st_mtime_ns, stat.st_size, stat.st_ino)
        if signature == self._signature:
            return
        # Advance the signature even when the parse below fails: the broken
        # file is re-parsed only after the *next* edit, not on every request.
        self._signature = signature
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
            self._tokens = parse_tokens(payload)
            self.last_error = None
        except Exception as exc:  # noqa: BLE001 - keep serving the last good set
            if initial:
                raise ValueError(f"cannot load tokens file {self.path}: {exc}") from None
            self._note_error_locked(f"{type(exc).__name__}: {exc}")

    def _note_error_locked(self, message: str) -> None:
        """Record a reload failure and surface it (once per distinct error)."""
        if message != self.last_error:
            self.last_error = message
            if self._on_error is not None:
                self._on_error(
                    f"tokens file {self.path}: {message} "
                    f"(keeping the last good token set)"
                )

    def lookup(self, secret: str) -> Optional[TokenInfo]:
        """The grant behind ``secret``, or None for unknown/revoked tokens."""
        with self._lock:
            self._reload_locked()
            return self._tokens.get(secret)

    def __len__(self) -> int:
        with self._lock:
            return len(self._tokens)
