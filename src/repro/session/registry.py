"""String-keyed backend registry behind the Scenario/Session facade.

Every swappable layer of the pipeline — hardware systems, node
generations, intensity sources, scheduling policies, cluster simulators,
report renderers — registers a *factory* under a ``(kind, key)`` pair.
The facade resolves keys at :meth:`~repro.session.Scenario.build` time,
so third-party and experimental backends plug in without touching core:

    from repro.session import registry

    @registry.register("policy", "my-policy")
    def _make(service, default_region, regions=None):
        return MyPolicy(service, default_region)

    Scenario().system("frontier").region("ESO").policy("my-policy")

Built-in backends self-register lazily: each subpackage exposes a
``register_backends(registry)`` hook, and :func:`ensure_default_backends`
invokes them all exactly once on first facade use (the defaults-registry
idiom — the registry owns *when*, the layers own *what*).

Keys are case-insensitive and may carry aliases (``"frontier"`` and
``"Frontier"`` resolve identically; ``"temporal+geographic"`` is also
reachable as ``"carbon_aware"``).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.core.errors import SessionError, UnknownBackendError

__all__ = [
    "BackendRegistry",
    "registry",
    "register_backend",
    "resolve_backend",
    "available_backends",
    "ensure_default_backends",
    "BACKEND_KINDS",
]

#: The backend namespaces the facade consumes.
BACKEND_KINDS: Tuple[str, ...] = (
    "system",
    "node",
    "intensity",
    "workload",
    "policy",
    "simulator",
    "accounting",
    "pue",
    "renderer",
    "report",
    "executor",
    "faults",
)


def _norm(key: str) -> str:
    return key.strip().lower()


class BackendRegistry:
    """A namespaced mapping of backend keys to factories.

    A *factory* is any callable; its calling convention is fixed per
    kind (see :mod:`repro.session.backends` for the built-in contracts).
    Registration is idempotent only via ``replace=True``; accidental
    double registration raises, which catches plugin name collisions
    early.
    """

    def __init__(self, kinds: Iterable[str] = BACKEND_KINDS) -> None:
        self._factories: Dict[str, Dict[str, Callable[..., Any]]] = {
            kind: {} for kind in kinds
        }
        self._lock = threading.Lock()

    # --- registration -----------------------------------------------------
    def _table(self, kind: str) -> Dict[str, Callable[..., Any]]:
        try:
            return self._factories[kind]
        except KeyError:
            known = ", ".join(sorted(self._factories))
            raise SessionError(
                f"unknown backend kind {kind!r}; kinds: {known}"
            ) from None

    def add(
        self,
        kind: str,
        key: str,
        factory: Callable[..., Any],
        *,
        aliases: Iterable[str] = (),
        replace: bool = False,
    ) -> None:
        """Register ``factory`` under ``(kind, key)`` and any aliases."""
        if not callable(factory):
            raise SessionError(
                f"backend {kind}:{key} factory must be callable, got "
                f"{type(factory).__name__}"
            )
        table = self._table(kind)
        with self._lock:
            # Validate every name before inserting any, so a collision on
            # an alias cannot leave a partial registration behind.
            norms = []
            for name in (key, *aliases):
                norm = _norm(name)
                if not norm:
                    raise SessionError(f"backend {kind} key must be non-empty")
                if norm in table and not replace:
                    raise SessionError(
                        f"backend {kind}:{norm} already registered; pass "
                        "replace=True to override"
                    )
                norms.append(norm)
            for norm in norms:
                table[norm] = factory

    def _adopt_defaults(self, staged: "BackendRegistry") -> None:
        """Merge a fully-loaded staging registry into this one.

        Keys already present (a plugin registered before first facade
        use) are kept — the built-in never clobbers an explicit earlier
        registration, and a collision can no longer abort the load
        half-way through.
        """
        with self._lock:
            for kind, table in staged._factories.items():
                own = self._factories.setdefault(kind, {})
                for key, factory in table.items():
                    own.setdefault(key, factory)

    def register(
        self, kind: str, key: str, *, aliases: Iterable[str] = (), replace: bool = False
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator form of :meth:`add`; returns the factory unchanged."""

        def decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
            self.add(kind, key, factory, aliases=aliases, replace=replace)
            return factory

        return decorator

    # --- lookup ---------------------------------------------------------
    def resolve(self, kind: str, key: str) -> Callable[..., Any]:
        """The factory registered under ``(kind, key)``.

        Raises :class:`~repro.core.errors.UnknownBackendError` (which
        lists the registered keys) when the key is absent.
        """
        ensure_default_backends()
        table = self._table(kind)
        try:
            return table[_norm(key)]
        except KeyError:
            raise UnknownBackendError(
                kind, key, tuple(sorted(table))
            ) from None

    def available(self, kind: str) -> Tuple[str, ...]:
        """Sorted keys registered for one kind (aliases included)."""
        ensure_default_backends()
        return tuple(sorted(self._table(kind)))

    def kinds(self) -> Tuple[str, ...]:
        return tuple(self._factories)

    def __contains__(self, kind_key: Tuple[str, str]) -> bool:
        kind, key = kind_key
        ensure_default_backends()
        return _norm(key) in self._table(kind)


#: The process-wide registry the facade consults.
registry = BackendRegistry()

#: "unloaded" -> "loading" -> "loaded"; only flips to "loaded" after the
#: built-ins are fully registered, so no thread can observe a partial
#: registry through the unlocked fast path.
_defaults_state = "unloaded"
_defaults_lock = threading.RLock()


def ensure_default_backends() -> None:
    """Load the built-in backends exactly once (idempotent, thread-safe).

    Deferred to first lookup so ``import repro.session`` stays cheap and
    the layer subpackages are only imported when the facade is used.
    Concurrent callers block until the load completes; a re-entrant call
    from inside a layer hook (RLock) returns without re-loading.
    """
    global _defaults_state
    if _defaults_state == "loaded":
        return
    with _defaults_lock:
        if _defaults_state != "unloaded":
            return
        _defaults_state = "loading"
        try:
            from repro.session.backends import load_builtin_backends

            # Stage into a scratch registry and merge only on full
            # success, so a failing layer import can never leave the
            # global registry half-populated; pre-registered plugin
            # keys survive the merge untouched.
            staged = BackendRegistry(kinds=registry.kinds())
            load_builtin_backends(staged)
            registry._adopt_defaults(staged)
        except BaseException:
            _defaults_state = "unloaded"
            raise
        _defaults_state = "loaded"


# --- module-level conveniences (the documented plugin surface) -------------
def register_backend(
    kind: str,
    key: str,
    factory: Optional[Callable[..., Any]] = None,
    *,
    aliases: Iterable[str] = (),
    replace: bool = False,
):
    """Register a backend on the global registry.

    Usable directly (``register_backend("policy", "mine", make)``) or as
    a decorator (``@register_backend("policy", "mine")``).
    """
    if factory is not None:
        registry.add(kind, key, factory, aliases=aliases, replace=replace)
        return factory
    return registry.register(kind, key, aliases=aliases, replace=replace)


def resolve_backend(kind: str, key: str) -> Callable[..., Any]:
    """Look up a factory on the global registry."""
    return registry.resolve(kind, key)


def available_backends(kind: str) -> Tuple[str, ...]:
    """Sorted registered keys for one kind on the global registry."""
    return registry.available(kind)
