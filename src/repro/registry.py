"""The shared name -> entry registry behind every strategy table.

The address-mapping, page-policy, MSU-policy, traffic-scheduler and
experiment tables all follow the same protocol: entries register
under a short name, callers test membership and look entries up like
a dict, listings come back sorted, and resolving an unknown name
raises a :class:`~repro.errors.ConfigurationError` that enumerates
what *is* registered.  This module is the single implementation of
that protocol:

    >>> from repro.registry import Registry
    >>> WIDGETS: Registry[type] = Registry("widget")
    >>> @WIDGETS.register
    ... class Frob:
    ...     name = "frob"
    >>> "frob" in WIDGETS and WIDGETS["frob"] is Frob
    True
    >>> WIDGETS.resolve("zorp")
    Traceback (most recent call last):
    ...
    repro.errors.ConfigurationError: unknown widget 'zorp'; registered: frob

Entries register through :meth:`Registry.register`, a decorator
reading the entry's ``name`` attribute: a lower-case name, the one
spelling every caller uses.  Every strategy base class is named
``base``, a name no entry may register under.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.errors import ConfigurationError

E = TypeVar("E")


class Registry(Generic[E]):
    """One named strategy table: an ordered name -> entry mapping.

    Args:
        kind: Human-readable entry kind ("address mapping", "page
            policy", ...), named in every error message.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, E] = {}

    # -- mapping protocol ----------------------------------------------
    # Iteration and membership are over *names*, in registration
    # order.

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __getitem__(self, name: str) -> E:
        # KeyError (not ConfigurationError) on a miss, as a dict does;
        # resolve() raises the friendly error.
        return self._entries[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Registry({self.kind!r}, names={list(self._entries)})"

    def get(self, name: str, default: Optional[E] = None) -> Optional[E]:
        """The entry under ``name``, or ``default``."""
        return self._entries.get(name, default)

    def values(self) -> Tuple[E, ...]:
        """Registered entries, in registration order."""
        return tuple(self._entries.values())

    def names(self) -> List[str]:
        """Registered names, sorted, for listings."""
        return sorted(self._entries)

    # -- registration and resolution -------------------------------------

    def register(self, entry: E) -> E:
        """Decorator registering ``entry`` under its ``name``.

        Raises:
            ConfigurationError: If ``entry`` has no lower-case name of
                its own (none, upper-case letters, or the base class's
                ``base``), or its name is taken.
        """
        name = getattr(entry, "name", None)
        if (
            not isinstance(name, str)
            or name in ("", "base")
            or name != name.lower()
        ):
            label = getattr(entry, "__name__", type(entry).__name__)
            raise ConfigurationError(
                f"{self.kind} {label} needs a lower-case name other "
                f"than 'base', got {name!r}"
            )
        if name in self._entries:
            raise ConfigurationError(
                f"{self.kind} {name!r} registered twice"
            )
        self._entries[name] = entry
        return entry

    def resolve(self, name: str) -> E:
        """The entry under ``name``.

        Raises:
            ConfigurationError: If nothing is registered under
                ``name`` (the message lists the registered names).
        """
        try:
            return self._entries[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; "
                f"registered: {', '.join(self.names())}"
            ) from None
