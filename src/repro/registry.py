"""The shared name -> entry registry behind every policy table.

The address-mapping, page-policy and scheduler registries all follow
the same protocol: entries register under a short name, callers test
membership and look entries up like a dict, listings come back
sorted, and resolving an unknown name raises a
:class:`~repro.errors.ConfigurationError` that enumerates what *is*
registered.  This module is the single implementation of that
protocol; the per-kind modules instantiate it with their historical
error-message spellings so existing callers (and tests matching those
messages) see no change:

    >>> from repro.registry import Registry
    >>> WIDGETS: Registry[type] = Registry("widget")
    >>> @WIDGETS.register
    ... class Frob:
    ...     name = "frob"
    >>> "frob" in WIDGETS and WIDGETS["frob"] is Frob
    True

Entries register through :meth:`Registry.register`, a class
decorator reading the class's ``name`` attribute.
"""

from __future__ import annotations

from typing import (
    Dict,
    Generic,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from repro.errors import ConfigurationError

E = TypeVar("E")


class Registry(Generic[E]):
    """One named policy table: an ordered name -> entry mapping.

    Args:
        kind: Human-readable entry kind ("address mapping", "page
            policy", ...), used in duplicate-registration errors.
        class_label: Spelling used when a registered class lacks a
            usable name (defaults to ``"{kind} class"``).
        unknown_template: :meth:`unknown_error` message template with
            ``{name}`` (the offending spelling) and ``{names}`` (the
            registered names, joined) placeholders.
        default_name: The base class's placeholder name; registering
            a class still carrying it (or no name at all) is an error.
    """

    def __init__(
        self,
        kind: str,
        *,
        class_label: Optional[str] = None,
        unknown_template: Optional[str] = None,
        default_name: str = "base",
    ) -> None:
        self.kind = kind
        self.class_label = class_label or f"{kind} class"
        self.default_name = default_name
        self._unknown_template = unknown_template or (
            "unknown " + kind + " {name!r}; registered: {names}"
        )
        self._entries: Dict[str, E] = {}

    # -- mapping protocol ----------------------------------------------
    # Iteration and membership are over *names*, in registration
    # order, exactly as the historical plain-dict registries behaved.

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __getitem__(self, name: str) -> E:
        # KeyError (not ConfigurationError) on a miss: historical
        # callers wrap lookups in try/except KeyError to attach their
        # own error message; resolve() raises the friendly error.
        return self._entries[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Registry):
            return self._entries == other._entries
        return NotImplemented

    # Registries are mutable singletons; identity hashing keeps them
    # usable as dict keys (e.g. in test parametrization) despite the
    # entry-comparing __eq__.
    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Registry({self.kind!r}, names={list(self._entries)})"

    def get(self, name: str, default: Optional[E] = None) -> Optional[E]:
        """The entry under ``name``, or ``default``."""
        return self._entries.get(name, default)

    def keys(self) -> Tuple[str, ...]:
        """Registered names, in registration order."""
        return tuple(self._entries)

    def values(self) -> Tuple[E, ...]:
        """Registered entries, in registration order."""
        return tuple(self._entries.values())

    def items(self) -> Tuple[Tuple[str, E], ...]:
        """(name, entry) pairs, in registration order."""
        return tuple(self._entries.items())

    def names(self) -> List[str]:
        """Registered names, sorted, for listings."""
        return sorted(self._entries)

    # -- registration ---------------------------------------------------

    def register(self, cls: E) -> E:
        """Class decorator registering ``cls`` under its ``name``."""
        name = getattr(cls, "name", None)
        if not name or name == self.default_name:
            raise ConfigurationError(
                f"{self.class_label} "
                f"{getattr(cls, '__name__', type(cls).__name__)} "
                "needs a non-default name"
            )
        if name in self._entries:
            raise ConfigurationError(
                f"{self.kind} {name!r} registered twice"
            )
        self._entries[name] = cls
        return cls

    # -- resolution -----------------------------------------------------

    def resolve(self, name: str) -> E:
        """The entry under ``name``, or the kind's unknown-name error.

        Raises:
            ConfigurationError: If nothing is registered under
                ``name`` (the message lists the registered names).
        """
        try:
            return self._entries[name]
        except KeyError:
            raise self.unknown_error(name) from None

    def unknown_error(self, name: object) -> ConfigurationError:
        """The error a miss on ``name`` should raise (not raised here)."""
        return ConfigurationError(
            self._unknown_template.format(
                name=name, names=", ".join(self.names())
            )
        )
