"""The one base of the library's immutable value classes.

A subclass names its fields, in order, in ``_fields`` and stores them from
its own ``__init__`` (which holds its checks) with :meth:`Frozen._init`.
The base compares, hashes and prints exactly those fields and refuses
assignment and deletion.  Anything else in the instance ``__dict__``, such
as a cache or a ``functools.cached_property``, stays out of equality, hash
and repr.  ``dataclasses`` would do the same, but importing it pulls in
``inspect`` and its method generation runs at every import, which together
cost each CLI start-up about 20 ms.
"""

from __future__ import annotations


class Frozen:
    _fields: tuple[str, ...] = ()
    # fields compared but left out of the hash (unhashable values)
    _unhashed: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        # bypasses __setattr__, as __init__ is the one place fields are set
        self.__dict__.update(zip(self._fields, values, strict=True))

    def _values(self, names) -> tuple:
        return tuple(getattr(self, name) for name in names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self._fields) == other._values(self._fields)

    def __hash__(self) -> int:
        return hash(self._values(f for f in self._fields if f not in self._unhashed))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def replace(self, **changes):
        """A new instance with ``changes`` applied, checked by ``__init__``."""
        return type(self)(**{**self.asdict(), **changes})

    def asdict(self) -> dict:
        """Field name -> value, in field order; nested values are not converted."""
        return dict(zip(self._fields, self._values(self._fields)))
