"""Plain record classes: equality and ``repr`` over the constructor's fields.

A record writes its own ``__init__``; its fields are that ``__init__``'s
parameters, in order.  Nothing is generated when the class is defined, so
a module of records costs what its source costs to compile: a run loads
neither :mod:`dataclasses` nor what it imports (DESIGN.md §2).
"""

from __future__ import annotations

from typing import Tuple


class Record:
    """Base of a plain record: ``==`` compares two records of the same class
    field by field, and ``repr`` shows every field.

    ``FIELDS`` is read from the parameters of the class's ``__init__``, so
    the constructor is the one place that names the fields and their order.
    Like a dataclass with ``eq=True``, a record is unhashable unless a
    subclass defines ``__hash__``.
    """

    __slots__ = ()

    #: field names in constructor order (set per class from ``__init__``)
    FIELDS: Tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        code = getattr(cls.__init__, "__code__", None)
        if code is None:
            return
        if code.co_kwonlyargcount or code.co_flags & 0x0C:  # *args, **kw
            raise TypeError(f"{cls.__name__}.__init__ must take its fields "
                            "as plain positional-or-keyword parameters")
        cls.FIELDS = code.co_varnames[1:code.co_argcount]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.FIELDS)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.FIELDS))
