"""The frozen-record idiom of the package's value types.

A record behaves as a frozen dataclass does: it is compared, hashed, shown,
copied and pickled by the tuple of its field values, and assigning a field
raises :class:`AttributeError`.  It is built without :mod:`dataclasses`,
which would load :mod:`inspect`, :mod:`ast` and :mod:`dis` on import and
generate code for every class.

A subclass lists its fields in ``__slots__``, in constructor order; a slot
whose name starts with ``_`` is not a field.  The inherited
``__init__`` takes the field values positionally; a subclass that converts
or checks its arguments does so in its own ``__init__`` and passes the
results on to it.
"""

from __future__ import annotations


class Record:
    # _values holds the tuple of the field values, so that hash and eq, which
    # key every lru_cache lookup, read one slot instead of building a tuple.
    __slots__ = ("_values",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(
            f for f in cls.__slots__ if not f.startswith("_"))

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__}() takes the fields "
                            f"{', '.join(self._fields)}")
        object.__setattr__(self, "_values", values)
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild the record through its constructor.
        return type(self), self._values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
