"""The base of the package's record classes, small enough that importing the package
does not pay for a class-building library."""


class Record:
    """An immutable record.  ``__init__`` validates its arguments and stores each
    attribute once through ``_set``; assigning or deleting one afterwards raises
    AttributeError.  ``_fields`` names the constructor's fields in order: repr
    shows them, and == and hash compare them between records of one class.  A
    record that holds arrays takes object's identity comparison instead."""

    _fields: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        self.__dict__.update(values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())
