"""Records: the syntax trees of `tff` and `llproof` and the `.dk` entries.

A `Record` class lists its fields as annotated names with optional
defaults, read once, when the class is made, into `__slots__` and
`__match_args__`.  Records of one class are equal when their fields are,
less the trailing ones named in `_loose`; `repr` shows `Cls(f=...)` for
every field.  A record keeps its compared fields' tuple and hash from
construction, so hashing never walks a tree; as with `terms`,
nothing assigns to a record's fields.  A class that sets `__hash__ = None`
is unhashable and compares by fields alone.
"""


class _RecordType(type):
    def __new__(mcs, name: str, bases: tuple[type, ...], ns: dict):
        own = tuple(ns.get("__annotations__", ()))
        defaults = {f: ns.pop(f) for f in own if f in ns}
        cls = super().__new__(mcs, name, bases, {**ns, "__slots__": (*ns.get("__slots__", ()), *own)})
        cls._fields = cls.__match_args__ = fields = getattr(cls, "_fields", ()) + own
        cls._defaults = {**getattr(cls, "_defaults", {}), **defaults}
        cls._compared = len([f for f in fields if f not in cls._loose])
        if set(fields[cls._compared :]) - set(cls._loose):
            raise TypeError(f"{name}: the fields {cls._loose} that == skips must come last")
        cls._hashed = cls.__hash__ is not None
        return cls


class Record(metaclass=_RecordType):
    __slots__ = ("_key", "_hash")
    _loose = ()

    def __init__(self, *args: object, **kwargs: object):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
            if len(args) > len(fields) or values.keys() != set(fields) or kwargs.keys() & set(fields[: len(args)]):
                raise TypeError(f"{type(self).__name__}{fields} given {args} and {kwargs}")
            args = tuple(values[f] for f in fields)
        for name, value in zip(fields, args):
            setattr(self, name, value)
        self._key = key = args[: self._compared]
        self._hash = hash(key) if self._hashed else 0

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        shown = (f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({', '.join(shown)})"


def values(record: Record) -> tuple:
    """The field values of a record, in order."""
    return tuple(getattr(record, f) for f in record._fields)


def replace(record: Record, **changes: object) -> Record:
    """A copy of `record` with the given fields changed."""
    return type(record)(**{**dict(zip(record._fields, values(record))), **changes})
