"""The base of the package's frozen records, without the dataclasses module.

A record's fields are its class annotations, in order after its base's; a
value in the class body is a default. A record is built positionally or by
keyword, then runs __post_init__; it compares and hashes as its field tuple,
equal only within its class, prints as Name(field=value, ...) and refuses
assignment; it has no order. json=True, for a record whose JSON is its
fields, takes fields_json as its to_json; _wire_names renames fields on the
wire, and fields_from_json reads that JSON back.
Importing dataclasses (inspect, ast, dis, tokenize) and compiling each
class's methods would cost every CLI run.
"""

import sys
from fractions import Fraction
from functools import cache
from operator import attrgetter

from .errors import SpecValidationError
from .rationals import format_rational, parse_rational, parse_rational_list


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _wire_names: dict = {}

    def __init_subclass__(cls, json: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(vars(cls).get("__annotations__", ()))
        cls._fields = cls._fields + own
        cls._defaults = {**cls._defaults, **{name: vars(cls)[name] for name in own if name in vars(cls)}}
        # every record has at least two fields, so the key is a tuple
        cls._key = attrgetter(*cls._fields)
        if json:
            cls.to_json = fields_json

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        if len(args) > len(names) or values.keys() != set(names) or not kwargs.keys().isdisjoint(names[: len(args)]):
            raise TypeError(
                f"{type(self).__name__}() takes the fields ({', '.join(names)}), "
                f"got {len(args)} positional and {sorted(kwargs)} by keyword"
            )
        for name in names:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self):
        """Check or convert the fields once they are set."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild a record from its fields, through __init__
        return type(self), self._key(self)


def fields_json(record) -> dict:
    """The record's fields by wire name, each by one rule: a Fraction as "p/q", a
    tuple as a list and a value with a to_json as that JSON."""
    return {record._wire_names.get(name, name): _wire(getattr(record, name)) for name in record._fields}


def _wire(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, tuple):
        return list(map(_wire, value))
    return value.to_json() if hasattr(value, "to_json") else value


def check_fields(cls, data, label: str) -> None:
    """Refuse data unless it is an object whose keys are among cls's fields' wire names."""
    keys = [cls._wire_names.get(name, name) for name in cls._fields]
    if not isinstance(data, dict):
        raise SpecValidationError(f"{label} must be an object with {'/'.join(keys)}")
    unknown = set(data) - set(keys)
    if unknown:
        raise SpecValidationError(f"unknown {label} keys: {sorted(unknown)}")


def fields_from_json(cls, data, label: str):
    """The record of cls that fields_json wrote, each field read by its annotation;
    a missing entry leaves the field's default, and without one is refused."""
    check_fields(cls, data, label)
    values = {}
    for name, hint in _hints(cls).items():
        key = cls._wire_names.get(name, name)
        if key in data:
            values[name] = _read(hint, data[key], f"{label} {key}")
        elif name not in cls._defaults:
            raise SpecValidationError(f"{label} needs a {key!r} entry")
    return cls(**values)


@cache
def _hints(cls) -> dict:
    """Each field's annotation, its string evaluated once in the class's module."""
    space = vars(sys.modules[cls.__module__])
    return {name: eval(text, space) for name, text in vars(cls)["__annotations__"].items()}


def _read(hint, value, label: str):
    """A field annotated hint from its JSON: a Fraction from "p/q", X | None from
    null as None, a tuple from a list, a class by its from_json, and an int,
    str, bool or list as itself."""
    if hint is Fraction:
        return parse_rational(value)
    if type(None) in getattr(hint, "__args__", ()):
        return None if value is None else _read(hint.__args__[0], value, label)
    if getattr(hint, "__origin__", None) is tuple:
        if hint.__args__[0] is Fraction:
            return tuple(parse_rational_list(label, value))
        return tuple(map(hint.__args__[0].from_json, _read(list, value, label)))
    if hasattr(hint, "from_json"):
        return hint.from_json(value)
    if not isinstance(value, hint) or (hint is int and isinstance(value, bool)):
        raise SpecValidationError(f"{label} must be of type {hint.__name__}, got {value!r}")
    return value
