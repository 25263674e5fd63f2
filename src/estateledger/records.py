"""One JSON codec for every stored record: a dataclass whose annotations
(int, str, bool, bytes, dict as any JSON object, Optional, a list or set
of leaves, a dict with str or int keys, records) are its stored form.
`to_json(record)` writes each field under its camelCase name, a set as a
sorted list, bytes as lowercase hex and an int key in decimal. `read(T,
value)` raises CorruptSnapshot, naming the path to the value, on what
`to_json` cannot have written: a value of the wrong exact type (a bool
is no int), a missing or extra record key, or a non-canonical int key or
hex string. Both directions are built once per type."""

import dataclasses
import functools
import re
import typing

from .errors import LedgerError, err

LEAVES = (int, str, bool, dict)  # checked by exact type, stored as they are


def to_json(record) -> dict:
    return _writer(type(record))(record)


def read(t, value):
    return reader(t)(value)


def read_object(value, keys) -> dict:
    """`value` if it is a JSON object holding exactly `keys`."""
    if type(value) is not dict:
        raise _refused("an object", value)
    if value.keys() != keys:
        raise err("CorruptSnapshot",
                  f"keys {sorted(value)}, expected {sorted(keys)}")
    return value


def _refused(expected: str, value) -> LedgerError:
    return err("CorruptSnapshot", f"expected {expected}, got {value!r:.60}")


def _fields(t) -> list:
    """(camelCase JSON name, attribute, annotation) per field of `t`."""
    hints = typing.get_type_hints(t)
    return [(re.sub("_([a-z])", lambda m: m[1].upper(), f.name), f.name,
             hints[f.name]) for f in dataclasses.fields(t)]


@functools.cache
def _writer(t):
    """Writes a `t` as JSON; None where a `t` is its own JSON."""
    reader(t)  # raises TypeError on an annotation the codec does not know
    origin, args = typing.get_origin(t), typing.get_args(t)
    if t in LEAVES:
        return None
    if t is bytes:
        return bytes.hex
    if dataclasses.is_dataclass(t):
        fields = [(key, name, _writer(h)) for key, name, h in _fields(t)]
        return lambda r: {key: getattr(r, name) if w is None
                          else w(getattr(r, name)) for key, name, w in fields}
    if origin is typing.Union:  # Optional[X]
        w = _writer(args[0])
        return w and (lambda v: None if v is None else w(v))
    if origin in (list, set):
        return list if origin is list else sorted
    w = _writer(args[1])  # a dict
    if args[0] is str:
        return dict if w is None else (
            lambda v: {k: w(x) for k, x in v.items()})
    return lambda v: {str(k): x if w is None else w(x) for k, x in v.items()}


@functools.cache
def reader(t):
    """Reads JSON as a `t`, refusing what `_writer(t)` cannot write."""
    origin, args = typing.get_origin(t), typing.get_args(t)
    if t in LEAVES:
        def read_leaf(v):
            if type(v) is not t:
                raise _refused(t.__name__, v)
            return v
        return read_leaf
    if t is bytes:
        return _read_hex
    if dataclasses.is_dataclass(t):
        fields = [(key, name, reader(h), h if h in LEAVES else None)
                  for key, name, h in _fields(t)]
        keys = frozenset(key for key, _, _, _ in fields)

        def read_record(v):
            read_object(v, keys)
            kwargs = {}
            try:
                for key, name, r, leaf in fields:
                    x = v[key]
                    kwargs[name] = x if type(x) is leaf else r(x)
            except LedgerError as exc:
                raise err(exc.code, f"{key}: {exc.message}") from None
            return t(**kwargs)
        return read_record
    if origin is typing.Union and args[1:] == (type(None),):
        r = reader(args[0])
        return lambda v: None if v is None else r(v)
    if origin in (list, set) and args[0] in LEAVES:
        def read_list(v):
            if type(v) is not list:
                raise _refused("a list", v)
            return origin(map(reader(args[0]), v))
        return read_list
    if origin is not dict or args[0] not in (str, int):
        raise TypeError(f"the record codec cannot store {t!r}")
    r, leaf = reader(args[1]), args[1] if args[1] in LEAVES else None

    def read_dict(v):
        if type(v) is not dict:
            raise _refused("an object", v)
        out = {}
        try:
            for k, x in v.items():
                out[k if args[0] is str else _int_key(k)] = (
                    x if type(x) is leaf else r(x))
        except LedgerError as exc:
            raise err(exc.code, f"{k}: {exc.message}") from None
        return out
    return read_dict


def _canonical(parse, write, expected: str):
    """A reader of the strings `write` gives: `parse` reads them back."""
    def read_canonical(v):
        try:
            value = parse(v)
        except (TypeError, ValueError):
            value = None
        if value is None or write(value) != v:
            raise _refused(expected, v)
        return value
    return read_canonical


_int_key = _canonical(int, str, "a decimal integer")
_read_hex = _canonical(bytes.fromhex, bytes.hex, "lowercase hex")
