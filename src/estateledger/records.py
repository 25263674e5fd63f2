"""One JSON codec for every stored record: a dataclass whose annotations
(int, str, bool, bytes, dict as any JSON object, Optional, a set of
leaves, a list of leaves or of any other of these, a dict with str or
int keys, records) are its stored form. `to_json(record)` writes each
field under its camelCase name, a set as a sorted list, bytes as
lowercase hex and an int key in decimal. `read(T, value)` raises
CorruptSnapshot, naming the path to the value (a record's or a dict's
key, a list's index where its members are not leaves), on what
`to_json` cannot have written: a value of the wrong exact type (a bool
is no int), a missing or extra record key, a non-canonical int key or
hex string, or a set's list out of order or holding a member twice.
Both directions are built once per type. ``LazyRecords`` is a dict of
records read from one JSON object a record at a time, on first use."""

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


def read_u64(value) -> int:
    """`value` if it is an int fitting in a block header's 8 bytes."""
    if type(value) is not int or not 0 <= value < 2 ** 64:
        raise _refused("an integer in [0, 2**64)", value)
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
    w = _writer(args[1] if origin is dict else args[0])  # of the values
    if origin is typing.Union:  # Optional[X]
        return w and (lambda v: None if v is None else w(v))
    if origin in (list, set):
        return (list if origin is list else sorted) if w is None else (
            lambda v: [w(x) for x in v])
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
            try:  # `at` names the field a refusal is of
                kwargs = {name: x if type(x := v[(at := key)]) is leaf
                          else r(x) for key, name, r, leaf in fields}
            except LedgerError as exc:
                raise err(exc.code, f"{at}: {exc.message}") from None
            return t(**kwargs)
        return read_record
    if origin is typing.Union and args[1:] == (type(None),):
        r = reader(args[0])
        return lambda v: None if v is None else r(v)
    if origin is list or origin is set and args[0] in LEAVES:
        r, leaf = reader(args[0]), args[0] if args[0] in LEAVES else None

        def read_list(v):
            if type(v) is not list:
                raise _refused("a list", v)
            if leaf is None:  # a refusal names the index of its member
                return list(_members(enumerate(v), r, None).values())
            for x in v:
                if type(x) is not leaf:
                    r(x)  # words the refusal
            if origin is list:
                return list(v)
            if len(v) > 1 and any(a >= b for a, b in zip(v, v[1:])):
                raise _refused("a set's members sorted, each once", v)
            return set(v)
        return read_list
    if origin is not dict or args[0] not in (str, int):
        raise TypeError(f"the record codec cannot store {t!r}")
    r, leaf = reader(args[1]), args[1] if args[1] in LEAVES else None
    key = None if args[0] is str else _int_key

    def read_dict(v):
        if type(v) is not dict:
            raise _refused("an object", v)
        return _members(v.items(), r, leaf, key)
    return read_dict


def _members(items, r, leaf, key=None) -> dict:
    """{k: x} of the (k, x) `items`, each x read by `r` unless its exact
    type is `leaf`, and each k by `key` if given; a refusal names its k."""
    out = {}
    try:
        for k, x in items:
            out[k if key is None else key(k)] = x if type(x) is leaf else r(x)
    except LedgerError as exc:
        raise err(exc.code, f"{k}: {exc.message}") from None
    return out


class Records(dict):
    """A dict of records each of which is read: what a ``LazyRecords``
    becomes once it has read its last, with no method of its own but
    ``read_all``, so it answers at a plain dict's speed."""

    def read_all(self):
        """Nothing to do: every record is read."""


class LazyRecords(Records):
    """A ``dict[str, t]`` read from the JSON object `raw` one record at a
    time: a record is read as ``read(t, value)`` reads it, then checked by
    ``check(key, record)`` if given, when it is first looked up by its key
    (``[]`` and ``get``). Every other method that reads or changes a
    value reads every record first, of this dict and of a ``LazyRecords``
    it is given: a subclass's method runs first, so a plain dict compared
    with one reads it too. A refusal is worded as ``read(dict[str, t],
    raw)`` words it, after `name`. Once the last record is read it is a
    ``Records``."""

    def __init__(self, raw, t, name: str, check=None):
        if type(raw) is not dict:
            raise err("CorruptSnapshot",
                      f"{name}: {_refused('an object', raw).message}")
        super().__init__(raw)
        self.t, self.name, self.check = t, name, check
        self.read, self.unread = reader(t), len(raw)
        if not raw:
            self._settle()

    def __getitem__(self, key):
        value = dict.__getitem__(self, key)
        return value if type(value) is self.t else self._read(key, value)

    def get(self, key, default=None):
        return self[key] if key in self else default

    def __iter__(self):  # so a dict built from this one reads its values
        return dict.__iter__(self)

    def read_all(self):
        t = self.t
        for key, value in list(dict.items(self)):
            if type(value) is not t:
                self._read(key, value)

    def _read(self, key, value):
        try:
            record = self.read(value)
            if self.check is not None:
                self.check(key, record)
        except LedgerError as exc:
            raise err(exc.code, f"{self.name}: {key}: {exc.message}") from None
        dict.__setitem__(self, key, record)
        self.unread -= 1
        if not self.unread:
            self._settle()
        return record

    def _settle(self):
        vars(self).clear()
        self.__class__ = Records


def _whole(method):
    def whole(self, *args, **kwargs):
        for records in (self, *args):
            if type(records) is LazyRecords:
                records.read_all()
        return method(self, *args, **kwargs)
    return whole


for _name in ("__eq__", "__ne__", "__or__", "__ror__", "__ior__", "__repr__",
              "__reversed__", "__setitem__", "__delitem__", "__reduce__",
              "__reduce_ex__", "clear", "copy", "items", "pop", "popitem",
              "setdefault", "update", "values"):
    setattr(LazyRecords, _name, _whole(getattr(dict, _name)))


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
