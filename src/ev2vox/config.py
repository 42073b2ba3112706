"""The one reader from parsed JSON to typed settings.

Every config and scene dataclass is built from JSON by ``from_json``, which
follows the class's field annotations, so a field's type is declared once.
The writers are ``dataclasses.asdict``. Range checks stay in each class's
``__post_init__``; this module checks only shape and type.
"""

from __future__ import annotations

import dataclasses
import math
import types
import typing

from .errors import ConfigError

# JSON gives 2.5 for a count, "false" for a flag and true for a rate; int()
# would round the first, bool() read the second as True and float() the third
# as 1.0, so the reader checks instead
_SCALARS = {
    bool: "true or false",
    int: "an integer",
    float: "a number",
    str: "a string",
    dict: "an object",
}


def _require_scalar(tp, value, where: str):
    """``value`` if it is a ``tp`` (never a bool, unless ``tp`` is bool); a
    float field also takes an integer, as a float. A float must be finite:
    Python's json reads NaN and Infinity, and an integer past the float
    range counts as infinite."""
    if tp is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
    if isinstance(value, tp) and (tp is bool or not isinstance(value, bool)):
        if tp is float and not math.isfinite(value):
            raise ConfigError(f"{where} must be finite, got {value!r}")
        return value
    raise ConfigError(f"{where} must be {_SCALARS[tp]}, got {value!r}")


def _require_dataclass(cls, value, where: str, base):
    if not isinstance(value, dict):
        raise ConfigError(f"{where or 'config'} must be an object, got {value!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    prefix = f"{where}." if where else ""
    for key in value:
        if key not in fields:
            raise ConfigError(f"unknown key '{prefix}{key}'")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, f in fields.items():
        if name in value:
            inner = getattr(base, name) if base is not None else None
            kwargs[name] = from_json(hints[name], value[name], prefix + name, inner)
        elif base is not None:
            kwargs[name] = getattr(base, name)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{prefix}{name} is missing")
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise type(exc)(f"{where}: {exc}" if where else str(exc)) from exc


def from_json(tp, value, where: str, base=None):
    """``value``, parsed JSON, read as the annotation ``tp``.

    ``tp`` is bool, int, float, str, dict (any object, kept as it is),
    ``tuple[T, ...]``, a fixed-length ``tuple[T1, T2, T3]`` (each read
    from a list), ``X | None`` or a dataclass. A dataclass reads an object:
    a missing key takes the field's default, or else is an error, and an
    unknown key is an error. Each error is a ConfigError that names the
    dotted path of the bad value, e.g. ``model.encoder.stages[0].stride``;
    one raised by a dataclass's own checks is prefixed with its path.

    ``base``, an instance of the dataclass ``tp``, is what the object is
    read onto: a missing key keeps the base's value, and a nested dataclass
    is read onto the base's field. Lists and scalars replace.
    """
    if dataclasses.is_dataclass(tp):
        return _require_dataclass(tp, value, where, base)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None
        if value is None:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return from_json(inner, value, where)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{where} must have {len(args)} items, got {value!r}")
        return tuple(from_json(a, v, f"{where}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    return _require_scalar(tp, value, where)
