"""Tests for the JSON reader that builds every config and scene dataclass."""

import re
from dataclasses import dataclass

import pytest

from ev2vox.config import from_json
from ev2vox.errors import ConfigError
from ev2vox.events import BinningConfig


@dataclass(frozen=True)
class Inner:
    size: tuple[int, int]
    scale: float = 1.0


@dataclass(frozen=True)
class Outer:
    name: str
    inner: Inner
    items: tuple[Inner, ...] = ()
    limit: int | None = None
    flag: bool = False
    extra: dict | None = None


GOOD = {"name": "a", "inner": {"size": [1, 2]}, "items": [{"size": [3, 4], "scale": 2}],
        "limit": 5, "flag": True, "extra": {"any": ["thing"]}}


def test_reads_every_annotation():
    out = from_json(Outer, GOOD, "cfg")
    assert out == Outer("a", Inner((1, 2)), (Inner((3, 4), 2.0),), 5, True, {"any": ["thing"]})
    assert type(out.items[0].scale) is float


def test_missing_fields_take_defaults():
    assert from_json(Outer, {"name": "a", "inner": {"size": [1, 2]}}, "cfg") == Outer(
        "a", Inner((1, 2))
    )
    assert from_json(Outer, {**GOOD, "limit": None}, "cfg").limit is None


@pytest.mark.parametrize("change,message", [
    ({"name": 3}, "cfg.name must be a string, got 3"),
    ({"inner": []}, "cfg.inner must be an object"),
    ({"inner": {}}, "cfg.inner.size is missing"),
    ({"inner": {"size": [1, 2, 3]}}, "cfg.inner.size must have 2 items"),
    ({"inner": {"size": [1, True]}}, "cfg.inner.size[1] must be an integer, got True"),
    ({"inner": {"size": [1, 2], "scale": True}}, "cfg.inner.scale must be a number"),
    ({"items": {"size": [1, 2]}}, "cfg.items must be a list"),
    ({"items": [{"size": [1, 2]}, {"size": [1, 2], "sclae": 1}]}, "unknown key 'cfg.items[1].sclae'"),
    ({"limit": 2.5}, "cfg.limit must be an integer, got 2.5"),
    ({"flag": "false"}, "cfg.flag must be true or false"),
    ({"flag": 1}, "cfg.flag must be true or false"),
    ({"extra": [1]}, "cfg.extra must be an object"),
    ({"nmae": "b"}, "unknown key 'cfg.nmae'"),
])
def test_errors_name_the_dotted_path(change, message):
    with pytest.raises(ConfigError) as exc:
        from_json(Outer, {**GOOD, **change}, "cfg")
    assert message in str(exc.value)


def test_class_checks_keep_their_type_and_gain_the_path():
    with pytest.raises(ConfigError, match="^binning: binning window must be positive"):
        from_json(BinningConfig, {"window": 0}, "binning")


def test_reads_onto_a_base():
    base = from_json(Outer, GOOD, "cfg")
    out = from_json(Outer, {"inner": {"scale": 3}, "items": []}, "", base)
    # a missing key keeps the base's value, a nested object merges, a list replaces
    assert out == Outer("a", Inner((1, 2), 3.0), (), 5, True, {"any": ["thing"]})
    assert from_json(Outer, {}, "", base) == base


@pytest.mark.parametrize("value,message", [
    ([], "config must be an object"),
    ({"nmae": "b"}, "unknown key 'nmae'"),
    ({"inner": {"size": [1]}}, "inner.size must have 2 items"),
])
def test_root_errors_name_the_bare_key(value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        from_json(Outer, value, "", from_json(Outer, GOOD, "cfg"))
