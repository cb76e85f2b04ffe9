"""Each record field's JSON kind and range, declared once beside its default
(`epochs: int = ruled(10, Rule(int, 1))`) and read by every check: the records'
`__post_init__`s, checkpoint and pairs-file loading, and CLI flags."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace

# As in JSON, a bool is neither an integer nor a number, and an integer is a number.
_TYPES = {int: numbers.Integral, float: numbers.Real}
_NOUNS = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


class FieldError(ValueError):
    """A value that breaks the rule of the field `field`."""

    def __init__(self, field, problem):
        super().__init__(f"{field} {problem}")
        self.field, self.problem = field, problem


@dataclass(frozen=True)
class Rule:
    """A kind (bool, int, float, str or a record class) and a range: at
    least `low` (above it with `open_low`) and at most `high`. `null` also
    admits None; `each` asks for a list or tuple whose items all obey."""

    kind: type
    low: float | None = None
    high: float | None = None
    open_low: bool = False
    null: bool = False
    each: bool = False

    def __str__(self):
        text = _NOUNS.get(self.kind, f"a {self.kind.__name__}")
        if self.high is not None:
            text += f" in {'(' if self.open_low else '['}{self.low:g}, {self.high:g}]"
        elif self.low is not None:
            text += f" {'>' if self.open_low else '>='} {self.low:g}"
        text = f"a list, each {text}" if self.each else text
        return f"{text} or null" if self.null else text

    def admits(self, value) -> bool:
        if value is None:
            return self.null
        if self.each:
            item = replace(self, each=False)
            return isinstance(value, (list, tuple)) and all(map(item.admits, value))
        if self.kind is bool or isinstance(value, bool):
            return self.kind is bool and isinstance(value, bool)
        try:
            return (isinstance(value, _TYPES.get(self.kind, self.kind))
                    and (self.kind is not float or math.isfinite(value))
                    and (self.low is None or value > self.low
                         or (value == self.low and not self.open_low))
                    and (self.high is None or value <= self.high))
        except OverflowError:  # an integer too large for a float
            return False

    def check(self, name, value):
        """`value`, or a FieldError naming `name` if it breaks the rule."""
        if not self.admits(value):
            raise FieldError(name, f"must be {self}, got {value!r}")
        return value


def ruled(default, rule: Rule):
    """A dataclass field with `default` (MISSING for none) and `rule`."""
    return field(default=default, metadata={"rule": rule})


def field_rules(record) -> dict:
    """The rule of each ruled field of a record class or instance."""
    return {f.name: f.metadata["rule"] for f in fields(record) if "rule" in f.metadata}


def check(rules: dict, values: dict):
    """Hold each key of `values` that `rules` names to its rule (records:
    `check(field_rules(self), vars(self))`)."""
    for name, rule in rules.items():
        if name in values:
            rule.check(name, values[name])
