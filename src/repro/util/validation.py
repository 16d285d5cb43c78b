"""Argument-checking helpers used at public API boundaries.

Fail fast with messages that name the offending argument; internal hot paths
skip these checks (they validate once at construction).  :class:`EnvSpec`
turns a ``REPRO_*`` environment knob into a validated config.
"""

from __future__ import annotations

import os
from typing import Callable, ClassVar

import numpy as np

__all__ = [
    "EnvSpec",
    "check_positive",
    "check_probability",
    "check_in_range",
    "check_integer",
    "check_array_shape",
]


def check_positive(name: str, value, strict: bool = True):
    """Require ``value > 0`` (or ``>= 0`` when ``strict=False``)."""
    if strict and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_probability(name: str, value):
    """Require ``0 <= value <= 1``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_in_range(name: str, value, lo, hi, inclusive: bool = True):
    """Require ``lo <= value <= hi`` (or strict inequalities)."""
    ok = lo <= value <= hi if inclusive else lo < value < hi
    if not ok:
        brackets = "[]" if inclusive else "()"
        raise ValueError(
            f"{name} must be in {brackets[0]}{lo}, {hi}{brackets[1]}, got {value!r}"
        )
    return value


def check_integer(name: str, value, minimum=None):
    """Require an integer (bools rejected), optionally with a lower bound."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_array_shape(name: str, array, shape):
    """Require ``array.shape == shape`` (``None`` entries are wildcards)."""
    array = np.asarray(array)
    if len(array.shape) != len(shape) or any(
        expected is not None and actual != expected
        for actual, expected in zip(array.shape, shape)
    ):
        raise ValueError(f"{name} must have shape {shape}, got {array.shape}")
    return array


class EnvSpec:
    """``REPRO_*`` knob parsing for a config dataclass.

    A subclass names its variable (``ENV_VAR``) and its keys (``SPEC_KEYS``:
    accepted spelling -> field name).  ``"1"``/``"on"``/``"true"`` give the
    defaults unless ``SHORTHAND`` is False; otherwise the spec is
    comma-separated ``key=value`` pairs.
    Each value is converted by ``SPEC_TYPES[field]``, else by the type of
    the field's default, and the config is built by :meth:`from_fields`.
    """

    ENV_VAR: ClassVar[str]
    SPEC_KEYS: ClassVar[dict[str, str]]
    SPEC_TYPES: ClassVar[dict[str, Callable]] = {}
    SHORTHAND: ClassVar[bool] = True

    @classmethod
    def from_fields(cls, values: dict):
        return cls(**values)

    @classmethod
    def from_spec(cls, spec: str):
        """Parse a knob value such as ``"1"`` or ``"every=20,max=256"``."""
        value = spec.strip().lower()
        if cls.SHORTHAND and value in ("1", "on", "true"):
            return cls()
        values = {}
        for part in filter(None, map(str.strip, value.split(","))):
            key, sep, raw = part.partition("=")
            name = cls.SPEC_KEYS.get(key.strip())
            if not sep or name is None:
                known = ", ".join(sorted(cls.SPEC_KEYS))
                raise ValueError(
                    f"bad {cls.ENV_VAR} entry {part!r}; expected "
                    f"{'1/on or ' if cls.SHORTHAND else ''}"
                    f"key=value with key in {{{known}}}"
                )
            convert = cls.SPEC_TYPES.get(name) or type(getattr(cls, name))
            try:
                values[name] = convert(raw.strip())
            except ValueError as exc:
                raise ValueError(
                    f"bad {cls.ENV_VAR} value for {key!r}: {raw!r}"
                ) from exc
        return cls.from_fields(values)

    @classmethod
    def from_env(cls):
        """The config the environment asks for, or None when it is off."""
        value = os.environ.get(cls.ENV_VAR, "").strip()
        if value.lower() in ("", "0", "off", "false"):
            return None
        return cls.from_spec(value)
