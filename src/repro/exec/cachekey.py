"""Canonical scenario serialization and content-addressed cache keys.

A cache key must change when -- and only when -- something that affects
the simulation's output changes. The canonicalizer therefore renders a
:class:`~repro.core.config.Scenario` (and everything it transitively
contains: knob dataclasses, job specs, device presets, GC params, QoS
params, enums) into a deterministic text form with these properties:

* **No identity leakage**: object ids, dict insertion order and
  ``PYTHONHASHSEED`` never reach the key. Dicts are sorted by their
  canonical key text; dataclass fields are sorted by field name.
* **Type-tagged**: the rendering embeds each dataclass's qualified class
  name and each enum's class + member name, so two knobs with identical
  field values but different types (e.g. ``IoMaxKnob`` vs a subclass)
  key differently.
* **Exact floats**: floats are rendered with ``repr`` (shortest
  round-trip form, stable across CPython platforms), so a weight of
  ``0.1`` and ``0.1000000000000001`` key differently -- the simulation
  would diverge too. ``inf``/``nan`` render symbolically.

The SHA-256 runs over that text plus :data:`SCHEMA_VERSION` (bumped
whenever the summary layout or simulation semantics change incompatibly)
and the summary's own schema version, so stale entries are structurally
unreachable rather than "probably invalidated".
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import math
import pkgutil
import re
import types
import typing

from repro.exec.summary import SUMMARY_SCHEMA_VERSION

#: Bump to invalidate every existing cache entry (e.g. after a simulator
#: change that alters results without touching any Scenario field).
#: v2: fault-injection layer (Scenario.faults, retry/timeout completion
#: path) — pre-faults entries were produced by a semantically different
#: simulator and must read as misses.
#: v3: JobSpec.macro_tick_us arrival batching — specs render with a new
#: field, and macro-tick runs draw from a dedicated arrival RNG stream
#: older entries never saw.
#: v4: online control plane (Scenario.ctl, repro.ctl) plus
#: JobSpec.arrival_phases time-varying arrivals — scenarios render with
#: new fields whose defaults older entries never carried, and ctl runs
#: rewrite knob files mid-run, which no pre-v4 simulator could.
#: v5: columnar entry files (``*.entry``: JSON header plus raw column
#: bytes) replace gzipped pickles; summaries hold numpy completion logs.
SCHEMA_VERSION = 5

_SALT = f"isolbench-cache:v{SCHEMA_VERSION}:summary-v{SUMMARY_SCHEMA_VERSION}"


def _render(obj, out: list[str]) -> None:
    """Append the canonical text of ``obj`` to ``out``."""
    if obj is None:
        out.append("N")
    elif obj is True:
        out.append("T")
    elif obj is False:
        out.append("F")
    elif isinstance(obj, enum.Enum):
        out.append(f"E:{type(obj).__module__}.{type(obj).__qualname__}.{obj.name}")
    elif isinstance(obj, int):
        out.append(f"i:{obj}")
    elif isinstance(obj, float):
        if math.isnan(obj):
            out.append("f:nan")
        elif math.isinf(obj):
            out.append("f:+inf" if obj > 0 else "f:-inf")
        else:
            out.append(f"f:{obj!r}")
    elif isinstance(obj, str):
        out.append(f"s:{len(obj)}:{obj}")
    elif isinstance(obj, bytes):
        out.append(f"b:{len(obj)}:{obj.hex()}")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out.append(f"D:{type(obj).__module__}.{type(obj).__qualname__}{{")
        for field in sorted(dataclasses.fields(obj), key=lambda f: f.name):
            out.append(f"{field.name}=")
            _render(getattr(obj, field.name), out)
            out.append(";")
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for item in obj:
            _render(item, out)
            out.append(",")
        out.append("]")
    elif isinstance(obj, (set, frozenset)):
        rendered = sorted(canonical_text(item) for item in obj)
        out.append("{" + ",".join(rendered) + "}")
    elif isinstance(obj, dict):
        out.append("M{")
        entries = sorted(
            (canonical_text(key), value) for key, value in obj.items()
        )
        for key_text, value in entries:
            out.append(key_text)
            out.append(":")
            _render(value, out)
            out.append(";")
        out.append("}")
    elif hasattr(obj, "__dict__") and not callable(obj):
        # Plain configuration objects (e.g. a bare KnobConfig subclass
        # that is not a dataclass): class identity + sorted attributes.
        out.append(f"O:{type(obj).__module__}.{type(obj).__qualname__}{{")
        for name in sorted(vars(obj)):
            out.append(f"{name}=")
            _render(vars(obj)[name], out)
            out.append(";")
        out.append("}")
    else:
        raise TypeError(
            f"cannot canonicalize {type(obj).__module__}.{type(obj).__qualname__} "
            f"for cache keying; add dataclass/enum support or exclude it "
            f"from the Scenario"
        )


def canonical_text(obj) -> str:
    """Deterministic, content-complete text rendering of ``obj``."""
    out: list[str] = []
    _render(obj, out)
    return "".join(out)


def scenario_key(scenario) -> str:
    """SHA-256 content address of a scenario (hex, 64 chars)."""
    text = _SALT + "|" + canonical_text(scenario)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Decoding: canonical text back to the object
# ----------------------------------------------------------------------
#: A bare ``i:``/``f:``/``E:`` token runs up to the next delimiter.
_TOKEN = re.compile(r"[^;,\]}:{]*")
#: A ``module.qualname`` class path or a field name.
_NAME = re.compile(r"[\w.]*")
_CONSTANTS = {"N": None, "T": True, "F": False}


def decode_canonical(text: str):
    """Rebuild the object :func:`canonical_text` rendered: ``decode(text(s)) == s``.

    Covers the values a ``Scenario`` holds (no sets or bytes). Only
    dataclasses and enums defined in ``repro.*`` modules are built; a
    ``D:``/``E:`` tag naming anything else, any ``O:`` (plain object)
    tag and malformed text raise ``ValueError``, so an entry cannot make
    its reader import or construct foreign code. ``[...]`` renders lists
    and tuples alike; a field gets the one its annotation declares (a
    list if neither).
    """
    reader = _Reader(text)
    try:
        value = reader.value(None)
    except (KeyError, TypeError, RecursionError) as exc:  # bad member, field, depth
        raise ValueError(f"cannot rebuild {exc}") from exc
    if reader.pos != len(text):
        raise ValueError(f"trailing text at offset {reader.pos}")
    return value


class _Reader:
    """Recursive-descent reader over one canonical text."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def expect(self, literal: str) -> None:
        """Consume ``literal`` or raise."""
        if not self.text.startswith(literal, self.pos):
            raise ValueError(f"expected {literal!r} at offset {self.pos}")
        self.pos += len(literal)

    def more(self, end: str) -> bool:
        """False (and ``end`` consumed) once the text reaches ``end``."""
        done = self.text.startswith(end, self.pos)
        self.pos += len(end) if done else 0
        return not done

    def token(self, pattern: re.Pattern = _TOKEN) -> str:
        """Consume the (possibly empty) match of ``pattern``."""
        match = pattern.match(self.text, self.pos)
        self.pos = match.end()
        return match.group()

    def value(self, hint):
        """Decode the value at the cursor; ``hint`` is its declared type."""
        head = self.text[self.pos : self.pos + 2]
        if head[:1] in _CONSTANTS:
            self.pos += 1
            return _CONSTANTS[head[:1]]
        if head[:1] == "[":
            self.pos += 1
            kind, items = _arm(hint, (list, tuple)), []
            while self.more("]"):
                items.append(self.value(_item_hint(kind, len(items))))
                self.expect(",")
            return tuple(items) if (typing.get_origin(kind) or kind) is tuple else items
        self.pos += 2
        if head == "i:":
            return int(self.token())
        if head == "f:":
            return float(self.token())
        if head == "s:":
            size = int(self.token())
            self.expect(":")
            if not 0 <= size <= len(self.text) - self.pos:
                raise ValueError(f"bad string length at offset {self.pos}")
            self.pos += size
            return self.text[self.pos - size : self.pos]
        if head == "E:":
            path, _, member = self.token().rpartition(".")
            return _repro_class(path, enum_tag=True)[member]
        if head == "D:":
            cls = _repro_class(self.token(_NAME), enum_tag=False)
            hints, derived = _fields(cls)
            kwargs = {}
            self.expect("{")
            while self.more("}"):
                name = self.token(_NAME)
                self.expect("=")
                kwargs[name] = self.value(hints.get(name))
                self.expect(";")
            return cls(**{name: value for name, value in kwargs.items() if name not in derived})
        if head == "M{":
            kind, result = _arm(hint, (dict,)), {}
            while self.more("}"):
                key = self.value(_item_hint(kind, 0))
                self.expect(":")
                result[key] = self.value(_item_hint(kind, 1))
                self.expect(";")
            return result
        raise ValueError(f"unknown tag {head!r} at offset {self.pos - 2}")


@functools.lru_cache(maxsize=None)
def _repro_class(path: str, enum_tag: bool) -> type:
    """The enum (or dataclass) that a repro module defines as ``path``."""
    if not path.startswith("repro."):
        raise ValueError(f"refusing class outside repro.*: {path}")
    try:
        found = pkgutil.resolve_name(path)
    except (ImportError, AttributeError, ValueError) as exc:
        raise ValueError(f"no class {path}") from exc
    defined_here = isinstance(found, type) and f"{found.__module__}.{found.__qualname__}" == path
    if not defined_here or not (
        issubclass(found, enum.Enum) if enum_tag else dataclasses.is_dataclass(found)
    ):
        raise ValueError(f"{path} is not a repro {'enum' if enum_tag else 'dataclass'}")
    return found


@functools.lru_cache(maxsize=None)
def _fields(cls) -> tuple[dict, frozenset]:
    """``cls``'s field annotations and the fields ``__init__`` does not take."""
    try:
        hints = typing.get_type_hints(cls)
    except NameError:  # a name imported only for type checking: lists then
        hints = {}
    return hints, frozenset(f.name for f in dataclasses.fields(cls) if not f.init)


def _arm(hint, origins: tuple):
    """The member of ``hint`` (looking through unions) with an origin in ``origins``."""
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    for arm in typing.get_args(hint) if union else (hint,):
        if arm in origins or typing.get_origin(arm) in origins:
            return arm
    return None


def _item_hint(container, index: int):
    """Declared type of element ``index`` of a container hint (None: unknown)."""
    args = [arg for arg in typing.get_args(container) if arg is not Ellipsis]
    return args[min(index, len(args) - 1)] if args else None
