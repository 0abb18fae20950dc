"""Reference cache-key renderer the library's renderer is checked against.

:func:`oracle_text` is the seed's ``repro.exec.cachekey`` renderer: one
recursive ``isinstance`` ladder that re-renders every sub-object of
every value it meets. The library now dispatches on exact type, renders
each dataclass through a plan compiled per class and shares one memo
across a sweep's batch; every text it writes must stay byte-identical
to this one, or every warm cache turns cold. It exists only for tests.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import math

from repro.exec.cachekey import _SALT


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
        rendered = sorted(oracle_text(item) for item in obj)
        out.append("{" + ",".join(rendered) + "}")
    elif isinstance(obj, dict):
        out.append("M{")
        entries = sorted(
            (oracle_text(key), value) for key, value in obj.items()
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


def oracle_text(obj) -> str:
    """The seed renderer's canonical text of ``obj``."""
    out: list[str] = []
    _render(obj, out)
    return "".join(out)


def oracle_key(scenario) -> str:
    """The seed's cache key: SHA-256 of the salt and :func:`oracle_text`."""
    text = _SALT + "|" + oracle_text(scenario)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
