"""Small shared helpers: config numbers, time grids, sums, deterministic CSV."""

from __future__ import annotations

import csv
import math
import os
from pathlib import Path

import numpy as np

from .errors import ConfigError, EmptyGrid, InputError, NonpositiveTime

_REQUIRED = object()


def require(doc: dict, key: str, kind: str):
    if key not in doc:
        raise ConfigError(f"{kind} config is missing required key {key!r}")
    return doc[key]


def check_keys(doc, allowed, what: str) -> None:
    """Refuse a doc that is not an object or holds a key not in allowed."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be an object, got {doc!r:.80}")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {what} keys {unknown}; expected "
                          f"{', '.join(allowed)}")


def is_finite_real(value) -> bool:
    """value is a finite int or float: not a bool, a string or null."""
    try:
        return (isinstance(value, (int, float))
                and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:
        return False


def number(doc: dict, key: str, kind: str, cast=float, default=_REQUIRED,
           minimum=None):
    """doc[key] as a value of type cast, at least minimum if given.

    Every numeric config value passes through here: a bool key takes only
    true or false, an int key only an integral number, and no key a string,
    so a bad value is a ConfigError naming its key, never a ValueError.
    """
    if key not in doc and default is not _REQUIRED:
        return default
    raw = require(doc, key, kind)
    if not (isinstance(raw, bool) if cast is bool else (
            is_finite_real(raw) and (cast is float or float(raw).is_integer())
            and (minimum is None or raw >= minimum))):
        what = {bool: "true or false", int: "an integer"}.get(
            cast, "a finite number")
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{kind} key {key!r} must be {what}{bound}, "
                          f"got {raw!r}")
    return cast(raw)


def floats(raw, what: str) -> np.ndarray:
    """A list of finite numbers as a float array, or ConfigError."""
    if not (isinstance(raw, list) and all(map(is_finite_real, raw))):
        raise ConfigError(f"{what} must be a list of finite numbers, "
                          f"got {raw!r}")
    return np.asarray(raw, dtype=float)


def check_time(t) -> None:
    """Refuse a time that is not finite and > 0 (nan and inf included)."""
    if not (math.isfinite(t) and t > 0):
        raise NonpositiveTime(f"t = {t} must be positive and finite")


def default_time_grid(t0: float = 1.0, ratio: float = 0.5,
                      points: int = 20) -> np.ndarray:
    """Geometric grid t_k = t0 * ratio^k, k = 0..points-1 (decreasing)."""
    if points <= 0:
        raise EmptyGrid("time grid needs at least one point")
    if t0 <= 0 or not 0 < ratio < 1:
        raise InputError("need t0 > 0 and 0 < ratio < 1")
    return t0 * ratio ** np.arange(points)


def check_time_grid(t_grid) -> np.ndarray:
    """Validate a strictly decreasing positive grid and return it as an array."""
    arr = np.asarray(t_grid, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyGrid("empty time grid")
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise InputError("time grid must be positive and finite")
    if arr.size > 1 and not np.all(np.diff(arr) < 0):
        raise InputError("time grid must be strictly decreasing")
    return arr


def kahan_sum(values) -> float:
    """Compensated (Kahan) sum; order-stable accumulation of worker results."""
    total = 0.0
    comp = 0.0
    for v in values:
        y = float(v) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def fmt(value) -> str:
    """Canonical text form for CSV cells: shortest round-trip for floats."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> Path:
    """Write rows with a fixed '\\n' terminator so output bytes are stable."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])
    return p


def parallel_map(fn, items, threads: int = 1) -> list:
    """Order-preserving map, optionally over a thread pool.

    The pool has at most one worker per item and per CPU, however many
    threads are asked for. Each call must be pure; results are collected by
    position so the output does not depend on scheduling.
    """
    items = list(items)
    workers = min(threads, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    # deferred: the pool module and the logging it loads cost every process
    # start, and single-threaded runs never need them
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
