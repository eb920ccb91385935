"""Output checks: reference summaries and their comparison.

Every operation's result is reduced to named fields. Integers, strings,
booleans and lists of them must match the reference exactly. Float fields
are compared norm-wise with one tolerance, TOL = sqrt(float64 eps):
short arrays entry by entry, long arrays through their 2-norm and four
fixed random unit probes, each allowed to move by TOL times the
reference 2-norm.
"""

from __future__ import annotations

import math

import numpy as np

TOL = math.sqrt(np.finfo(np.float64).eps)
FULL_SIZE = 16   # float fields up to this many entries are stored whole
PROBES = 4


class CheckFailed(Exception):
    """An operation's output disagrees with its reference or oracle."""


def _probes(n: int) -> np.ndarray:
    r = np.random.default_rng([n, PROBES]).standard_normal((PROBES, n))
    return r / np.linalg.norm(r, axis=1, keepdims=True)


def _is_exact(value) -> bool:
    if isinstance(value, (bool, int, str, np.integer, np.bool_)):
        return True
    return isinstance(value, (list, tuple)) and all(_is_exact(v) for v in value)


def _plain(value):
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    return value


def summarize(value):
    """JSON-ready reference summary of one field."""
    if _is_exact(value):
        return {"exact": _plain(value)}
    a = np.asarray(value, dtype=float).ravel()
    if not np.all(np.isfinite(a)):
        raise CheckFailed("non-finite float output")
    norm = float(np.linalg.norm(a))
    if a.size <= FULL_SIZE:
        return {"values": a.tolist(), "norm": norm}
    return {"size": a.size, "norm": norm, "probes": (_probes(a.size) @ a).tolist()}


def compare(field: str, value, ref: dict) -> None:
    """Raise CheckFailed when value differs from its reference summary."""
    if "exact" in ref:
        if not _is_exact(value) or _plain(value) != ref["exact"]:
            raise CheckFailed(f"{field}: {_plain(value)!r} != reference {ref['exact']!r}")
        return
    a = np.asarray(value, dtype=float).ravel()
    if not np.all(np.isfinite(a)):
        raise CheckFailed(f"{field}: non-finite output")
    slack = TOL * ref["norm"]
    if "values" in ref:
        if a.size != len(ref["values"]):
            raise CheckFailed(f"{field}: size {a.size} != reference {len(ref['values'])}")
        err = float(np.linalg.norm(a - np.asarray(ref["values"])))
    else:
        if a.size != ref["size"]:
            raise CheckFailed(f"{field}: size {a.size} != reference {ref['size']}")
        err = max(
            abs(float(np.linalg.norm(a)) - ref["norm"]),
            float(np.max(np.abs(_probes(a.size) @ a - np.asarray(ref["probes"])))),
        )
    if err > slack:
        raise CheckFailed(f"{field}: off the reference by {err:.3e} (allowed {slack:.3e})")


def check_fields(fields: dict, refs: dict) -> None:
    """Compare every field of one result with its recorded summary."""
    if set(fields) != set(refs):
        raise CheckFailed(f"fields {sorted(fields)} != reference fields {sorted(refs)}")
    for name, value in fields.items():
        compare(name, value, refs[name])


def close(value: float, expected: float, scale: float, what: str) -> None:
    """Oracle check |value - expected| <= TOL * scale."""
    if not abs(value - expected) <= TOL * scale:
        raise CheckFailed(f"{what}: {value!r} != {expected!r} within {TOL * scale:.3e}")
