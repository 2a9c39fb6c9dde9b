"""Structured pass/fail records and tabular emission.

Every verified inequality or identity in the suite produces a
:class:`CheckReport` carrying both sides and both tolerances.  Its verdict is
a read-only function of those stored fields, so no caller can set it and every
emitted row reproduces its own pass:

* kind "le":  pass  <=>  lhs <= rhs * (1 + rel_tol) + abs_tol
* kind "eq":  pass  <=>  |lhs - rhs| <= rel_tol * max(|lhs|, |rhs|, 1) + abs_tol

A check with a compound condition folds it into lhs and rhs.

Values may legitimately overflow float64 (several pipeline constants do);
non-finite values are serialized as strings so reports stay valid JSON.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

__all__ = ["CheckReport", "check_le", "check_eq", "emit_json", "emit_csv",
           "emit_plotdata", "write_atomic", "seeded_rng"]


@dataclass
class CheckReport:
    name: str
    anchor: str          # stable identifier of the statement being checked
    lhs: float
    rhs: float
    rel_tol: float = 0.0
    abs_tol: float = 0.0
    kind: str = "le"     # "le" or "eq"
    diagnostics: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        if self.kind == "eq":
            scale = max(abs(self.lhs), abs(self.rhs), 1.0)
            return abs(self.lhs - self.rhs) <= self.rel_tol * scale + self.abs_tol
        return self.lhs <= self.rhs * (1.0 + self.rel_tol) + self.abs_tol

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "lhs": _jsonable(self.lhs),
            "rhs": _jsonable(self.rhs),
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
            "kind": self.kind,
            "pass": bool(self.passed),
            "diagnostics": {k: _jsonable(v) for k, v in sorted(self.diagnostics.items())},
        }


def check_le(name, anchor, lhs, rhs, rel_tol=0.0, abs_tol=0.0, **diag) -> CheckReport:
    return CheckReport(name, anchor, float(lhs), float(rhs), rel_tol, abs_tol, "le", diag)


def check_eq(name, anchor, lhs, rhs, rel_tol=0.0, abs_tol=0.0, **diag) -> CheckReport:
    return CheckReport(name, anchor, float(lhs), float(rhs), rel_tol, abs_tol, "eq", diag)


def _premise_failure(name: str, which: str, anchor: str = "", **diag) -> CheckReport:
    """A failed report for an instance that violates the premise `which`."""
    return check_le(name, anchor or name, 1.0, 0.0, violated_premise=which, **diag)


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)  # 'inf', '-inf', 'nan'
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in sorted(v.items())}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (bool, int, str)) or v is None or isinstance(v, float):
        return v
    return str(v)


def write_atomic(path: str, data: str) -> None:
    """Write text atomically so failed runs never leave partial report files."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(data)
    os.replace(tmp, path)


def emit_json(reports, extra=None) -> str:
    payload = {"reports": [r.to_dict() for r in reports]}
    if extra:
        payload.update({k: _jsonable(v) for k, v in sorted(extra.items())})
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit_csv(reports) -> str:
    """CSV with header (name, anchor, kind, lhs, rhs, rel_tol, abs_tol, pass):
    every row holds all the fields its pass is computed from."""
    if not reports:
        raise ValueError("no reports to emit")
    lines = ["name,anchor,kind,lhs,rhs,rel_tol,abs_tol,pass"]
    for r in reports:
        lines.append(f"{r.name},{r.anchor},{r.kind},{r.lhs!r},{r.rhs!r},"
                     f"{float(r.rel_tol)!r},{float(r.abs_tol)!r},{int(r.passed)}")
    return "\n".join(lines) + "\n"


def emit_plotdata(series) -> str:
    """Two-column whitespace-separated (x, y) file for one series."""
    xs, ys = series
    if len(xs) == 0:
        raise ValueError("empty series")
    lines = [f"{float(x)!r} {float(y)!r}" for x, y in zip(xs, ys)]
    return "\n".join(lines) + "\n"


def seeded_rng(seed: int, tag: str = "") -> np.random.Generator:
    """Philox4x64-10 counter-based generator; (seed, crc32(tag)) is the key.

    The named algorithm makes every randomized suite reproducible from the
    documented key alone, independent of call order.
    """
    key = (int(seed) & 0xFFFFFFFFFFFFFFFF, zlib.crc32(tag.encode()) & 0xFFFFFFFF)
    return np.random.Generator(np.random.Philox(key=key))
