"""Shared numeric tolerances.

Checks in this package allow REL_TOL times the compared value, which
means the same at every scale: no record check has an absolute floor.
`slack` adds one on top; only the output checks of `perfbench/` use it.
"""
from __future__ import annotations

ABS_TOL = 1e-12
REL_TOL = 1e-9


def slack(scale: float) -> float:
    """Allowed defect when comparing quantities of the given magnitude."""
    return ABS_TOL + REL_TOL * abs(scale)
