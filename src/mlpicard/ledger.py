"""Tallies of scalar random draws and drift evaluations.

Both are always counted, as plain non-decreasing integers.  The binary cost
switches v and f of the budget recursion in :mod:`mlpicard.recursions`
select the components of a :meth:`CostLedger.snapshot` instead: a budget
with v = 1, f = 0 bounds the draws, one with v = 0, f = 1 the evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostLedger"]


@dataclass
class CostLedger:
    scalar_draws: int = 0
    drift_evals: int = 0

    def add_draws(self, n: int) -> None:
        self.scalar_draws += n

    def add_evals(self, n: int) -> None:
        self.drift_evals += n

    def snapshot(self) -> tuple[int, int]:
        """(scalar draws, drift evaluations) at this point."""
        return self.scalar_draws, self.drift_evals
