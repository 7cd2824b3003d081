"""Tallies of scalar random draws and drift evaluations.

The two flags mirror the binary cost switches of the budget recursion in
:mod:`mlpicard.recursions`: draws are counted only when ``count_draws`` is
set, drift evaluations only when ``count_evals`` is set.  Tallies are plain
non-decreasing integers.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostLedger"]


@dataclass
class CostLedger:
    count_draws: bool = True
    count_evals: bool = True
    scalar_draws: int = 0
    drift_evals: int = 0

    def add_draws(self, n: int) -> None:
        if self.count_draws:
            self.scalar_draws += n

    def add_evals(self, n: int) -> None:
        if self.count_evals:
            self.drift_evals += n

    def snapshot(self) -> tuple[int, int]:
        """(scalar draws, drift evaluations) at this point."""
        return self.scalar_draws, self.drift_evals
