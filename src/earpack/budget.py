"""Search budgets for the exponential-in-the-worst-case searches.

Every cap is explicit: exceeding one raises or flags rather than silently
returning a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class SearchBudget:
    # chordless-cycle enumeration; cycle pairs and restricted min cuts
    max_cycles: int = 1_000_000
    max_cycle_steps: int = 5_000_000
    max_cut_pairs: int = 1_000_000
    # ear enumeration and branch-and-bound packing
    max_ears: int = 200_000
    max_bb_nodes: int = 2_000_000

    def scaled(self, factor: float) -> "SearchBudget":
        """Scale every numeric cap (used by the EARPACK_BUDGET override)."""
        if factor <= 0:
            raise ValueError("budget factor must be positive")
        return replace(
            self,
            max_cycles=max(1, int(self.max_cycles * factor)),
            max_cycle_steps=max(1, int(self.max_cycle_steps * factor)),
            max_cut_pairs=max(1, int(self.max_cut_pairs * factor)),
            max_ears=max(1, int(self.max_ears * factor)),
            max_bb_nodes=max(1, int(self.max_bb_nodes * factor)),
        )


DEFAULT_BUDGET = SearchBudget()
