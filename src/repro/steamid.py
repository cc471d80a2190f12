"""SteamID ID-space layout.

Steam assigns every account a 64-bit SteamID, allocated sequentially from a
base value (76561197960265728).  The paper crawls the 64-bit ID space
exhaustively, observing that account density is below 50% for the first
~21.5% of the allocated range and above 90% afterwards.  :class:`IdSpace`
models that layout so that the simulated API and the crawler exercise the
same sparse-sweep behavior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import constants


@dataclass(frozen=True)
class IdSpace:
    """Layout of allocated SteamIDs for a population of ``n_accounts``.

    Accounts occupy offsets in ``[0, span)`` with non-uniform density: the
    first ``breakpoint`` fraction of the span holds accounts at
    ``early_density`` and the remainder at ``late_density``, matching the
    crawl observations in Section 3.1 of the paper.
    """

    n_accounts: int
    breakpoint: float = constants.ID_DENSITY_BREAKPOINT
    early_density: float = constants.ID_DENSITY_EARLY
    late_density: float = constants.ID_DENSITY_LATE

    def __post_init__(self) -> None:
        if self.n_accounts <= 0:
            raise ValueError("n_accounts must be positive")
        if not 0.0 < self.breakpoint < 1.0:
            raise ValueError("breakpoint must be in (0, 1)")
        if not (0.0 < self.early_density <= 1.0 and 0.0 < self.late_density <= 1.0):
            raise ValueError("densities must be in (0, 1]")

    @property
    def span(self) -> int:
        """Total number of ID offsets the accounts are spread over."""
        # n = span * (bp * early + (1 - bp) * late)
        mean_density = (
            self.breakpoint * self.early_density
            + (1.0 - self.breakpoint) * self.late_density
        )
        return max(self.n_accounts, int(np.ceil(self.n_accounts / mean_density)))

    @property
    def early_span(self) -> int:
        """Number of offsets in the low-density head of the range."""
        return int(self.span * self.breakpoint)

    def n_early_accounts(self) -> int:
        """Number of accounts allocated in the low-density head."""
        return min(self.n_accounts, int(round(self.early_span * self.early_density)))

    def assign_offsets(self, rng: np.random.Generator) -> np.ndarray:
        """Return sorted ID offsets (one per account), dtype ``int64``.

        The first :meth:`n_early_accounts` accounts land uniformly at random
        in the head of the range, the remainder in the tail, reproducing the
        density profile the paper observed.
        """
        n_early = self.n_early_accounts()
        n_late = self.n_accounts - n_early
        head = self._sample_distinct(rng, self.early_span, n_early)
        tail_span = self.span - self.early_span
        tail = self._sample_distinct(rng, tail_span, n_late) + self.early_span
        return np.concatenate([np.sort(head), np.sort(tail)])

    def density_profile(self, offsets: np.ndarray, n_bins: int = 50) -> np.ndarray:
        """Return per-bin occupancy fraction of the ID range."""
        counts, edges = np.histogram(offsets, bins=n_bins, range=(0, self.span))
        widths = np.diff(edges)
        return counts / np.maximum(widths, 1.0)

    @staticmethod
    def _sample_distinct(
        rng: np.random.Generator, span: int, count: int
    ) -> np.ndarray:
        """Sample ``count`` distinct offsets from ``[0, span)``."""
        if count == 0:
            return np.empty(0, dtype=np.int64)
        if count > span:
            raise ValueError(f"cannot place {count} accounts in span {span}")
        if count == span:
            return np.arange(span, dtype=np.int64)
        # Oversample, deduplicate, and top up; cheaper than a full
        # permutation for the sparse case and exact for the dense one.
        if count > span * 0.5:
            return rng.permutation(span)[:count].astype(np.int64)
        chosen: set[int] = set()
        need = count
        result = np.empty(count, dtype=np.int64)
        filled = 0
        while need > 0:
            draw = rng.integers(0, span, size=int(need * 1.3) + 8)
            for value in draw:
                value = int(value)
                if value not in chosen:
                    chosen.add(value)
                    result[filled] = value
                    filled += 1
                    if filled == count:
                        return result
            need = count - filled
        return result
