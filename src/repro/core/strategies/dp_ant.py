"""DP-ANT: above-noisy-threshold synchronization (Algorithm 3).

DP-ANT synchronizes when the owner has received *approximately* ``theta``
records since the last synchronization.  The comparison is performed with the
sparse-vector technique: the privacy budget is split in half, the first half
perturbs the threshold (``Lap(2/eps1)``) and the per-step counts
(``Lap(4/eps1)``), the second half feeds the ``Perturb`` fetch that decides
how many records to upload once the threshold fires.  Each
threshold-crossing round touches a disjoint slice of the update stream, so
rounds compose in parallel and the overall update pattern is
``epsilon``-DP (Theorem 11).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Sequence

import numpy as np

from repro.core.cache import CacheMode
from repro.core.strategies.base import SyncDecision, SyncStrategy
from repro.core.strategies.flush import FlushPolicy
from repro.core.strategies.perturb import perturb
from repro.dp.mechanisms import AboveThreshold
from repro.edb.records import Record

__all__ = ["DPANTStrategy"]

#: Ticks compared by the first window of a quiet-run scan (then doubling).
_FIRST_WINDOW = 16


class DPANTStrategy(SyncStrategy):
    """Above-noisy-threshold differentially-private synchronization.

    Parameters
    ----------
    epsilon:
        Update-pattern privacy budget; split evenly between the sparse-vector
        comparisons (``epsilon/2``) and the record fetch (``epsilon/2``).
    theta:
        The (public) threshold on the number of newly received records.
    flush:
        Cache-flush policy; ``FlushPolicy.disabled()`` turns it off.
    budget_split:
        Fraction of ``epsilon`` given to the sparse-vector side.  The paper
        uses 0.5; other values are exposed for the budget-split ablation.
    resample_comparison_noise:
        Whether the sparse-vector comparison noise is drawn fresh at every
        time step (Algorithm 3 as printed; the default) or held fixed within
        a round.  The held variant synchronizes far less often on sparse
        streams at small budgets; see the noise-resampling ablation bench.
    """

    name = "dp-ant"

    def __init__(
        self,
        dummy_factory: Callable[[int], Record],
        epsilon: float = 0.5,
        theta: int = 15,
        flush: FlushPolicy | None = None,
        rng: np.random.Generator | None = None,
        cache_mode: CacheMode = CacheMode.FIFO,
        budget_split: float = 0.5,
        resample_comparison_noise: bool = True,
    ) -> None:
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if theta < 0:
            raise ValueError("theta must be non-negative")
        if not 0.0 < budget_split < 1.0:
            raise ValueError("budget_split must be in (0, 1)")
        super().__init__(dummy_factory, rng=rng, cache_mode=cache_mode)
        self._epsilon = epsilon
        self._theta = theta
        self._flush = flush if flush is not None else FlushPolicy()
        self._budget_split = budget_split
        self._epsilon_compare = epsilon * budget_split
        self._epsilon_fetch = epsilon * (1.0 - budget_split)
        self._sparse = AboveThreshold(
            theta=float(theta),
            epsilon=self._epsilon_compare,
            resample_noise=resample_comparison_noise,
        )
        self._round_received = 0
        self._round_index = 0
        # Whether the next comparison could fire without a new arrival: true
        # until the first step and right after a crossing (both draw a fresh
        # noisy threshold and held noise, so 0 + noise may already cross).
        self._comparison_pending = True

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @property
    def theta(self) -> int:
        """The threshold parameter."""
        return self._theta

    @property
    def flush_policy(self) -> FlushPolicy:
        """The configured cache-flush policy."""
        return self._flush

    @property
    def epsilon_compare(self) -> float:
        """Budget share used by the sparse-vector comparisons (``eps1``)."""
        return self._epsilon_compare

    @property
    def epsilon_fetch(self) -> float:
        """Budget share used by the Perturb fetch (``eps2``)."""
        return self._epsilon_fetch

    def _initial_records(self, initial: Sequence[Record]) -> list[Record]:
        gamma0 = perturb(len(initial), self._epsilon, self.cache, self._noise, 0)
        self.accountant.spend(self._epsilon, partition="setup", label="M_setup")
        self._sparse.reset(self._noise)
        return gamma0

    def next_event(self, now: int) -> int | None:
        """When the strategy must be stepped even without an arrival.

        With resampled comparison noise (Algorithm 3 as printed) every time
        unit draws fresh ``Lap(4/eps1)`` noise and may cross the threshold,
        so no tick can be skipped.  With held noise the comparison outcome is
        constant between arrivals and crossings, so only the tick right after
        a crossing (fresh threshold and held noise) and the flush schedule
        need a wake-up.
        """
        if self._sparse.resample_noise or self._comparison_pending:
            return now + 1
        return self._flush.next_flush_after(now)

    def quiet_until(self, now: int, limit: int, times: Sequence[int]) -> int:
        """The tick before the first sparse-vector crossing or flush tick.

        The comparison counts of the ticks after ``now`` are the round count
        plus the run's cumulative arrivals; :meth:`AboveThreshold.quiet_steps`
        compares a window of them at once against the noisy threshold (with
        the resampled noise read ahead from the block stream, or the held
        draw).  Windows double from ``_FIRST_WINDOW`` ticks: most rounds end
        within a few ticks, so only a short prefix of the arrivals is ever
        converted.
        """
        next_flush = self._flush.next_flush_after(now)
        end = limit if next_flush is None else min(limit, next_flush - 1)
        start, seen, count = now, 0, self._round_received
        width = _FIRST_WINDOW
        while start < end:
            stop = min(end, start + width)
            upto = bisect_right(times, stop, seen)
            offsets = np.array(times[seen:upto], dtype=np.int64) - (start + 1)
            counts = count + np.bincount(offsets, minlength=stop - start).cumsum()
            quiet = self._sparse.quiet_steps(counts, self._noise, start - now)
            if quiet < stop - start:
                return start + quiet
            start, seen, count = stop, upto, count + upto - seen
            width *= 2
        return max(now, end)

    def absorb(self, now: int, end: int, records: Sequence[Record]) -> None:
        super().absorb(now, end, records)
        self._round_received += len(records)
        self._sparse.skip(end - now, self._noise)
        if end > now:
            # A quiet comparison clears the flag, as in step(); keeping it
            # would only cost spurious wake-ups.
            self._comparison_pending = False

    def _step(self, time: int, update: Record | None) -> SyncDecision:
        if update is not None:
            self.cache.write(update)
            self._round_received += 1

        records: list[Record] = []
        reasons: list[str] = []

        fired = self._sparse.step(self._round_received, self._noise)
        self._comparison_pending = fired
        if fired:
            self._round_index += 1
            records.extend(
                perturb(self._round_received, self._epsilon_fetch, self.cache, self._noise, time)
            )
            # One sparse-vector round costs eps1 (comparisons) + eps2 (fetch);
            # rounds act on disjoint data slices, hence their own partition.
            self.accountant.spend(
                self._epsilon_compare + self._epsilon_fetch,
                partition=f"round-{self._round_index}",
                label="M_sparse",
            )
            self._round_received = 0
            reasons.append("threshold")

        if self._flush.should_flush(time):
            records.extend(self.cache.read(self._flush.size, time))
            self.accountant.spend(0.0, partition="flush", label="M_flush")
            reasons.append("flush")

        if not reasons or not records:
            return SyncDecision.no_sync()
        return SyncDecision(
            should_sync=True, records=tuple(records), reason="+".join(reasons)
        )
