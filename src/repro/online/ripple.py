"""Ripple join (Haas & Hellerstein 1999): online aggregation over joins.

Both join inputs are read in random order; after ``k_R`` rows of R and
``k_S`` rows of S, the joined prefix R[:k_R] ⋈ S[:k_S] scaled by
``(|R|·|S|)/(k_R·k_S)`` is an unbiased estimate of the join aggregate.
The square ripple grows both prefixes together; the estimate converges
while the user watches.

The confidence interval uses the per-R-row linearization (each read R row
contributes its S-prefix join total, scaled), which captures the dominant
variance term for FK-like joins; Haas's full two-sided variance adds a
symmetric S-side term we fold in the same way and combine. Good enough
for the convergence-shape claims of experiment E13; exactness is not
claimed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..core.errorspec import z_value
from ..engine.aggregates import factorize
from ..engine.table import Table


@dataclass
class RippleSnapshot:
    rows_read_left: int
    rows_read_right: int
    value: float
    ci_low: float
    ci_high: float

    @property
    def relative_half_width(self) -> float:
        if self.value == 0:
            return math.inf
        return (self.ci_high - self.ci_low) / 2.0 / abs(self.value)

    def covers(self, truth: float) -> bool:
        """Does the interval contain the exact join aggregate?"""
        return self.ci_low <= truth <= self.ci_high


class RippleJoin:
    """Online SUM(left_value · right_value-ish) over an equi-join.

    ``measure`` is evaluated per joined pair as
    ``left_measure[i] * right_measure[j]``; pass all-ones on one side for
    single-table measures.
    """

    def __init__(
        self,
        left: Table,
        right: Table,
        left_key: str,
        right_key: str,
        left_measure: Optional[str] = None,
        right_measure: Optional[str] = None,
        confidence: float = 0.95,
        seed: Optional[int] = None,
        left_mask: Optional[np.ndarray] = None,
        right_mask: Optional[np.ndarray] = None,
    ) -> None:
        rng = np.random.default_rng(seed)
        self.confidence = confidence
        # Optional per-side predicate masks: the ripple runs over only the
        # selected rows. Composing the selection into the permutation
        # (``sel[perm]``) is bitwise-identical to pre-compacting the
        # tables with ``take(flatnonzero(mask))`` under the same seed,
        # but gathers two columns per side instead of copying them all.
        lsel = (
            np.flatnonzero(np.asarray(left_mask, dtype=bool))
            if left_mask is not None
            else None
        )
        rsel = (
            np.flatnonzero(np.asarray(right_mask, dtype=bool))
            if right_mask is not None
            else None
        )
        self.n_left = left.num_rows if lsel is None else len(lsel)
        self.n_right = right.num_rows if rsel is None else len(rsel)
        lo = rng.permutation(self.n_left)
        ro = rng.permutation(self.n_right)
        if lsel is not None:
            lo = lsel[lo]
        if rsel is not None:
            ro = rsel[ro]
        self._lkeys = left[left_key][lo]
        self._rkeys = right[right_key][ro]
        self._lvals = (
            np.asarray(left[left_measure], dtype=np.float64)[lo]
            if left_measure
            else np.ones(self.n_left)
        )
        self._rvals = (
            np.asarray(right[right_measure], dtype=np.float64)[ro]
            if right_measure
            else np.ones(self.n_right)
        )
        # Hash state: key -> (sum of measures, count) for rows read so far.
        self._left_seen: Dict[object, float] = {}
        self._right_seen: Dict[object, float] = {}
        self._kl = 0
        self._kr = 0
        self._join_sum = 0.0
        #: per-row joined contributions at read time (for variance), kept
        #: as chunks of numpy arrays so batched advances stay vectorized
        self._left_contrib: List[np.ndarray] = []
        self._right_contrib: List[np.ndarray] = []

    # ------------------------------------------------------------------
    def _step_left(self) -> None:
        """Scalar reference step (kept as the batch kernel's oracle)."""
        i = self._kl
        key = self._lkeys[i]
        value = self._lvals[i]
        partner = self._right_seen.get(key, 0.0)
        self._join_sum += value * partner
        self._left_contrib.append(np.array([value * partner]))
        self._left_seen[key] = self._left_seen.get(key, 0.0) + value
        self._kl += 1

    def _step_right(self) -> None:
        j = self._kr
        key = self._rkeys[j]
        value = self._rvals[j]
        partner = self._left_seen.get(key, 0.0)
        self._join_sum += value * partner
        self._right_contrib.append(np.array([value * partner]))
        self._right_seen[key] = self._right_seen.get(key, 0.0) + value
        self._kr += 1

    def _advance_batch(self, steps: int) -> None:
        """Vectorized equivalent of ``steps`` interleaved L/R scalar steps.

        Each left row joins the right rows read strictly before it, each
        right row the left rows read up to and including its own step.
        Encoding reads as events at times (2t for left, 2t+1 for right)
        and taking per-key, time-ordered exclusive prefix sums of the
        opposite side reproduces the scalar partner sums exactly.
        """
        ml = min(steps, self.n_left - self._kl)
        mr = min(steps, self.n_right - self._kr)
        if ml <= 0 and mr <= 0:
            return
        lkeys = self._lkeys[self._kl : self._kl + ml]
        lvals = self._lvals[self._kl : self._kl + ml]
        rkeys = self._rkeys[self._kr : self._kr + mr]
        rvals = self._rvals[self._kr : self._kr + mr]

        keys = np.concatenate([lkeys, rkeys])
        uniq, codes = factorize(keys)
        vals = np.concatenate([lvals, rvals])
        times = np.concatenate(
            [2 * np.arange(ml, dtype=np.int64), 2 * np.arange(mr, dtype=np.int64) + 1]
        )
        is_left = np.zeros(ml + mr, dtype=bool)
        is_left[:ml] = True

        order = np.lexsort((times, codes))
        k_sorted = codes[order]
        v_sorted = vals[order]
        left_sorted = is_left[order]
        n_ev = len(order)
        new_seg = np.empty(n_ev, dtype=bool)
        new_seg[0] = True
        np.not_equal(k_sorted[1:], k_sorted[:-1], out=new_seg[1:])
        # Segment-exclusive cumulative sums per side.
        seg_start = np.maximum.accumulate(np.where(new_seg, np.arange(n_ev), 0))

        def _seg_excl(x: np.ndarray) -> np.ndarray:
            c = np.cumsum(x)
            excl = np.concatenate([[0.0], c[:-1]])
            return excl - excl[seg_start]

        excl_left = _seg_excl(np.where(left_sorted, v_sorted, 0.0))
        excl_right = _seg_excl(np.where(left_sorted, 0.0, v_sorted))

        # State accumulated before this batch, looked up per unique key.
        prev_left = np.array(
            [self._left_seen.get(k, 0.0) for k in uniq], dtype=np.float64
        )
        prev_right = np.array(
            [self._right_seen.get(k, 0.0) for k in uniq], dtype=np.float64
        )
        partner = np.where(
            left_sorted,
            prev_right[k_sorted] + excl_right,
            prev_left[k_sorted] + excl_left,
        )
        contrib_sorted = v_sorted * partner
        contrib = np.empty(n_ev, dtype=np.float64)
        contrib[order] = contrib_sorted

        self._join_sum += float(np.sum(contrib))
        if ml:
            self._left_contrib.append(contrib[:ml])
        if mr:
            self._right_contrib.append(contrib[ml:])
        lsums = np.bincount(codes[:ml], weights=lvals, minlength=len(uniq))
        rsums = np.bincount(codes[ml:], weights=rvals, minlength=len(uniq))
        for i, k in enumerate(uniq):
            key = k.item() if hasattr(k, "item") else k
            if lsums[i]:
                self._left_seen[key] = self._left_seen.get(key, 0.0) + lsums[i]
            if rsums[i]:
                self._right_seen[key] = self._right_seen.get(key, 0.0) + rsums[i]
        self._kl += ml
        self._kr += mr

    def advance(self, steps: int = 1000) -> RippleSnapshot:
        """Advance the square ripple by ``steps`` per side and snapshot."""
        self._advance_batch(steps)
        return self.snapshot()

    def snapshot(self) -> RippleSnapshot:
        kl = max(self._kl, 1)
        kr = max(self._kr, 1)
        scale = (self.n_left * self.n_right) / (kl * kr)
        value = self._join_sum * scale
        # Linearized variance: scaled per-row contributions on each side.
        var = 0.0
        for chunks, k, n in (
            (self._left_contrib, kl, self.n_left),
            (self._right_contrib, kr, self.n_right),
        ):
            c = (
                np.concatenate(chunks)
                if chunks
                else np.empty(0, dtype=np.float64)
            )
            if len(c) > 1:
                # Each left-row contribution pairs with kr/n_right of S; a
                # full-data contribution would be c * (n_right/kr) etc.
                side_scale = scale * k  # total-from-mean scaling
                s2 = float(np.var(c, ddof=1))
                fpc = max(1.0 - k / n, 0.0)
                var += (side_scale**2) * fpc * s2 / k
        z = z_value(self.confidence)
        half = z * math.sqrt(var)
        return RippleSnapshot(
            rows_read_left=self._kl,
            rows_read_right=self._kr,
            value=value,
            ci_low=value - half,
            ci_high=value + half,
        )

    def run(
        self,
        batch: int = 1000,
        target_relative_error: Optional[float] = None,
        deadline=None,
    ) -> Iterator[RippleSnapshot]:
        """Stream snapshots until the target CI, data exhaustion, or
        ``deadline`` expiry — the deadline stops the ripple at a batch
        boundary instead of raising, so the last yielded snapshot is the
        best-effort answer. An ambient
        :func:`repro.resilience.deadline_scope` applies when no explicit
        deadline is passed."""
        from ..resilience.deadline import resolve_deadline

        deadline = resolve_deadline(deadline)
        while self._kl < self.n_left or self._kr < self.n_right:
            if deadline is not None and deadline.expired:
                return
            snap = self.advance(batch)
            yield snap
            if (
                target_relative_error is not None
                and snap.relative_half_width <= target_relative_error
            ):
                return

    @property
    def is_exhausted(self) -> bool:
        return self._kl >= self.n_left and self._kr >= self.n_right
