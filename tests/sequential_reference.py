"""The elimination loop one round per call: the plain sequential reference
that the block engine of ``EliminationRun.step`` must match bit for bit.

It counts stop-pull violations on its own, round by round: an arm's stop
round is its first round with width U(t) < overall gap / 4, and every later
round that pulls it is a violation.  It also checks in every round that the
best group is still a candidate.  ``run`` reports that count and that flag
in place of the engine's closed form and its reading of the final
candidates, so the two are compared, not shared.  Its quantile bands and
final choice partition the ledger's bounds of each group's columns, apart
from the engine's band function, and it keeps its own pools and kth
indices per group, apart from the engine's active arms and plan.
"""

import numpy as np

from quantile_bandits.elimination import (
    EliminationResult,
    EliminationRun,
    EliminationState,
    quantile_index,
)


class SequentialRun(EliminationRun):
    """``EliminationRun`` whose ``step`` runs exactly one round."""

    def __init__(self, groups, alpha, *args, **kwargs):
        super().__init__(groups, alpha, *args, **kwargs)
        self._columns = {g.group_id: g.columns for g in groups}
        self._kth = {g.group_id: quantile_index(len(g.arm_ids), alpha) for g in groups}
        self._pools = {g.group_id: np.arange(g.arm_ids.start, g.arm_ids.stop) for g in groups}
        self._stop_round = np.full(self.ledger.pulls.size, -1, dtype=np.int64)
        self._stop_pulls = 0
        self._retained = True

    def step(self) -> EliminationState:
        if self.should_stop():
            raise RuntimeError("step() called after the stopping condition was met")
        st = self.state
        led = self.ledger
        t = st.round_index
        active = st.active

        hit = self._stop_round[active]
        self._stop_pulls += int(np.count_nonzero((hit >= 1) & (hit < t)))

        led.record_pulls(active, led.sums[active] + self.env.pull(active), 1)
        if bool(np.any(led.pulls[active] != t)):
            self.checks.equal_pull_ok = False

        if self._true_means is not None:
            mu = self._true_means[active]
            if bool(np.any((led.lcb[active] > mu) | (led.ucb[active] < mu))):
                self.checks.bounds_valid = False
            small = led.width_at(led.pulls[active]) < self._profile.overall[active] / 4.0
            fresh = small & (self._stop_round[active] == -1)
            if np.any(fresh):
                self._stop_round[active[fresh]] = t

        q_ucb = {gid: self._group_quantiles(led.ucb, gid) for gid in st.candidates}
        q_lcb = {gid: self._group_quantiles(led.lcb, gid) for gid in st.candidates}
        threshold = max(q_lcb.values())
        new_candidates = tuple(gid for gid in st.candidates if q_ucb[gid] >= threshold)

        pools: dict[str, np.ndarray] = {}
        for gid in new_candidates:
            pool = self._pools[gid]
            mask = (led.lcb[pool] <= q_ucb[gid]) & (led.ucb[pool] >= q_lcb[gid])
            pools[gid] = pool[mask]
        self._pools = pools
        new_active = (np.sort(np.concatenate([pools[g] for g in new_candidates]))
                      if new_candidates else np.empty(0, dtype=np.int64))
        if new_candidates and new_active.size == 0:
            raise RuntimeError(
                "all potential quantile arms eliminated while candidates remain; "
                "confidence bounds must have failed catastrophically")

        spread = (max(q_ucb[g] for g in new_candidates)
                  - max(q_lcb[g] for g in new_candidates)) if new_candidates else 0.0
        shortcut = 2.0 * float(self.ledger.width_at(np.asarray([t]))[0])
        if abs(spread - shortcut) > 1e-9:
            self.checks.shortcut_consistent = False

        if self._profile is not None and self._profile.best_group not in new_candidates:
            self._retained = False

        self.state = EliminationState(t + 1, new_candidates, new_active, spread)
        return self.state

    def _group_quantiles(self, values: np.ndarray, gid: str) -> float:
        return float(np.partition(values[self._columns[gid]], self._kth[gid])[self._kth[gid]])

    def choose(self) -> str:
        """Final recommendation: argmax of the pessimistic group quantiles,
        ties broken by a draw from the reward environment's generator."""
        st = self.state
        if len(st.candidates) == 1:  # a lone candidate ties with no one
            return st.candidates[0]
        if st.round_index == 1:
            raise RuntimeError("no rounds ran yet there are multiple candidates")
        scores = {gid: self._group_quantiles(self.ledger.lcb, gid) for gid in st.candidates}
        best = max(scores.values())
        ties = [gid for gid in st.candidates if scores[gid] == best]
        if len(ties) == 1:
            return ties[0]
        return ties[int(self.env.rng.integers(len(ties)))]

    def run(self) -> EliminationResult:
        result = super().run()
        if self._profile is not None:
            self.checks.stop_pull_violations = self._stop_pulls
            self.checks.best_group_retained = self._retained
        return result
