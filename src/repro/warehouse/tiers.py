"""RRD-style tier geometry: when segments age, merge them coarser.

The warehouse keeps recent history at full (tier-0) resolution and
progressively merges older segments into coarser epochs, the way
round-robin databases (and 0xtools' always-on sampled history) bound
their footprint while keeping an unbounded lookback.  Tier *t* segments
cover ``fanout**t`` base epochs; each tier keeps its most recent
``keep[t]`` windows hot, and anything older is either promoted into the
next tier's aligned window (:func:`plan_compactions`) or — at the top
tier — evicted by retention (:func:`plan_gc`).

:func:`plan_compactions` is one promotion round.  A long-idle source
needs several (tier-0 -> 1 outputs that are themselves aged continue to
tier 2), so :func:`plan_fixpoint` plays the rounds forward on metadata
alone and returns only the super-segments that survive the cascade,
each with the stored segments it covers as inputs: the warehouse writes
those and nothing in between.

Compaction is pure :meth:`ProfileSet.merged` over the group, sorted by
``(epoch, seg_id)``: histogram addition is commutative and associative,
so a query over compacted history is byte-identical to the same query
over the raw segments it replaced.  Tiers change *time* resolution
only, never latency resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .index import SegmentMeta, WarehouseIndex

__all__ = ["CompactionPolicy", "CompactionGroup", "plan_compactions",
           "plan_fixpoint", "plan_gc"]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class CompactionPolicy:
    """Tier geometry and per-tier retention.

    ``fanout`` is the epoch-width ratio between adjacent tiers;
    ``keep[t]`` is how many tier-*t* windows stay hot before aging.  A
    segment is *aged* once its window lies entirely outside the keep
    horizon measured from the newest base epoch stored for its source.
    The top tier has no next tier: its aged segments are retention
    evictions, applied only by an explicit ``gc`` (compaction alone
    never discards data).
    """

    fanout: int = 4
    keep: Tuple[int, ...] = (8, 8, 8)

    def __post_init__(self):
        if not _is_int(self.fanout) or self.fanout < 2:
            raise ValueError("fanout must be an int >= 2")
        if not self.keep:
            raise ValueError("keep must name at least one tier")
        keep = tuple(self.keep)
        if not all(_is_int(k) and k >= 1 for k in keep):
            raise ValueError("every keep[t] must be an int >= 1")
        # A list would make the frozen policy unhashable.
        object.__setattr__(self, "keep", keep)

    @property
    def tiers(self) -> int:
        return len(self.keep)

    def span(self, tier: int) -> int:
        """Base epochs covered by one tier-*tier* window."""
        if not 0 <= tier < self.tiers:
            raise ValueError(f"tier {tier} outside 0..{self.tiers - 1}")
        return self.fanout ** tier

    def window_start(self, tier: int, epoch: int) -> int:
        """The aligned start of the tier-*tier* window containing *epoch*."""
        span = self.span(tier)
        return (epoch // span) * span

    def aged(self, tier: int, epoch_end: int, horizon: int) -> bool:
        """Is a segment ending at *epoch_end* outside tier's hot window?

        The hot window covers the ``keep[tier]`` most recent tier-sized
        windows ending at *horizon* (the newest base epoch stored).
        """
        return epoch_end < horizon - self.keep[tier] * self.span(tier) + 1


@dataclass(frozen=True)
class CompactionGroup:
    """One planned merge: inputs -> a single coarser output segment."""

    source: str
    tier: int                          #: output tier
    epoch: int                         #: output window start (aligned)
    inputs: Tuple[SegmentMeta, ...]    #: sorted by (epoch, seg_id)


def plan_compactions(index: WarehouseIndex, source: str,
                     policy: CompactionPolicy,
                     horizon: Optional[int] = None) -> List[CompactionGroup]:
    """Plan one round of promotions for *source* (deterministic).

    For every tier below the top, aged segments are grouped by their
    aligned next-tier window; each group becomes one output segment.
    Single-segment groups still promote — that is what moves a straggler
    up the tiers so top-tier retention can eventually apply to it.
    """
    if horizon is None:
        horizon = index.max_epoch(source)
    if horizon is None:
        return []
    groups: List[CompactionGroup] = []
    for tier in range(policy.tiers - 1):
        aged = [meta for meta in index.select(source)
                if meta.tier == tier
                and policy.aged(tier, meta.epoch_end, horizon)]
        by_window: Dict[int, List[SegmentMeta]] = {}
        for meta in aged:
            start = policy.window_start(tier + 1, meta.epoch)
            by_window.setdefault(start, []).append(meta)
        for start in sorted(by_window):
            inputs = sorted(by_window[start],
                            key=lambda m: (m.epoch, m.seg_id))
            groups.append(CompactionGroup(
                source=source, tier=tier + 1, epoch=start,
                inputs=tuple(inputs)))
    return groups


def plan_gc(index: WarehouseIndex, source: str,
            policy: CompactionPolicy,
            horizon: Optional[int] = None) -> List[SegmentMeta]:
    """Top-tier segments past retention — the ones ``gc`` may evict."""
    if horizon is None:
        horizon = index.max_epoch(source)
    if horizon is None:
        return []
    top = policy.tiers - 1
    return [meta for meta in index.select(source)
            if meta.tier == top
            and policy.aged(top, meta.epoch_end, horizon)]


class _PlanView:
    """The live latency metas of one source, for planning on metadata.

    Provides the one index method :func:`plan_compactions` reads when
    it is given an explicit horizon.
    """

    def __init__(self, metas: List[SegmentMeta]):
        self.live = {meta.seg_id: meta for meta in metas}

    def select(self, source: str) -> List[SegmentMeta]:
        return sorted(self.live.values(), key=lambda m: (m.epoch, m.seg_id))


def plan_fixpoint(index: WarehouseIndex, source: str,
                  policy: CompactionPolicy) -> List[CompactionGroup]:
    """Plan every promotion round for *source* at once, on metadata.

    Runs :func:`plan_compactions` until it plans nothing, replacing each
    round's group inputs with a placeholder for its output, exactly as
    committing the round would change the index.  Returns one group per
    placeholder still live at the fixpoint, in the order the rounds
    created them; its inputs are the stored segments it covers, sorted
    by ``(epoch, seg_id)``.  Exact merges make one merge over those
    leaves byte-identical to the chain of per-round merges.

    The horizon starts at ``index.max_epoch`` (which counts sample
    segments too) and rises to every round's newest output end, which
    is what the stored index would report after the round committed.
    """
    horizon = index.max_epoch(source)
    if horizon is None:
        return []
    view = _PlanView(index.select(source))
    #: placeholder id -> (the group it stands for, its leaf inputs)
    planned: Dict[int, Tuple[CompactionGroup, List[SegmentMeta]]] = {}
    next_id = index.next_id
    while True:
        groups = plan_compactions(view, source, policy, horizon=horizon)
        if not groups:
            break
        for group in groups:
            leaves: List[SegmentMeta] = []
            for meta in group.inputs:
                del view.live[meta.seg_id]
                if meta.seg_id in planned:
                    leaves.extend(planned.pop(meta.seg_id)[1])
                else:
                    leaves.append(meta)
            placeholder = SegmentMeta(
                seg_id=next_id, source=source, tier=group.tier,
                epoch=group.epoch, span=policy.span(group.tier), file="",
                nbytes=0, ops=())
            next_id += 1
            view.live[placeholder.seg_id] = placeholder
            planned[placeholder.seg_id] = (group, leaves)
            horizon = max(horizon, placeholder.epoch_end)
    return [CompactionGroup(
                source=source, tier=group.tier, epoch=group.epoch,
                inputs=tuple(sorted(leaves,
                                    key=lambda m: (m.epoch, m.seg_id))))
            for group, leaves in planned.values()]
