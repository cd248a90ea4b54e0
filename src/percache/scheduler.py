"""Adaptive cache scheduler.

Strategy selection is a pure function of the thresholds: when the QA
match threshold tau_query sits at or above the cutoff tau_scheduler,
predicted queries rarely hit, so population stops at prefill
(PrefillOnly); below the cutoff it also decodes answers
(PrefillAndDecode). Idle ticks run deferred answering, cross-layer
conversions between the QA bank and the QKV tree, and prediction-driven
population, all under a FLOPs work budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class PopulationStrategy(Enum):
    PREFILL_ONLY = "prefill_only"
    PREFILL_AND_DECODE = "prefill_and_decode"


def choose_strategy(tau_query: float, tau_scheduler: float) -> PopulationStrategy:
    """The tau_query == tau_scheduler boundary picks the cheaper strategy."""
    if tau_query >= tau_scheduler:
        return PopulationStrategy.PREFILL_ONLY
    return PopulationStrategy.PREFILL_AND_DECODE


@dataclass
class TickReport:
    at: float = 0.0
    deferred_answered: int = 0
    stale_reanswered: int = 0
    converted_to_qa: int = 0
    restored_nodes: int = 0
    predicted_knowledge: int = 0
    predicted_history: int = 0
    populated: int = 0
    abstract_updates: int = 0
    flops_spent: float = 0.0
    predicted_decode_flops: float = 0.0

    def as_dict(self) -> dict:
        return {
            "deferred_answered": self.deferred_answered,
            "stale_reanswered": self.stale_reanswered,
            "converted_to_qa": self.converted_to_qa,
            "restored_nodes": self.restored_nodes,
            "predicted_knowledge": self.predicted_knowledge,
            "predicted_history": self.predicted_history,
            "populated": self.populated,
            "abstract_updates": self.abstract_updates,
            "flops_spent": self.flops_spent,
            "predicted_decode_flops": self.predicted_decode_flops,
        }


class Scheduler:
    """Cooperative background steps between queries; never interleaves
    with query serving (the predictor's phase flag enforces this)."""

    def __init__(self, engine):
        self.engine = engine

    def idle_tick(self, work_budget: float, now: float) -> TickReport:
        """Spend up to work_budget cost-model FLOPs on background work,
        in order: deferred/stale answers, conversions (QKV to QA before
        QA to QKV), then predictions and population. Unfinished work
        carries to the next tick."""
        engine = self.engine
        report = TickReport(at=now)
        if engine.config.scheduler_enabled:
            strategy = choose_strategy(engine.config.tau_query, engine.config.tau_scheduler)
        else:
            # no adaptive scheduling: population always decodes
            strategy = PopulationStrategy.PREFILL_AND_DECODE

        def budget_left() -> bool:
            return report.flops_spent < work_budget

        # (1) deferred true answers for QA hits, then stale re-answers
        while budget_left() and engine.deferred_queries:
            text = engine.deferred_queries[0]
            cost = engine.answer_and_store(text)
            engine.deferred_queries.pop(0)
            report.flops_spent += cost.total_flops
            report.deferred_answered += 1
        if budget_left():
            for entry in engine.qa.pending():
                if not budget_left():
                    break
                if entry.answer is None or not entry.stale:
                    continue
                cost = engine.reanswer_entry(entry)
                report.flops_spent += cost.total_flops
                report.stale_reanswered += 1

        # (2) conversions: QKV->QA first (answer availability beats prefix depth)
        if engine.config.scheduler_enabled:
            if strategy is PopulationStrategy.PREFILL_AND_DECODE:
                for entry in engine.qa.pending():
                    if not budget_left():
                        break
                    if entry.answer is not None:
                        continue
                    cost = engine.reanswer_entry(entry)
                    report.flops_spent += cost.total_flops
                    report.converted_to_qa += 1
            if budget_left():
                restored, cost = engine.restore_evicted_slices(
                    lambda: report.flops_spent < work_budget
                )
                report.restored_nodes += len(restored)
                report.flops_spent += cost.total_flops

        # (3) predictions and cache population
        predictor = engine.predictor
        if budget_left() and predictor.batch_ready(now):
            macs0 = engine.model.mac_count
            if predictor.update_abstract(now):
                report.abstract_updates += 1
                engine.abstract_dirty = True
            report.flops_spent += float(engine.model.mac_count - macs0)
        batches = []
        if budget_left() and engine.abstract_dirty and predictor.abstract.sentences:
            macs0 = engine.model.mac_count
            batches.append(predictor.predict_from_knowledge())
            report.flops_spent += float(engine.model.mac_count - macs0)
            report.predicted_knowledge += len(batches[-1].queries)
            engine.abstract_dirty = False
        if budget_left() and predictor.history_ready(now):
            macs0 = engine.model.mac_count
            batches.append(
                predictor.predict_from_history(lambda q: engine.qa.get(q) is not None)
            )
            report.flops_spent += float(engine.model.mac_count - macs0)
            report.predicted_history += len(batches[-1].queries)
        decode = strategy is PopulationStrategy.PREFILL_AND_DECODE
        for batch in batches:
            for query in batch.queries:
                if not budget_left():
                    break
                cost = engine.populate_predicted(query, decode=decode)
                if cost is None:
                    continue
                report.flops_spent += cost.total_flops
                report.predicted_decode_flops += cost.decode_flops
                report.populated += 1
        return report
