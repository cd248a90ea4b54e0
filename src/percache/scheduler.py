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


class Scheduler:
    """Cooperative background steps between queries; never interleaves
    with query serving (the predictor's phase flag enforces this)."""

    def __init__(self, engine):
        self.engine = engine

    def idle_tick(self, work_budget: float, now: float) -> TickReport:
        """Spend up to work_budget cost-model FLOPs on background work,
        in order: deferred/stale answers, conversions (QKV to QA before
        QA to QKV), then predictions and population. Unfinished work
        carries to the next tick. With QA off nothing can be stored as an
        answer, so answering waits and population never decodes."""
        engine = self.engine
        report = TickReport()
        qa_on = engine.config.qa_enabled
        if engine.config.scheduler_enabled:
            strategy = choose_strategy(engine.config.tau_query, engine.config.tau_scheduler)
        else:
            # no adaptive scheduling: population always decodes
            strategy = PopulationStrategy.PREFILL_AND_DECODE

        def budget_left() -> bool:
            return report.flops_spent < work_budget

        def reanswer(wanted) -> int:
            """Answer in place each pending entry that wanted(entry) picks,
            oldest first, while the budget lasts; returns how many."""
            done = 0
            for entry in engine.qa.pending() if qa_on else ():
                if not budget_left():
                    break
                if wanted(entry):
                    result = engine.answer(entry.query, embedding=entry.embedding)
                    report.flops_spent += result.cost.total_flops
                    done += 1
            return done

        def metered(step):
            """Run a prediction step and charge the model MACs it spent."""
            macs0 = engine.model.mac_count
            out = step()
            report.flops_spent += float(engine.model.mac_count - macs0)
            return out

        # (1) deferred true answers for QA hits, then stale re-answers
        while qa_on and budget_left() and engine.deferred_queries:
            text, embedding = next(iter(engine.deferred_queries.items()))
            report.flops_spent += engine.answer(text, embedding=embedding).cost.total_flops
            del engine.deferred_queries[text]
            report.deferred_answered += 1
        report.stale_reanswered += reanswer(lambda e: e.answer is not None and e.stale)

        # (2) conversions: QKV->QA first (answer availability beats prefix depth)
        if engine.config.scheduler_enabled:
            if strategy is PopulationStrategy.PREFILL_AND_DECODE:
                report.converted_to_qa += reanswer(lambda e: e.answer is None)
            restored, cost = engine.restore_evicted_slices(work_budget - report.flops_spent)
            report.restored_nodes += len(restored)
            report.flops_spent += cost.total_flops

        # (3) predictions and cache population
        predictor = engine.predictor
        if (budget_left() and predictor.batch_ready(now)
                and metered(lambda: predictor.update_abstract(now))):
            report.abstract_updates += 1
            engine.abstract_dirty = True
        predicted: list[str] = []
        if budget_left() and engine.abstract_dirty and predictor.abstract.sentences:
            queries = metered(predictor.predict_from_knowledge)
            report.predicted_knowledge += len(queries)
            predicted += queries
            engine.abstract_dirty = False
        if budget_left() and predictor.history_ready(now):
            queries = metered(
                lambda: predictor.predict_from_history(lambda q: engine.qa.get(q) is not None)
            )
            report.predicted_history += len(queries)
            predicted += queries
        decode = qa_on and strategy is PopulationStrategy.PREFILL_AND_DECODE
        for query in predicted:
            if not budget_left():
                break
            cost = engine.populate_predicted(query, decode=decode)
            if cost is None:
                continue
            report.flops_spent += cost.total_flops
            report.predicted_decode_flops += cost.decode_flops
            report.populated += 1
        return report
