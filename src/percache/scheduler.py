"""Adaptive cache scheduler.

Whether idle work decodes is one function of the config,
population_decodes: when the QA match threshold tau_query sits at or
above the constant cutoff tau_scheduler, predicted queries rarely hit, so
population stops at prefill (PrefillOnly); below the cutoff it also
decodes answers (PrefillAndDecode). Idle ticks run deferred answering,
cross-layer conversions between the QA bank and the QKV tree, and
prediction-driven population, all under a FLOPs work budget. Each
prediction view checks its own trigger (Predictor), and a tick asks the
knowledge view only when it has just changed the abstract. The QA->QKV
conversion (Engine.restore_evicted_slices) restores evicted tree nodes
from their kept token ids, not QA entries from their retrieved paths, so
it moves no LFU count and runs with QA off too; it admits nodes one by
one, each charged as if restored alone, and prefills them chain by chain.
"""

from __future__ import annotations

from dataclasses import dataclass


def population_decodes(config) -> bool:
    """Whether idle work decodes answers for the QA bank. Nothing does with
    QA off, since no answer could be stored; without the adaptive scheduler
    population always decodes; with it, only while tau_query sits below the
    constant tau_scheduler (at equality the cheaper PrefillOnly wins)."""
    return config.qa_enabled and (
        not config.scheduler_enabled or config.tau_query < config.tau_scheduler
    )


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
        answer, so answering waits. Summaries and predictions come from the
        scripted text backend, not the model, so they cost no FLOPs."""
        engine = self.engine
        report = TickReport()
        decodes = population_decodes(engine.config)

        def budget_left() -> bool:
            return report.flops_spent < work_budget

        def answer_all(pairs) -> list[str]:
            """Answer each (text, embedding) pair in order while the budget
            lasts; returns the texts answered."""
            answered = []
            for text, embedding in pairs:
                if not budget_left():
                    break
                report.flops_spent += engine.answer(text, embedding=embedding).cost.total_flops
                answered.append(text)
            return answered

        # (1) deferred true answers for QA hits, then stale re-answers
        if engine.config.qa_enabled:
            for text in answer_all(list(engine.deferred_queries.items())):
                del engine.deferred_queries[text]
                report.deferred_answered += 1
            report.stale_reanswered = len(answer_all(
                (e.query, engine.qa.embedding(e)) for e in engine.qa.pending() if e.answer is not None
            ))

        # (2) conversions: QKV->QA first (answer availability beats prefix depth)
        if engine.config.scheduler_enabled:
            if decodes:
                report.converted_to_qa = len(answer_all(
                    (e.query, engine.qa.embedding(e)) for e in engine.qa.pending() if e.answer is None
                ))
            restored, flops = engine.restore_evicted_slices(work_budget - report.flops_spent)
            report.restored_nodes += len(restored)
            report.flops_spent += flops

        # (3) predictions and cache population. Summaries and predictions cost
        # no FLOPs, so one budget check covers them; the knowledge view
        # predicts only from an abstract that changed in this tick
        if budget_left():
            predictor = engine.predictor
            predicted: list[str] = []
            if predictor.update_abstract(now):
                report.abstract_updates = 1
                predicted += predictor.predict_from_knowledge()
                report.predicted_knowledge = len(predicted)
            queries = predictor.predict_from_history(now, lambda q: engine.qa.get(q) is not None)
            report.predicted_history = len(queries)
            predicted += queries
            for query in predicted:
                if not budget_left():
                    break
                cost = engine.populate_predicted(query, decode=decodes)
                if cost is None:
                    continue
                report.flops_spent += cost.total_flops
                report.predicted_decode_flops += cost.decode_flops
                report.populated += 1
        return report
