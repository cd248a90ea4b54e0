#!/usr/bin/env python3
"""Regenerate the bundled corpus, configs, scripted-backend responses,
and scenario traces under data/.

The scenario traces are built against measured embedding similarities
and retrieval rankings; this script asserts every constraint the
acceptance suite relies on (no accidental QA hits, divergent retrieval
paths, a similarity ladder for the threshold sweep), so editing the
texts here is safe: a violated constraint fails loudly.
"""

import json
import sys
import tempfile
from pathlib import Path

from percache.config import EngineConfig
from percache.engine import Engine
from percache.textcore import HashEmbedder, cosine_similarity

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"

CORPUS = (
    "the budget review for the quarter needs final numbers from finance before approval "
    "the meeting on monday morning runs one hour in the main room with the full team "
    "the project report is stored in the shared drive under the reports folder for everyone "
    "action items from friday include sending the invoice and booking the training session "
    "the plan for next week covers hiring interviews and the vendor contract renewal work "
    "the training workshop takes place at noon on thursday and covers the new tooling"
)

# scenario A/B user queries: pairwise dissimilar and dissimilar to predictions
USERS_A = [
    "what is the budget review plan?",
    "when does the team meet on friday?",
    "where is the project report stored?",
    "who wrote the agenda for monday?",
]
USERS_B = [
    "what is the budget review plan?",
    "when does the team meet on friday?",
    "where is the project report stored?",
    "who wrote the agenda for monday?",
    "how many hiring interviews are planned?",
]
PREDICTED = [
    "What is the main topic of the meeting?",
    "When is the budget review due?",
    "Who owns the action items?",
]
PREDICTION_RESPONSE = "; ".join(f"{i}. {q}" for i, q in enumerate(PREDICTED, 1))

# monotonicity ladder: (base, follow-up) pairs spanning the tau sweep
LADDER = [
    ("when is the budget review due?", "when is the budget review due?"),
    ("how long is the meeting on monday?", "how long is the meeting on monday morning?"),
    ("where is the report for the project?", "where is the report for the budget?"),
    ("what is the plan for next week?", "what is the plan for next month?"),
    ("what did the team discuss at noon?", "what did the team discuss at night?"),
    ("who owns the action items from the meeting?", "who owns the action items from friday?"),
    ("which room hosts the training session?", "which room hosts the training workshop?"),
    ("does the vendor invoice need approval?", "can someone forward the slides please?"),
]

# scenario C: three queries with divergent retrieval paths plus a
# paraphrase of the first that retrieves the identical path
C_QUERIES = [
    "what is the budget review status?",
    "where is the project report stored?",
    "when is the training workshop at noon?",
]
C_PARAPHRASE = "what is the budget review outcome?"

# idle work: every idle-tick branch of the scheduler runs at least once.
# A paraphrase QA-hits the first user query (deferred answer), a new chunk
# displaces that query's grounding (stale re-answer), a tight then relaxed
# QKV budget leaves slices to restore, and tau_query crosses tau_scheduler
# twice, so predictions populate under both strategies and the answer-less
# entries of the prefill-only round are converted to QA afterwards.
IDLE_USERS = [
    "what is the budget review plan?",
    "where is the project report stored?",
    "when is the training workshop at noon?",
]
IDLE_PARAPHRASE = "what is the budget review plan now?"
IDLE_LATE_USER = "who wrote the agenda for monday?"
IDLE_STALE_CHUNK = "the budget review plan moved to next month so finance can check"
IDLE_SECOND_CHUNK = "the vendor contract renewal needs legal sign off before the quarter ends"
IDLE_KNOWLEDGE = [
    PREDICTED,
    ["Who signs off the vendor contract?", "When does the contract renewal end?"],
]
IDLE_HISTORY = [
    ["Where are the finance numbers kept?", "Who runs the monday meeting?"],
    ["Which room hosts the agenda review?"],
]
IDLE_COUNTERS = (
    "deferred_answered", "stale_reanswered", "converted_to_qa", "restored_nodes",
    "predicted_knowledge", "predicted_history", "populated", "abstract_updates",
)


def write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def write_trace(path: Path, events: list[dict]) -> None:
    write(path, "".join(json.dumps(e, sort_keys=True) + "\n" for e in events))


def check_similarities() -> None:
    emb = HashEmbedder()

    def sim(a, b):
        return cosine_similarity(emb.embed(a), emb.embed(b))

    pool = sorted(set(USERS_A + USERS_B + PREDICTED))
    for i, a in enumerate(pool):
        for b in pool[i + 1 :]:
            s = sim(a, b)
            assert s < 0.85, f"scenario cross-talk: {s:.3f} {a!r} vs {b!r}"
    sims = [sim(a, b) for a, b in LADDER]
    assert sims[0] == 1.0
    assert sims[-1] < 0.60, f"ladder floor too similar: {sims[-1]:.3f}"
    assert any(s > 0.90 for s in sims) and any(0.60 < s <= 0.80 for s in sims)
    bases = [b for b, _ in LADDER]
    follows = [f for _, f in LADDER]
    for i, a in enumerate(bases):
        for j, b in enumerate(bases):
            if i < j:
                s = sim(a, b)
                assert s < 0.60, f"ladder base cross-talk: {s:.3f} {a!r} vs {b!r}"
    for i, f in enumerate(follows):
        for j, b in enumerate(bases):
            if i != j:
                s = sim(f, b)
                assert s < 0.60, f"ladder follow cross-talk: {s:.3f} {f!r} vs {b!r}"
        for j, g in enumerate(follows):
            if i < j and follows[i] != follows[j]:
                s = sim(f, g)
                assert s < 0.60, f"ladder follow/follow cross-talk: {s:.3f} {f!r} vs {g!r}"
    s = sim(C_QUERIES[0], C_PARAPHRASE)
    assert 0.60 < s < 0.85, f"scenario C paraphrase similarity {s:.3f} out of range"
    for q in C_QUERIES[1:]:
        assert sim(q, C_PARAPHRASE) < 0.60


def numbered(queries: list[str]) -> str:
    return "; ".join(f"{i}. {q}" for i, q in enumerate(queries, 1))


def check_idle_work_inputs() -> None:
    """Only the paraphrase may QA-hit a user query, and the stale chunk,
    a single chunk, must enter the first user query's top k_refresh."""
    emb = HashEmbedder()

    def sim(a, b):
        return cosine_similarity(emb.embed(a), emb.embed(b))

    tau = EngineConfig().tau_query
    predicted = [q for batch in IDLE_KNOWLEDGE + IDLE_HISTORY for q in batch]
    pool = IDLE_USERS + [IDLE_LATE_USER] + predicted
    assert len(set(pool)) == len(pool)
    for i, a in enumerate(pool):
        for b in pool[i + 1 :]:
            s = sim(a, b)
            assert s < tau, f"idle work cross-talk: {s:.3f} {a!r} vs {b!r}"
    s = sim(IDLE_USERS[0], IDLE_PARAPHRASE)
    assert s > tau, f"idle work paraphrase similarity {s:.3f} not above {tau}"
    for q in pool[1:]:
        s = sim(q, IDLE_PARAPHRASE)
        assert s < tau, f"idle work paraphrase cross-talk: {s:.3f} {q!r}"

    cfg = EngineConfig(chunk_words=12, max_decode_tokens=6, t_batch=1e9)
    with tempfile.TemporaryDirectory() as scratch:
        eng = Engine(cfg, scratch)
        eng.ingest_chunks([CORPUS], 0)
        user = eng.embedder.embed(IDLE_USERS[0])
        eng.qa.insert(IDLE_USERS[0], user, "answer", 0, eng.retriever.bar(user, cfg.k_refresh))
        (_,), stale = eng.ingest_chunks([IDLE_STALE_CHUNK], 1)
    assert stale == [IDLE_USERS[0]]


def check_idle_work_replay(trace: Path, config: Path, corpus: Path) -> None:
    """Replaying the written idle_work files after `percache ingest` drives
    every idle-tick counter above zero, and populates under both strategies."""
    import contextlib
    import io

    from percache.cli import main as cli_main

    events = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]
    with tempfile.TemporaryDirectory() as scratch:
        bank = Path(scratch) / "bank"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["ingest", "--corpus", str(corpus), "--bank", str(bank),
                             "--config", str(config)])
        assert code == 0
        eng = Engine(EngineConfig.from_file(config), bank)
        ticks = [r for r in map(eng.apply_event, events) if r["kind"] == "idle_tick"]
    for counter in IDLE_COUNTERS:
        assert any(t[counter] > 0 for t in ticks), f"idle work: {counter} never above zero"
    assert any(t["populated"] and t["predicted_decode_flops"] > 0 for t in ticks)
    assert any(t["populated"] and t["predicted_decode_flops"] == 0 for t in ticks)


def check_retrieval_paths() -> None:
    """Scenario C needs q0/q1/q2 to retrieve different top-3 paths and the
    paraphrase to retrieve exactly q0's path."""
    cfg = EngineConfig(chunk_words=12, max_decode_tokens=6, t_batch=1e9)
    with tempfile.TemporaryDirectory() as scratch:
        eng = Engine(cfg, scratch)
        eng.ingest_chunks([CORPUS], 0)
    paths = {}
    for q in C_QUERIES + [C_PARAPHRASE] + PREDICTED:
        ranked = eng.retriever.retrieve_top_k(q, cfg.retrieval_k)
        paths[q] = tuple(r.chunk_id for r in ranked)
    assert paths[C_QUERIES[0]] == paths[C_PARAPHRASE], (
        f"paraphrase path differs:\n{paths[C_QUERIES[0]]}\n{paths[C_PARAPHRASE]}"
    )
    assert paths[C_QUERIES[0]][0] != paths[C_QUERIES[1]][0]
    assert paths[C_QUERIES[0]][0] != paths[C_QUERIES[2]][0]


def main() -> int:
    check_similarities()
    check_retrieval_paths()
    check_idle_work_inputs()

    write(DATA / "corpus.txt", CORPUS + "\n")

    base_cfg = (
        "chunk_words=12\n"
        "max_decode_tokens=6\n"
    )
    write(
        DATA / "configs" / "scenario.cfg",
        base_cfg + "t_batch=2\nt_quiet=100000\nscript_file=../scripts/predictions.json\n",
    )
    write(
        DATA / "configs" / "scenario_nosched.cfg",
        base_cfg
        + "t_batch=2\nt_quiet=100000\nscript_file=../scripts/predictions.json\n"
        + "scheduler_enabled=false\n",
    )
    write(DATA / "configs" / "scenario_c.cfg", base_cfg + "t_batch=100000\n")
    write(
        DATA / "configs" / "scenario_c_nosched.cfg",
        base_cfg + "t_batch=100000\nscheduler_enabled=false\n",
    )
    write(
        DATA / "configs" / "cachefree.cfg",
        base_cfg + "t_batch=100000\nqa_enabled=false\nreuse_enabled=false\nscheduler_enabled=false\n",
    )
    write(DATA / "configs" / "default.cfg", base_cfg + "t_batch=2\nt_quiet=100000\n")

    write(
        DATA / "scripts" / "predictions.json",
        json.dumps(
            {
                "fallback": "",
                "entries": [
                    {
                        "template": "summarize",
                        "slots_digest": "*",
                        "response": "Weekly work covers budget review, meetings, reports, and training.",
                    },
                    {
                        "template": "knowledge_prediction",
                        "slots_digest": "*",
                        "response": PREDICTION_RESPONSE,
                    },
                ],
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )

    # scenario A: threshold raised past the cutoff -> prefill-only population
    events = [{"at": 0, "kind": "chunk_arrival", "text": CORPUS}]
    events += [
        {"at": 1, "kind": "query_arrival", "text": USERS_A[0]},
        {"at": 2, "kind": "query_arrival", "text": USERS_A[1]},
        {"at": 3, "kind": "config_change", "field": "tau_query", "value": 0.90},
        {"at": 4, "kind": "idle_tick", "budget": 1e15},
        {"at": 5, "kind": "query_arrival", "text": USERS_A[2]},
        {"at": 6, "kind": "query_arrival", "text": USERS_A[3]},
        {"at": 7, "kind": "idle_tick", "budget": 1e15},
    ]
    write_trace(DATA / "traces" / "threshold_raise.trace", events)

    # scenario B: threshold dropped below the cutoff -> pending entries decoded
    events = [
        {"at": 0, "kind": "config_change", "field": "tau_query", "value": 0.90},
        {"at": 1, "kind": "chunk_arrival", "text": CORPUS},
    ]
    events += [
        {"at": 2 + i, "kind": "query_arrival", "text": q} for i, q in enumerate(USERS_B)
    ]
    events += [
        {"at": 8, "kind": "idle_tick", "budget": 1e15},
        {"at": 9, "kind": "config_change", "field": "tau_query", "value": 0.85},
        {"at": 10, "kind": "idle_tick", "budget": 1e15},
    ]
    write_trace(DATA / "traces" / "threshold_drop.trace", events)

    # scenario C: byte budget relaxed -> evicted slices restored
    events = [
        {"at": 0, "kind": "config_change", "field": "qkv_limit_bytes", "value": 70000},
        {"at": 1, "kind": "chunk_arrival", "text": CORPUS},
        {"at": 2, "kind": "query_arrival", "text": C_QUERIES[0]},
        {"at": 3, "kind": "query_arrival", "text": C_QUERIES[1]},
        {"at": 4, "kind": "query_arrival", "text": C_QUERIES[2]},
        {"at": 5, "kind": "config_change", "field": "qkv_limit_bytes", "value": 400000},
        {"at": 6, "kind": "idle_tick", "budget": 1e15},
        {"at": 7, "kind": "query_arrival", "text": C_PARAPHRASE},
    ]
    write_trace(DATA / "traces" / "limit_relax.trace", events)

    # monotonicity: base queries then graded-similarity follow-ups, no idle work
    events = [{"at": 0, "kind": "chunk_arrival", "text": CORPUS}]
    at = 1
    for base, _ in LADDER:
        events.append({"at": at, "kind": "query_arrival", "text": base})
        at += 1
    for _, follow in LADDER:
        events.append({"at": at, "kind": "query_arrival", "text": follow})
        at += 1
    write_trace(DATA / "traces" / "monotonicity.trace", events)

    # idle work: every scheduler branch of an idle tick does work
    write(
        DATA / "configs" / "idle_work.cfg",
        base_cfg + "t_batch=2\nt_quiet=2\nscript_file=../scripts/idle_work.json\n",
    )
    responses = [("summarize", "Weekly work covers budget review, meetings, reports, and training."),
                 ("summarize", "A vendor contract renewal awaits legal sign off.")]
    responses += [("knowledge_prediction", numbered(batch)) for batch in IDLE_KNOWLEDGE]
    responses += [("history_prediction", numbered(batch)) for batch in IDLE_HISTORY]
    write(
        DATA / "scripts" / "idle_work.json",
        json.dumps(
            {
                "fallback": "",
                "entries": [
                    {"template": t, "slots_digest": "*", "response": r} for t, r in responses
                ],
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )
    events = [
        {"at": 0, "kind": "config_change", "field": "qkv_limit_bytes", "value": 70000},
        {"at": 1, "kind": "chunk_arrival", "text": CORPUS},
    ]
    events += [
        {"at": 2 + i, "kind": "query_arrival", "text": q}
        for i, q in enumerate(IDLE_USERS + [IDLE_PARAPHRASE])
    ]
    events += [
        {"at": 6, "kind": "config_change", "field": "qkv_limit_bytes", "value": 400000},
        {"at": 7, "kind": "chunk_arrival", "text": IDLE_STALE_CHUNK},
        {"at": 10, "kind": "idle_tick", "budget": 1e15},
        {"at": 11, "kind": "config_change", "field": "tau_query", "value": 0.90},
        {"at": 12, "kind": "chunk_arrival", "text": IDLE_SECOND_CHUNK},
        {"at": 13, "kind": "query_arrival", "text": IDLE_LATE_USER},
        {"at": 16, "kind": "idle_tick", "budget": 1e15},
        {"at": 17, "kind": "config_change", "field": "tau_query", "value": 0.85},
        {"at": 18, "kind": "idle_tick", "budget": 1e15},
        {"at": 19, "kind": "query_arrival", "text": IDLE_KNOWLEDGE[1][0]},
    ]
    write_trace(DATA / "traces" / "idle_work.trace", events)
    check_idle_work_replay(
        DATA / "traces" / "idle_work.trace", DATA / "configs" / "idle_work.cfg", DATA / "corpus.txt"
    )

    print("data assets written under", DATA)
    return 0


if __name__ == "__main__":
    sys.exit(main())
