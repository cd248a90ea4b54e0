"""Dual-view query prediction.

Two independent views guess what the user will ask next: a knowledge
view prompting over a compact abstract of the ingested chunks, and a
history view prompting over a ring buffer of recent user queries. Both
run only during idle ticks (never on the query-serving path) and both
call the text backend with a template name and its slots.

Each call checks its own trigger and otherwise does nothing: the
abstract takes the pending chunks once none arrived for t_batch, the
history view predicts once per burst of user queries after t_quiet
passed with none, and the knowledge view needs a non-empty abstract. The
scheduler asks the knowledge view only in the tick the abstract changed.

Backend responses are parsed from the numbered "1. ...?; 2. ...?"
format; the parser is total and drops malformed items.
"""

from __future__ import annotations

import re
from collections import deque

TEMPLATE_SUMMARIZE = "summarize"
TEMPLATE_KNOWLEDGE = "knowledge_prediction"
TEMPLATE_HISTORY = "history_prediction"

DEFAULT_KB_KIND = "meeting record"

_MARKER_RE = re.compile(r"^\s*\d+\s*[.)]\s*")


def parse_numbered_list(text: str) -> list[str]:
    """Parse '1. ...?; 2. ...?' responses. Total: malformed items are
    dropped, any input yields a (possibly empty) list."""
    out = []
    for part in text.split("; "):
        item = _MARKER_RE.sub("", part.strip())
        item = item.strip().strip("'\"").strip()
        if item.endswith("?") and len(item) > 1:
            out.append(item)
    return out


class PhaseError(AssertionError):
    """A background-only operation ran on the query-serving path."""


class Predictor:
    """Owns the abstract, the query buffer, and the two prediction views.

    config is the engine's EngineConfig, read where each value is used:
    prediction_stride, t_batch and t_quiet, which EngineConfig.validate
    checks and a config_change may not set, and the constants buffer_size
    (the buffer's length) and abstract_cap_bytes.

    Mutating operations run only while the engine is in its background
    phase (single writer). `phase` is the engine's only serve/idle flag:
    handle_query sets it to "serve" for the length of a query, and the
    summarization and prediction calls assert it is "idle".
    """

    def __init__(self, backend, config):
        self.backend = backend
        self.config = config
        self.abstract: list[str] = []  # a sentence per summarized chunk batch, joined by " "
        self.buffer: deque[str] = deque(maxlen=config.buffer_size)  # recent user queries
        self.phase = "idle"
        self.parse_failures = 0
        self._pending: list[str] = []  # chunk texts awaiting summarization, a missed batch first
        self._last_chunk_at: float | None = None
        self._last_query_at: float | None = None  # None once the history view predicted

    def _assert_idle(self) -> None:
        if self.phase != "idle":
            raise PhaseError("prediction work attempted during query serving")

    # -- triggers ------------------------------------------------------------

    def note_chunks(self, texts: list[str], at: float) -> None:
        self._pending.extend(texts)
        self._last_chunk_at = at

    def note_user_query(self, text: str, at: float) -> None:
        self.buffer.append(text)
        self._last_query_at = at

    # -- abstract maintenance -------------------------------------------------

    def update_abstract(self, now: float) -> bool:
        """Summarize the pending chunk batch into one more abstract sentence.

        On a backend miss the batch stays pending for a retry and the
        abstract is unchanged. If the cap would be exceeded, the whole
        abstract is re-summarized through the same prompt exactly once. If
        it is still over the cap, its text is cut once to cap - 1 bytes,
        dropping a partial character, and kept as the only sentence.
        Returns True if it changed, and then the knowledge view has a new
        abstract to predict from. Does nothing unless chunks are pending
        and none arrived for t_batch.
        """
        self._assert_idle()
        if not self._pending or now - self._last_chunk_at < self.config.t_batch:
            return False
        chunk_text = " ".join(self._pending)
        response = self.backend.generate(TEMPLATE_SUMMARIZE, {"chunks": chunk_text}).strip()
        if not response:
            return False  # chunks noted later join the batch behind it
        self._pending = []
        cap = self.config.abstract_cap_bytes
        self.abstract.append(response)
        text = " ".join(self.abstract)
        if len(text.encode("utf-8")) > cap:
            merged = self.backend.generate(TEMPLATE_SUMMARIZE, {"chunks": text}).strip()
            if merged:
                self.abstract, text = [merged], merged
            if len(text.encode("utf-8")) > cap:
                cut = text.encode("utf-8")[: cap - 1].decode("utf-8", errors="ignore")
                self.abstract = [cut]
        return True

    # -- prediction views ------------------------------------------------------

    def _predict(self, template: str, slots: dict) -> tuple[str, ...]:
        """Up to stride questions from one prompt; a non-empty response
        that yields none counts as a parse failure."""
        stride = self.config.prediction_stride
        slots = {"kb_kind": DEFAULT_KB_KIND, **slots, "stride": str(stride)}
        response = self.backend.generate(template, slots)
        queries = parse_numbered_list(response)[:stride]
        if response and not queries:
            self.parse_failures += 1
        return tuple(queries)

    def predict_from_knowledge(self) -> tuple[str, ...]:
        """Questions from the abstract; none while it is empty."""
        self._assert_idle()
        if not self.abstract:
            return ()
        return self._predict(TEMPLATE_KNOWLEDGE, {"abstract": " ".join(self.abstract)})

    def predict_from_history(self, now: float, known_query: "callable") -> tuple[str, ...]:
        """Questions from the query buffer, less those known_query(text)
        finds in the QA bank; none unless a user query arrived since the
        last history prediction and then t_quiet passed with none."""
        self._assert_idle()
        if self._last_query_at is None or now - self._last_query_at < self.config.t_quiet:
            return ()
        self._last_query_at = None
        queries = self._predict(TEMPLATE_HISTORY, {"history": "; ".join(self.buffer)})
        return tuple(q for q in queries if not known_query(q))
