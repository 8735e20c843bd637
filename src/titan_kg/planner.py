"""Planner contract, deterministic mock, remote client, and output parsing.

A planner maps a question to a path program plus optional reasoning text
and start entities, or raises :class:`UnparseablePlan`.  The mock planner
answers from a question index built over a generated dataset and is what
end-to-end tests run against; the remote planner talks to any
chat-completion-style HTTP endpoint.
:func:`run_question` is the whole loop: plan, resolve the start, execute.
"""

from __future__ import annotations

import http.client
import json
import logging
import os
import re
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Iterable, Protocol

from .datagen import Sample
from .errors import PlannerUnavailable, TitanError, UnparseablePlan
from .executor import ExecutionResult, run_path
from .kg import KnowledgeGraph, fold, link_entities
from .ontology import RelationRegistry, build_default_registry
from .pathlang import PATH_CLOSE, PATH_OPEN, PathProgram, TypeSeed, parse_path, split_names

logger = logging.getLogger(__name__)

_PATH_BLOCK = re.compile(f"{re.escape(PATH_OPEN)}.*?{re.escape(PATH_CLOSE)}", re.S)
_ENTITY_BLOCK = re.compile(r"<ENTITY>(.*?)</ENTITY>", re.S)
# Client errors that can pass on their own (request timeout, rate limit);
# every other 4xx reply fails the request without a retry.
_RETRY_4XX = frozenset({408, 429})

_SYSTEM_PROMPT = """\
You turn cyber threat intelligence questions into executable graph paths.

The knowledge graph has typed relations; each relation name ends with the
kind of its target node.  Available relations (source kind, relation,
target kind):

{relation_table}

Extra path steps:
- is_<kind>_type starts from every node of that kind (e.g. is_malware_type)
- filter <keyword> keeps entities matching the keyword
- select <name> <name> splits reasoning into one branch per named entity
- exec_common / exec_difference combine branches at the end

Answer format:
{cot_instruction}
If the question names the starting entities, list them first inside
<ENTITY> ... </ENTITY> (double-quote names containing spaces).
Always finish with exactly one path of the form
<PATH> relation_1 <SEP> relation_2 <SEP> ... </PATH>
"""
_COT_INSTRUCTION = ("First explain your reasoning step by step "
                    "(Step 1: ..., Step 2: ...).")
_NOCOT_INSTRUCTION = "Reply with the entity block and path only, no explanation."


@dataclass(frozen=True)
class PlannerRequest:
    question: str
    mode: str = "cot"  # "cot" | "nocot"

    def __post_init__(self):
        if not self.question.strip():
            raise ValueError("question must be non-empty")
        if self.mode not in ("cot", "nocot"):
            raise ValueError(f"unknown planner mode {self.mode!r}")


@dataclass(frozen=True)
class PlannerResponse:
    cot: str | None
    path: PathProgram
    start_entities: tuple[str, ...] = ()
    guessed: bool = False


class Planner(Protocol):
    def plan(self, request: PlannerRequest) -> PlannerResponse: ...


def render_system_prompt(registry: RelationRegistry, mode: str = "cot") -> str:
    """The remote planner's system prompt: the relation table and the
    answer format for ``mode``."""
    table = "\n".join(
        f"- {sig.source_kind.value} --{sig.name}--> {sig.target_kind.value}"
        for sig in registry.signatures)
    instruction = _COT_INSTRUCTION if mode == "cot" else _NOCOT_INSTRUCTION
    return _SYSTEM_PROMPT.format(relation_table=table, cot_instruction=instruction)


def parse_planner_output(
    raw_text: str,
    registry: RelationRegistry | None = None,
) -> tuple[str | None, PathProgram, tuple[str, ...]]:
    """Split raw planner text into (cot, path, start entities).

    The CoT is everything before the first ``<PATH>``; the path is the
    first well-formed path block (later blocks are ignored); start
    entities come from an optional ``<ENTITY> ... </ENTITY>`` block.
    Text that yields no plan raises :class:`UnparseablePlan` and nothing else.
    """
    registry = registry or build_default_registry()
    program = None
    for match in _PATH_BLOCK.finditer(raw_text):
        try:
            program = parse_path(match.group(), registry)
            break
        except TitanError:
            continue
    if program is None:
        raise UnparseablePlan("no well-formed <PATH> block in planner output",
                              raw_text=raw_text)

    cot = raw_text.split(PATH_OPEN, 1)[0]
    entity_match = _ENTITY_BLOCK.search(cot)
    entities: tuple[str, ...] = ()
    if entity_match:
        try:
            entities = tuple(split_names(entity_match.group(1)))
        except TitanError as exc:
            raise UnparseablePlan(f"malformed <ENTITY> block: {exc}", raw_text=raw_text) from exc
        cot = cot[:entity_match.start()] + cot[entity_match.end():]
    cot = cot.strip() or None
    return cot, program, entities


class MockPlanner:
    """Looks questions up in a dataset; unknown questions get the nearest
    indexed question by token overlap, flagged ``guessed=True``.

    Nearest means the highest Jaccard similarity of the token sets; ties,
    and the case where no indexed question shares a token, go to the
    first indexed question in sorted normalized order.  With nothing
    indexed there is no nearest question, and ``plan`` raises
    :class:`UnparseablePlan`.
    """

    def __init__(self, samples: Iterable[Sample],
                 registry: RelationRegistry | None = None):
        self._registry = registry or build_default_registry()
        # Each question keeps only what plan returns, not its whole sample.
        self._index: dict[str, tuple[str, tuple[str, ...], str]] = {}
        for s in samples:
            self._index.setdefault(fold(s.question), (s.path, s.start_entities, s.cot))
        self._keys = sorted(self._index)
        # Bit i of a mask stands for self._keys[i].  _masks maps a token to
        # the questions holding it; _size_masks pairs each token-set size,
        # ascending, with the questions of that size.  Each mask is filled as
        # a little-endian bytearray, keyed by its token or its size, then
        # made an int in one step.
        width = (len(self._keys) + 7) >> 3
        rows: dict[str | int, bytearray] = {}
        for i, key in enumerate(self._keys):
            tokens, at, bit = set(key.split()), i >> 3, 1 << (i & 7)
            for name in (len(tokens), *tokens):
                if (row := rows.get(name)) is None:
                    row = rows[name] = bytearray(width)
                row[at] |= bit
        masks = {name: int.from_bytes(rows.pop(name), "little") for name in list(rows)}
        self._size_masks = sorted((n, m) for n, m in masks.items() if isinstance(n, int))
        self._masks = {n: m for n, m in masks.items() if isinstance(n, str)}
        self._programs: dict[str, PathProgram] = {}  # path text -> program, parsed once

    def _nearest(self, tokens: set[str]) -> int:
        """Position in ``self._keys`` of the question nearest ``tokens``."""
        # Bit-sliced counters: bit i of planes[j] is bit j of the number of
        # tokens that self._keys[i] shares with the question.
        planes: list[int] = []
        for token in tokens:
            carry = self._masks.get(token, 0)
            for j, plane in enumerate(planes):
                if not carry:
                    break
                planes[j], carry = plane ^ carry, plane & carry
            if carry:
                planes.append(carry)
        weighted = [(1 << j, plane) for j, plane in enumerate(planes)][::-1]
        n = len(tokens)
        best, best_score = 0, 0.0
        for size, group in self._size_masks:
            # At a fixed size the score c / (n + size - c) rises with the
            # shared count c, so only the group's highest count can win;
            # narrow the group to it, highest plane first.
            c = 0
            for weight, plane in weighted:
                hit = group & plane
                if hit:
                    group, c = hit, c + weight
            if not c:
                continue
            # The lowest set bit is the group's first such key in sorted order.
            i = (group & -group).bit_length() - 1
            score = c / (n + size - c)
            if score > best_score or (score == best_score and i < best):
                best, best_score = i, score
        return best

    def plan(self, request: PlannerRequest) -> PlannerResponse:
        key = fold(request.question)
        guessed = key not in self._index
        if guessed:
            if not self._keys:
                raise UnparseablePlan("planner returned no usable path")
            key = self._keys[self._nearest(set(key.split()))]

        text, start_entities, cot = self._index[key]
        if (path := self._programs.get(text)) is None:
            path = self._programs[text] = parse_path(text, self._registry)
        if request.mode == "cot":
            return PlannerResponse(cot, path, start_entities, guessed)
        # NoCoT planners emit the path only; entity linking happens
        # executor-side.
        return PlannerResponse(None, path, guessed=guessed)


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model: str
    api_key: str = ""
    timeout: float = 30.0
    max_retries: int = 2
    backoff_base: float = 1.0

    @classmethod
    def from_env(cls, env: dict[str, str] | None = None) -> "EndpointConfig":
        env = env if env is not None else dict(os.environ)
        base_url = env.get("TITAN_LLM_BASE_URL", "")
        model = env.get("TITAN_LLM_MODEL", "")
        if not base_url or not model:
            raise PlannerUnavailable(
                "remote planner needs TITAN_LLM_BASE_URL and TITAN_LLM_MODEL")
        return cls(base_url=base_url, model=model,
                   api_key=env.get("TITAN_LLM_API_KEY", ""))


class RemotePlanner:
    """Chat-completion-style HTTP client with bounded retry/backoff."""

    def __init__(self, config: EndpointConfig,
                 registry: RelationRegistry | None = None):
        self._config = config
        self._registry = registry or build_default_registry()

    def plan(self, request: PlannerRequest) -> PlannerResponse:
        url = self._config.base_url.rstrip("/") + "/chat/completions"
        headers = {"Content-Type": "application/json"}
        if self._config.api_key:
            headers["Authorization"] = f"Bearer {self._config.api_key}"
        body = json.dumps({
            "model": self._config.model,
            "messages": [
                {"role": "system",
                 "content": render_system_prompt(self._registry, mode=request.mode)},
                {"role": "user", "content": request.question},
            ],
            "temperature": 0,
        }).encode("utf-8")

        for attempt in range(max(self._config.max_retries, 0) + 1):
            if attempt:
                time.sleep(self._config.backoff_base * 2 ** (attempt - 1))
            post = urllib.request.Request(url, data=body, headers=headers, method="POST")
            try:
                with urllib.request.urlopen(post, timeout=self._config.timeout) as reply:
                    payload = json.loads(reply.read())
                break
            except urllib.error.HTTPError as exc:
                exc.close()  # it holds the reply's socket
                if 400 <= exc.code < 500 and exc.code not in _RETRY_4XX:
                    # The same request would be refused again.
                    raise PlannerUnavailable(f"planner endpoint refused the request: "
                                             f"HTTP {exc.code} {exc.reason}") from None
                error = str(exc)  # text: the error holds this frame
            except (OSError, http.client.HTTPException, ValueError) as exc:
                error = str(exc)
            logger.warning("planner endpoint attempt %d failed: %s", attempt + 1, error)
        else:
            raise PlannerUnavailable(f"planner endpoint failed: {error}")

        try:
            content = payload["choices"][0]["message"]["content"]
            if not isinstance(content, str):  # null for a refusal, a list of parts
                raise TypeError(f"content is {type(content).__name__}, not a string")
        except (KeyError, IndexError, TypeError) as exc:
            raise UnparseablePlan(f"endpoint reply missing message content: {exc}",
                                  raw_text=str(payload)) from exc
        return PlannerResponse(*parse_planner_output(content, self._registry))


def run_question(
    graph: KnowledgeGraph,
    planner: Planner,
    question: str,
    mode: str = "cot",
    registry: RelationRegistry | None = None,
) -> tuple[ExecutionResult, PathProgram, str | None]:
    """The full loop: plan, link entities when needed, validate, execute."""
    registry = registry or build_default_registry()
    response = planner.plan(PlannerRequest(question=question, mode=mode))
    # A NoCoT-style response names no start: link the question's words
    # against the graph's node names.  A type-seeded path needs no start.
    start_names = response.start_entities
    if not start_names and not isinstance(response.path.steps[0], TypeSeed):
        start_names = [m.text for m in link_entities(question, graph)]
    typed, result = run_path(graph, registry, response.path, start_names)
    return result, typed.program, response.cot
