"""Planner contract, deterministic mock, remote client, and output parsing.

A planner maps a question to a path program plus optional reasoning text
and start entities.  The mock planner answers from a question index built
over a generated dataset and is what end-to-end tests run against; the
remote planner talks to any chat-completion-style HTTP endpoint.
"""

from __future__ import annotations

import logging
import os
import re
import threading
import time
from dataclasses import dataclass
from typing import Iterable, Protocol

import requests

from .datagen import Sample
from .errors import PlannerUnavailable, TitanError, UnparseablePlan
from .ontology import RelationRegistry, build_default_registry
from .pathlang import PathProgram, _split_names, parse_path
from .prompts import PLANNER_SYSTEM_PROMPT_V1, render_system_prompt

logger = logging.getLogger(__name__)

_PATH_BLOCK = re.compile(r"<PATH>.*?</PATH>", re.S)
_ENTITY_BLOCK = re.compile(r"<ENTITY>(.*?)</ENTITY>", re.S)
# Client errors that can pass on their own (request timeout, rate limit);
# every other 4xx reply fails the request without a retry.
_RETRY_4XX = frozenset({408, 429})


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
    """``path`` is None when the raw text held no parseable path block;
    consumers surface that as :class:`UnparseablePlan`."""

    raw_text: str
    cot: str | None
    path: PathProgram | None
    start_entities: tuple[str, ...] = ()
    guessed: bool = False


class Planner(Protocol):
    def plan(self, request: PlannerRequest) -> PlannerResponse: ...


def parse_planner_output(
    raw_text: str,
    registry: RelationRegistry | None = None,
) -> tuple[str | None, PathProgram, tuple[str, ...]]:
    """Split raw planner text into (cot, path, start entities).

    The CoT is everything before the first ``<PATH>``; the path is the
    first well-formed path block (later blocks are ignored); start
    entities come from an optional ``<ENTITY> ... </ENTITY>`` block.
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

    cot = raw_text.split("<PATH>", 1)[0]
    entity_match = _ENTITY_BLOCK.search(cot)
    entities: tuple[str, ...] = ()
    if entity_match:
        entities = tuple(_split_names(entity_match.group(1)))
        cot = cot[:entity_match.start()] + cot[entity_match.end():]
    cot = cot.strip() or None
    return cot, program, entities


class MockPlanner:
    """Looks questions up in a dataset; unknown questions get the nearest
    indexed question by token overlap, flagged ``guessed=True``.

    Nearest means the highest Jaccard similarity of the token sets; ties,
    and the case where no indexed question shares a token, go to the
    first indexed question in sorted normalized order.
    """

    def __init__(self, samples: Iterable[Sample],
                 registry: RelationRegistry | None = None):
        self._registry = registry or build_default_registry()
        self._index: dict[str, Sample] = {}
        for sample in samples:
            self._index.setdefault(self._norm(sample.question), sample)
        self._keys = sorted(self._index)
        # Bit i of a mask stands for self._keys[i].  _masks maps a token to
        # the questions holding it; _size_masks pairs each token-set size,
        # ascending, with the questions of that size.
        masks: dict[str, int] = {}
        by_size: dict[int, int] = {}
        for i, key in enumerate(self._keys):
            tokens, bit = set(key.split()), 1 << i
            by_size[len(tokens)] = by_size.get(len(tokens), 0) | bit
            for token in tokens:
                masks[token] = masks.get(token, 0) | bit
        self._masks = masks
        self._size_masks = sorted(by_size.items())

    @staticmethod
    def _norm(question: str) -> str:
        return " ".join(question.casefold().split())

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
        key = self._norm(request.question)
        sample = self._index.get(key)
        guessed = sample is None
        if sample is None:
            if not self._keys:
                return PlannerResponse(raw_text="", cot=None, path=None, guessed=True)
            sample = self._index[self._keys[self._nearest(set(key.split()))]]

        path = parse_path(sample.path, self._registry)
        if request.mode == "cot":
            return PlannerResponse(
                raw_text=sample.cot, cot=sample.cot, path=path,
                start_entities=sample.start_entities, guessed=guessed)
        # NoCoT planners emit the path only; entity linking happens
        # executor-side.
        return PlannerResponse(raw_text=sample.path, cot=None, path=path,
                               guessed=guessed)


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model: str
    api_key: str = ""
    timeout: float = 30.0
    max_retries: int = 2
    backoff_base: float = 1.0
    max_in_flight: int = 4

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
    """Chat-completion-style HTTP client with bounded retry/backoff.

    Safe for concurrent use; ``max_in_flight`` caps simultaneous requests.
    """

    def __init__(self, config: EndpointConfig,
                 registry: RelationRegistry | None = None,
                 prompt_template: str = PLANNER_SYSTEM_PROMPT_V1,
                 session: requests.Session | None = None):
        self._config = config
        self._registry = registry or build_default_registry()
        self._prompt_template = prompt_template
        self._session = session or requests.Session()
        self._gate = threading.BoundedSemaphore(max(1, config.max_in_flight))

    def _request_body(self, request: PlannerRequest) -> dict:
        system = render_system_prompt(self._registry, mode=request.mode,
                                      template=self._prompt_template)
        return {
            "model": self._config.model,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": request.question},
            ],
            "temperature": 0,
        }

    def plan(self, request: PlannerRequest) -> PlannerResponse:
        url = self._config.base_url.rstrip("/") + "/chat/completions"
        headers = {"Content-Type": "application/json"}
        if self._config.api_key:
            headers["Authorization"] = f"Bearer {self._config.api_key}"
        body = self._request_body(request)

        last_error: Exception | None = None
        for attempt in range(self._config.max_retries + 1):
            if attempt:
                time.sleep(self._config.backoff_base * 2 ** (attempt - 1))
            try:
                with self._gate:
                    reply = self._session.post(url, json=body, headers=headers,
                                               timeout=self._config.timeout)
                if 400 <= reply.status_code < 500 and reply.status_code not in _RETRY_4XX:
                    # The same request would be refused again.
                    raise PlannerUnavailable(
                        f"planner endpoint refused the request: HTTP "
                        f"{reply.status_code} {reply.reason}")
                reply.raise_for_status()
                payload = reply.json()
                break
            except (requests.RequestException, ValueError) as exc:
                logger.warning("planner endpoint attempt %d failed: %s",
                               attempt + 1, exc)
                last_error = exc
        else:
            raise PlannerUnavailable(f"planner endpoint failed: {last_error}") \
                from last_error

        try:
            content = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise UnparseablePlan(f"endpoint reply missing message content: {exc}",
                                  raw_text=str(payload)) from exc
        cot, program, entities = parse_planner_output(content, self._registry)
        return PlannerResponse(raw_text=content, cot=cot, path=program,
                               start_entities=entities)
