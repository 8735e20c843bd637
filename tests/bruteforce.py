"""Independent brute-force path interpreter used as a test oracle.

Works on plain dicts and a raw edge-triple list, recomputes every step
from scratch by scanning the full edge list, and never touches the
executor's indexes, so agreement between the two is meaningful.

Step encoding (plain tuples, no pathlang types):
    ("seed", kind_token) | ("rel", name) | ("filter", keyword)
    | ("select", [name, ...]) | ("common",) | ("diff",)

``lcs_length`` is the textbook dynamic program for the longest common
subsequence, the oracle for the bit-parallel LCS behind ROUGE-L.

``bleu`` counts n-grams by slicing, the oracle for ``eval.bleu``.

``country_tags`` scans each folded field once per marker and checks the
characters around every occurrence, the oracle for ingest's single-regex
whole-word country tagging.

``relations_from`` lists a kind's relations off the registry's signatures.

``alias_normalize`` and ``alias_resolvable_from_some_kind`` resolve relation
tokens through a hand-written table of context-free short verbs, then by a
scan of the signatures from the source kind, the oracles for the registry's
verbs derived from its signatures.

``canonical_key`` encodes a program's steps as plain tuples with filter
keywords and select names folded, the oracle for ``eval.exact_match``.

``_fold`` restates the package's one text-to-graph comparison rule
(casefold, then collapse whitespace runs) for the oracles here.

``successors`` maps ids through the graph's rank-level traversal.

``link_entities`` tries every span of words from every word, longest
first, against the folded names, the oracle for entity linking's
head-bounded scan.
"""

from __future__ import annotations

# Context-free short verbs of the default registry and the names they stand for.
ALIASES = {
    "mitigated_by": "mitigated_by_course_of_action",
    "mitigates": "mitigates_attack_pattern",
    "targets": "targets_asset",
    "targeted_by": "targeted_by_attack_pattern",
    "attributed_to": "attributed_to_intrusion_set",
    "responsible_for": "responsible_for_campaign",
    "detected_by": "detected_by_data_component",
    "detects": "detects_attack_pattern",
    "provided_by": "provided_by_data_source",
    "provides": "provides_data_component",
    "subtechnique_of": "subtechnique_of_attack_pattern",
    "has_subtechnique": "has_subtechnique_attack_pattern",
}


def relations_from(registry, kind) -> tuple[str, ...]:
    """Sorted names of the relations whose signature starts at ``kind``."""
    return tuple(sorted(sig.name for sig in registry.signatures if sig.source_kind is kind))


def alias_normalize(registry, token: str, source_kind=None) -> str:
    """Canonical name of ``token``: itself, its entry in ``ALIASES`` (when the
    registry has that name), or the one relation from ``source_kind`` that
    completes it with a target suffix."""
    from titan_kg.errors import UnknownRelation

    names = {sig.name for sig in registry.signatures}
    if not token:
        raise UnknownRelation("empty relation token")
    if token in names:
        return token
    if ALIASES.get(token) in names:
        return ALIASES[token]
    if source_kind is not None:
        candidates = [sig.name for sig in registry.signatures
                      if sig.source_kind is source_kind
                      and sig.name == f"{token}_{sig.target_kind.slug}"]
        if len(candidates) == 1:
            return candidates[0]
        if len(candidates) > 1:
            raise UnknownRelation(
                f"relation {token!r} is ambiguous from kind "
                f"{source_kind.value!r}: {sorted(candidates)}")
    raise UnknownRelation(f"unknown relation {token!r}")


def alias_resolvable_from_some_kind(registry, token: str) -> bool:
    """True when ``alias_normalize`` resolves ``token`` from some kind."""
    from titan_kg.errors import UnknownRelation
    from titan_kg.ontology import EntityKind

    for kind in EntityKind:
        try:
            alias_normalize(registry, token, kind)
            return True
        except UnknownRelation:
            continue
    return False


def _fold(text: str) -> str:
    return " ".join(text.casefold().split())


def canonical_key(program) -> tuple:
    """Exact-match key: one plain tuple per step, with filter keywords and
    select names folded."""
    from titan_kg import pathlang as pl

    key = []
    for step in program.steps:
        if isinstance(step, pl.TypeSeed):
            key.append(("seed", step.kind.value))
        elif isinstance(step, pl.Traverse):
            key.append(("rel", step.rel))
        elif isinstance(step, pl.Filter):
            key.append(("filter", _fold(step.keyword)))
        elif isinstance(step, pl.Select):
            key.append(("select", tuple(_fold(n) for n in step.names)))
        elif isinstance(step, pl.ExecCommon):
            key.append(("exec_common",))
        else:
            key.append(("exec_difference",))
    return tuple(key)


def successors(graph, ids, rel) -> tuple:
    """Distinct targets of ``rel`` edges from ``ids``, in (kind, name, id) order."""
    return graph.ids(graph.successor_ranks(graph.ranks(ids), rel))


def tables_from_graph(graph):
    """Flatten a KnowledgeGraph into the plain structures the oracle uses."""
    from titan_kg.ontology import EntityKind

    nodes = {}
    for kind in EntityKind:
        for nid in graph.nodes_of_kind(kind):
            n = graph.node(nid)
            nodes[nid] = {
                "kind": n.kind.value,
                "name": n.name,
                "aliases": list(n.aliases),
                "tags": list(n.tags),
                "description": n.description,
            }
    edges = list(graph.all_edges())
    return nodes, edges


def steps_from_program(program):
    """Convert a PathProgram into the oracle's plain-tuple encoding."""
    from titan_kg import pathlang as pl

    steps = []
    for step in program.steps:
        if isinstance(step, pl.TypeSeed):
            steps.append(("seed", step.kind.value))
        elif isinstance(step, pl.Traverse):
            steps.append(("rel", step.rel))
        elif isinstance(step, pl.Filter):
            steps.append(("filter", step.keyword))
        elif isinstance(step, pl.Select):
            steps.append(("select", list(step.names)))
        elif isinstance(step, pl.ExecCommon):
            steps.append(("common",))
        else:
            steps.append(("diff",))
    return steps


def _matches_keyword(node: dict, keyword: str) -> bool:
    kw = _fold(keyword)
    if kw in _fold(node["name"]):
        return True
    for alias in node["aliases"]:
        if kw in _fold(alias):
            return True
    for tag in node["tags"]:
        if kw in _fold(tag):
            return True
    return kw in _fold(node["description"])


def _same_name(node: dict, name: str) -> bool:
    wanted = _fold(name)
    if _fold(node["name"]) == wanted:
        return True
    return any(_fold(a) == wanted for a in node["aliases"])


def brute_execute(nodes: dict, edges: list, steps: list, start_ids=None,
                  walked: list | None = None) -> set:
    """Final answer ids of a path, computed naively.

    Every traversal rescans the full edge list; branches are plain sets.
    When ``walked`` is a list, each relation step appends the set of
    (src, rel, dst) edges it followed from any branch.
    Raises ValueError for an unresolvable select name.
    """
    if steps and steps[0][0] == "seed":
        kind = steps[0][1]
        branches = [{nid for nid, n in nodes.items() if n["kind"] == kind}]
        rest = steps[1:]
    else:
        branches = [set(start_ids or ())]
        rest = steps

    for step in rest:
        op = step[0]
        if op == "rel":
            rel = step[1]
            if walked is not None:
                walked.append({(src, r, dst) for (src, r, dst) in edges
                               if r == rel and any(src in b for b in branches)})
            branches = [
                {dst for (src, r, dst) in edges if r == rel and src in branch}
                for branch in branches
            ]
        elif op == "filter":
            branches = [
                {nid for nid in branch if _matches_keyword(nodes[nid], step[1])}
                for branch in branches
            ]
        elif op == "select":
            assert len(branches) == 1
            current = branches[0]
            new_branches = []
            for name in step[1]:
                hit = {nid for nid in current if _same_name(nodes[nid], name)}
                if not hit:
                    raise ValueError(f"select name {name!r} unresolved")
                new_branches.append(hit)
            branches = new_branches
        elif op == "common":
            result = set(branches[0])
            for other in branches[1:]:
                result &= other
            branches = [result]
        elif op == "diff":
            result = set(branches[0])
            for other in branches[1:]:
                result -= other
            branches = [result]
        else:
            raise ValueError(f"unknown oracle step {step!r}")

    answers = set()
    for branch in branches:
        answers |= branch
    return answers


def lcs_length(a: list, b: list) -> int:
    """Longest common subsequence length by the O(len(a) * len(b)) table."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def _whole_word_in(marker: str, text: str) -> bool:
    """True when ``marker`` occurs in ``text`` with no word character
    (a letter, digit or underscore) right before or after it."""
    def word(ch: str) -> bool:
        return ch.isalnum() or ch == "_"

    start = text.find(marker)
    while start >= 0:
        end = start + len(marker)
        if not (start and word(text[start - 1])) and not (end < len(text) and word(text[end])):
            return True
        start = text.find(marker, start + 1)
    return False


def country_tags(*fields: str) -> list[str]:
    """Country tags whose markers occur as whole words in a folded field,
    in the marker table's order."""
    from titan_kg.kg import _COUNTRY_MARKERS

    folded = [_fold(field) for field in fields]
    return [tag for tag, markers in _COUNTRY_MARKERS
            if any(_whole_word_in(m, text) for m in markers for text in folded)]


def bleu(cand: list, ref: list, max_n: int = 4) -> float:
    """Single-reference BLEU of two token lists, as eval.py documents it."""
    import math
    from collections import Counter

    if not cand or not ref:
        return 0.0
    effective_n = min(max_n, len(cand))
    log_sum = 0.0
    for n in range(1, effective_n + 1):
        cand_ngrams = Counter(tuple(cand[i:i + n]) for i in range(len(cand) - n + 1))
        ref_ngrams = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
        clipped = sum((cand_ngrams & ref_ngrams).values())
        log_sum += math.log(clipped / sum(cand_ngrams.values()) if clipped else 1e-9)
    brevity = 1.0 if len(cand) >= len(ref) else math.exp(1 - len(ref) / len(cand))
    return brevity * math.exp(log_sum / effective_n)


def link_entities(question: str, names) -> list[tuple[str, int, int]]:
    """(text, start, end) of each linked span of ``question``.

    Words are runs of non-whitespace with edge punctuation (ASCII and curly
    quotes) trimmed; words that trim to nothing are dropped.  From each
    word, every run of words up to the last is tried, longest first, against
    ``names`` folded; a match consumes its words.
    """
    import string

    punct = string.punctuation + "\u201c\u201d\u2018\u2019"
    keys = {_fold(name) for name in names}
    words, start = [], None
    for i, ch in enumerate(question + " "):
        if ch.isspace() and start is not None:
            left, right = start, i
            while left < right and question[left] in punct:
                left += 1
            while right > left and question[right - 1] in punct:
                right -= 1
            if left < right:
                words.append((left, right))
            start = None
        elif not ch.isspace() and start is None:
            start = i
    mentions, i = [], 0
    while i < len(words):
        for j in range(len(words), i, -1):
            text = question[words[i][0]:words[j - 1][1]]
            if _fold(text) in keys:
                mentions.append((text, words[i][0], words[j - 1][1]))
                i = j
                break
        else:
            i += 1
    return mentions
