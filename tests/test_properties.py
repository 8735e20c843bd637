"""Property tests of traversal and execution against the brute-force oracle.

Graphs are small random typed graphs: a few nodes of each kind, with names
drawn from a pool that repeats names across kinds and differs only in case
or whitespace, and random edges that each fit a registry signature and come
with their registry reverse.  Programs are random valid programs over them.
The node lookups and each kind's run of ranks are checked against a scan of
the nodes, given in any order and with some kinds left out.

The bit-parallel LCS behind ROUGE-L is checked against the dynamic program
on random token lists long enough to span several 64-bit words, and BLEU
against n-gram counting by slicing, to the last bit of the float.  All
three text metrics are checked to the last bit against their oracles on
raw strings: words in mixed case, ``_`` tokens and repeats, glued by ASCII
punctuation and whitespace or by nothing, and empty texts; and on near
copies, a text and itself with up to three words inserted, deleted or
substituted anywhere, so the two share a prefix, a suffix or both.

Ingest's single-regex whole-word country tagging is checked against a
scan per marker and field on fields glued from marker fragments in mixed
case, so markers overlap, share letters and touch word characters.

Ingest is checked on small random bundles whose ids come from one shared
pool, so objects of two types collide, relationships and data-source refs
point at any id, and a node can hold the id a platform asset would take;
verbs include unknown ones, names a blank one, and platforms come in several
cases and one with no letter or digit.  The build either raises or yields a
graph in which every edge fits a signature, meets its target kind and has
its reverse, and every node has a name that folds to something, leniently
and under strict mode.

Snapshot load is checked on the fixture graph's snapshot: any order of its
records, with repeated EDGE lines and blank lines, loads to the same graph
and edge count, and a mutated snapshot either loads or raises a
``TitanError``.  Its value-field decoder is checked against ``json.loads``
on dumped JSON values, padded, truncated or followed by junk or a second
value.

Path text is checked on text glued from the path and planner markers, near
misses of them, quotes, whitespace and any other character: every program
that can be built renders to text that parses back to it, in both forms,
and planner output either parses or raises ``UnparseablePlan``.

Path exact match is checked against the folded key of the oracle on
program pairs whose filter keywords and select names differ only in case.

A filter is checked against the fold rule on node text and keywords glued
from mixed-case words, letters whose casefold expands (ß, İ, ﬁ) and
whitespace runs of spaces, tabs, newlines, NBSP, U+2028 and U+001C, one
word or several.

Entity linking is checked against a scan of every span from every word on
graphs whose names and aliases share first words, run up to twelve words,
hold punctuation-only words and letters whose casefold expands (ß, ﬁ, İ),
and on questions that glue recased names to edge and curly-quote
punctuation with Unicode whitespace.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import example, given, strategies as st

from titan_kg.errors import (
    MalformedBundle,
    MalformedOperator,
    SelectNameUnresolved,
    TitanError,
    UnknownSignature,
    UnparseablePlan,
)
from titan_kg.eval import _lcs_length, bleu, exact_match, rouge_1, rouge_l
from titan_kg.executor import execute, step_filter
from titan_kg.kg import (
    _COUNTRY_MARKERS,
    KnowledgeGraph,
    Node,
    _country_tags,
    _decode_field,
    build_graph,
    fold,
    link_entities,
    parse_stix_bundle,
)
from titan_kg.ontology import EntityKind, build_default_registry
from titan_kg.pathlang import (
    ExecCommon,
    ExecDifference,
    Filter,
    PathProgram,
    Select,
    Traverse,
    TypeSeed,
    parse_path,
    render_path,
    validate_program,
)
from titan_kg.planner import parse_planner_output

from bruteforce import (
    bleu as brute_bleu,
    bad_edges,
    brute_execute,
    canonical_key,
    country_tags,
    lcs_length,
    link_entities as brute_link_entities,
    relations_from,
    rouge_1 as brute_rouge_1,
    rouge_l as brute_rouge_l,
    steps_from_program,
    successors,
    tables_from_graph,
    tokenize as brute_tokenize,
)
from conftest import FIXTURE_BUNDLE

REGISTRY = build_default_registry()
RELATIONS = sorted({sig.name for sig in REGISTRY.signatures})
# The forward signature of each pair; the graph derives the reverse of every edge.
FORWARD = tuple(sig for sig in REGISTRY.signatures if sig.name in REGISTRY.forward_names)
NAMES = ("Alpha", "alpha", "Beta Gamma", "beta  gamma", "Twin", "TWIN", "Zed")
TAGS = ("linux", "russia", "windows")
KEYWORDS = ("a", "Beta", "twin", "win", "russia", "zz")

# Strategies are built once: building one per draw dominates the run time.
SUFFIXES = st.lists(st.integers(0, 99), min_size=1, max_size=4, unique=True)
NAME = st.sampled_from(NAMES)
ALIASES = st.lists(NAME, max_size=1)
TAG_SETS = st.lists(st.sampled_from(TAGS), max_size=2, unique=True)
KINDS = st.sampled_from(tuple(EntityKind))
KEYWORD = st.sampled_from(KEYWORDS)
COMBINER = st.sampled_from((None, ExecCommon, ExecDifference))
WALK = st.integers(0, 3)
WALK_AFTER_SELECT = st.sampled_from((1, 2, 0))
# A four-token alphabet, so tokens repeat and common subsequences are long.
# The length is drawn first: a plain list strategy rarely grows past 64.
TOKEN = st.sampled_from(("a", "b", "c", "uses_malware"))
TOKEN_LISTS = st.integers(0, 200).flatmap(lambda n: st.lists(TOKEN, min_size=n, max_size=n))
# Raw metric texts: words in mixed case, with ``_`` tokens, each followed by
# ASCII punctuation, whitespace or nothing (which glues it to the next word).
# Enough distinct words that a short pair holds more distinct tokens than
# either side has tokens; up to 90 words, so the LCS spans two 64-bit words.
TEXT_WORD = st.sampled_from(("a", "A", "b", "B", "c", "d", "e", "uses_malware", "USES_malware",
                             "_", "x_", "Sys10"))
TEXT_GLUE = st.sampled_from(("", " ", "  ", "\t\n", ",", ", ", ".", "-", "'", "(", ")",
                             "!?", '"', "__"))
TEXTS = st.integers(0, 90).flatmap(lambda n: st.lists(
    st.tuples(TEXT_WORD, TEXT_GLUE), min_size=n, max_size=n)).map(
    lambda parts: "".join(word + glue for word, glue in parts))
# A text of up to 120 such words and a near copy of it: 0-3 insertions,
# deletions or substitutions, each at any position.  Negative positions
# count from the end, so the first and the last word are edited often.
EDITS = st.lists(st.tuples(st.sampled_from(("insert", "delete", "substitute")),
                           st.integers(-2, 1) | st.integers(0, 120), TEXT_WORD), max_size=3)


def _edited(words: list[str], edits) -> list[str]:
    words = list(words)
    for how, at, word in edits:
        if how == "insert":
            words.insert(at % (len(words) + 1), word)
        elif words and how == "delete":
            del words[at % len(words)]
        elif words:
            words[at % len(words)] = word
    return words


NEAR_COPIES = st.tuples(st.integers(0, 120).flatmap(
    lambda n: st.lists(TEXT_WORD, min_size=n, max_size=n)), EDITS).map(
    lambda drawn: (" ".join(drawn[0]), " ".join(_edited(*drawn))))
# Markers, pairs of markers that share letters ("united statesouth korea"),
# marker halves and separators, each in one of four cases.  The fourth
# swaps in letters that casefold does not map one to one onto "i", "s"
# and "k": U+0130 folds to "i" plus a combining dot, U+017F to "s" and
# U+212A to "k".
MARKERS = [m for _, markers in _COUNTRY_MARKERS for m in markers]
OVERLAPS = {a + b[k:] for a in MARKERS for b in MARKERS
            for k in range(1, min(len(a), len(b))) if a.endswith(b[:k])}
FRAGMENT = st.sampled_from(sorted({*MARKERS, *OVERLAPS, *(m[:len(m) // 2] for m in MARKERS),
                                   *(m[len(m) // 2:] for m in MARKERS), " ", "x", "_", "."}))
CASES = (str.lower, str.upper, str.title,
         lambda text: text.translate({ord("i"): "\u0130", ord("s"): "\u017f",
                                      ord("k"): "\u212a"}))
CASED_FRAGMENT = st.tuples(FRAGMENT, st.sampled_from(CASES)).map(
    lambda pair: pair[1](pair[0]))
COUNTRY_TEXT = st.lists(CASED_FRAGMENT, max_size=12).map("".join)
# STIX bundles over a shared id pool, in any order: one object per id, maybe
# one more that takes an id, perhaps with another type, and relationships
# between any ids.  Every object has platforms, which differ in case, and a
# data-source ref to any id; types and verbs include unknown ones.
STIX_IDS = ("x--1", "x--2", "x--3", "asset--windows")
STIX_TYPES = ("attack-pattern", "malware", "intrusion-set", "x-mitre-data-component",
              "x-mitre-data-source", "identity")


def stix_node(ids):
    return st.fixed_dictionaries({
        "type": st.sampled_from(STIX_TYPES),
        "id": ids,
        "name": st.sampled_from(("A", "B", "", "  ")),
        "x_mitre_platforms": st.lists(
            st.sampled_from(("Windows", "windows", "WINDOWS", "Linux", "!!")), max_size=3),
        "x_mitre_data_source_ref": st.sampled_from(STIX_IDS),
    }, optional={"revoked": st.booleans()})


STIX_RELATIONSHIP = st.fixed_dictionaries({
    "type": st.just("relationship"),
    "id": st.sampled_from(("relationship--1", "relationship--2")),
    "relationship_type": st.sampled_from(("uses", "detects", "targets", "provided-by",
                                          "related-to", "")),
    "source_ref": st.sampled_from(STIX_IDS),
    "target_ref": st.sampled_from(STIX_IDS),
})
STIX_BUNDLE = st.tuples(
    st.tuples(*map(stix_node, map(st.just, STIX_IDS))),
    st.lists(stix_node(st.sampled_from(STIX_IDS)), max_size=1),
    st.lists(STIX_RELATIONSHIP, max_size=6),
).flatmap(lambda parts: st.permutations([*parts[0], *parts[1], *parts[2]]))
SNAPSHOT = build_graph(parse_stix_bundle(FIXTURE_BUNDLE.read_text("utf-8")),
                       REGISTRY).export_snapshot()
HEADER, *RECORDS = SNAPSHOT.splitlines()
EDGE_LINES = [line for line in RECORDS if line.startswith("EDGE\t")]
# Characters that matter to the framing or to JSON, and any others.
CHAR = st.sampled_from('\t\n"[]{},:\\5x ') | st.characters()
# JSON values for the snapshot field decoder: strings of quotes,
# backslashes, the line separators JSON leaves unescaped, whitespace and
# any other character; integers, floats with NaN and the infinities;
# true, false and null; nested lists.
STRING_CHAR = st.sampled_from('"\\\x85\u2028\u2029 \r\t\nx') | st.characters()
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(STRING_CHAR),
    lambda values: st.lists(values, max_size=3), max_leaves=6)
# What a field may be padded with (the JSON whitespace that is not record
# framing), and junk to follow a value: JSON punctuation and any character
# but the framing's tab and newline.
FIELD_PAD = st.text(st.sampled_from(" \r"), max_size=2)
FIELD_JUNK = st.text((st.sampled_from('"[]{},:5e.-') | STRING_CHAR).filter(
    lambda ch: ch not in "\t\n"), min_size=1, max_size=3)
FIELD_EDIT = st.sampled_from(("none", "truncate", "second", "junk"))
# Pieces of path and planner text: the markers, near misses that glue
# into markers ("-" ">", "<SEP" ">"), quotes, words of the path language,
# whitespace and any character.
OPERAND_PIECE = st.sampled_from((
    "<PATH>", "</PATH>", "<SEP>", "→", "->", "-", ">", "<", "<SEP", "SEP>", "</PATH",
    "PATH>", '"', " ", "\t", "\n", "a", "Sys10", "x y", "is_malware_type", "uses",
    "filter", "select", "exec_common")) | st.characters()
# Operands with canonical whitespace, as parsing leaves them.
OPERAND = st.lists(OPERAND_PIECE, min_size=1, max_size=4).map(
    lambda pieces: " ".join("".join(pieces).split())).filter(bool)
# Planner text adds entity blocks and whole path blocks.
PLAN_PIECE = OPERAND_PIECE | st.sampled_from((
    "<ENTITY>", "</ENTITY>", "<PATH> is_malware_type </PATH>",
    "<PATH> uses_attack_pattern <SEP> filter a </PATH>", '<ENTITY> "Agent Tesla" Sys10 </ENTITY>'))
PLAN_TEXT = st.lists(PLAN_PIECE, max_size=16).map("".join)
# Operands whose case variants casefold alike (ß and SS; Σ, σ and ς; ﬁ and
# FI) or apart (ı and I), and the ways to vary their case.
CASE_WORD = st.sampled_from(("Sys10", "a b", "straße", "STRASSE", "İ", "ı", "i",
                             "ΣΟΦΟΣ", "σοφος", "σοφοσ", "ﬁle", "\u212a"))
RECASE = st.sampled_from((lambda text: text, str.lower, str.upper, str.title,
                          str.swapcase, str.casefold))
# Name words: case variants that casefold alike, letters whose casefold
# expands (ß to "ss", ﬁ to "fi", İ to "i" and a combining dot), words of
# punctuation only, and words with punctuation inside or at the end ("U.S."
# heads a name only with its final dot).  Names of one word and of eleven or
# more share first words.
LINK_WORD = st.sampled_from(("Agent", "AGENT", "Tesla", "straße", "STRASSE", "ﬁle", "FILE",
                             "İ", "i\u0307", "ı", "Bear", "...", "—", "U.S.", "O'Neil", "x"))
LINK_SPACE = st.sampled_from((" ", "  ", "\t", "\n", "\u2003", "\x1c", "\x85", "\u3000"))
LINK_NAME = (st.integers(1, 3) | st.integers(11, 12)).flatmap(
    lambda n: st.lists(st.tuples(LINK_SPACE, LINK_WORD), min_size=n, max_size=n)).map(
    lambda pairs: "".join(space + word for space, word in pairs)[1:])
LINK_NAMES = st.lists(LINK_NAME, min_size=1, max_size=2)
EDGE = st.sampled_from(("", "", "?", ",", ".", '"', "(", ")", "“", "”", "‘", "’", "!?", "'s"))
GLUE = LINK_SPACE | st.just("")


@st.composite
def typed_graphs(draw) -> KnowledgeGraph:
    nodes = []
    for kind in EntityKind:
        for suffix in draw(SUFFIXES):
            nodes.append(Node(id=f"{kind.value}--{suffix:02d}", kind=kind, name=draw(NAME),
                              aliases=tuple(draw(ALIASES)), tags=tuple(draw(TAG_SETS))))
    extent = {kind: [n.id for n in nodes if n.kind is kind] for kind in EntityKind}
    # Each pair a signature allows is an edge with the drawn density.  The
    # pairs come from a seeded generator: one draw per pair is too slow.
    density = draw(st.sampled_from((0.2, 0.4, 0.6)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    edges = []
    for sig in FORWARD:
        for src in extent[sig.source_kind]:
            for dst in extent[sig.target_kind]:
                if rng.random() < density:
                    edges.append((src, sig.name, dst))
    return KnowledgeGraph(nodes, edges, registry=REGISTRY)


def _draw_program(data, graph: KnowledgeGraph):
    """A valid program and its start ids (None for a type-seeded program).

    Shape: a type seed or start ids, a few relation and filter steps, and
    optionally a select followed by more steps and a combiner.
    """
    kind = data.draw(KINDS)
    steps: list = []
    start = None
    if data.draw(st.booleans()):
        start = tuple(data.draw(st.lists(st.sampled_from(graph.nodes_of_kind(kind)),
                                         min_size=1, max_size=3, unique=True)))
    else:
        steps.append(TypeSeed(kind))

    def walk(count: int) -> None:
        nonlocal kind
        for _ in range(count):
            if data.draw(st.integers(0, 3)) == 0:
                steps.append(Filter(data.draw(KEYWORD)))
            else:
                rel = data.draw(st.sampled_from(relations_from(REGISTRY, kind)))
                steps.append(Traverse(rel))
                kind = REGISTRY.signature_of(kind, rel).target_kind

    walk(data.draw(WALK))
    if data.draw(st.booleans()):
        # Names of the current kind mostly resolve; the pool's may not.
        # Distinct names make distinct branches.
        known = [graph.node(nid).name for nid in graph.nodes_of_kind(kind)]
        pool = st.sampled_from(known).map(str.upper) | st.sampled_from(known + list(NAMES))
        names = data.draw(st.lists(pool, min_size=2, max_size=3,
                                   unique_by=lambda name: " ".join(name.casefold().split())))
        steps.append(Select(tuple(names)))
        walk(data.draw(WALK_AFTER_SELECT))
        combiner = data.draw(COMBINER)
        if combiner is not None:
            steps.append(combiner())
    if not steps:
        walk(1)
    return PathProgram(tuple(steps)), start


def _sorted_ids(graph: KnowledgeGraph, ids) -> list[str]:
    return sorted(set(ids), key=lambda nid: graph.node(nid).sort_key)


@given(graph=typed_graphs())
def test_graph_derives_exactly_the_reverse_of_each_forward_edge(graph):
    forward = [edge for edge in graph.all_edges() if edge[1] in REGISTRY.forward_names]
    both = {*forward, *((dst, REGISTRY.forward(graph.node(src).kind, rel).inverse_name, src)
                        for src, rel, dst in forward)}
    assert set(graph.all_edges()) == both
    assert graph.edge_count == len(both) == 2 * len(forward)
    # The same store as a graph handed both directions, unchecked.
    assert graph._adjacency == KnowledgeGraph(graph.nodes_by_rank, both)._adjacency


@given(graph=typed_graphs(), data=st.data())
def test_execute_matches_bruteforce(graph, data):
    program, start = _draw_program(data, graph)
    start_kind = graph.node(start[0]).kind if start else None
    typed = validate_program(program, REGISTRY, start_kind=start_kind)
    nodes, edges = tables_from_graph(graph)
    walked: list[set] = []
    try:
        expected = brute_execute(nodes, edges, steps_from_program(typed.program),
                                 start_ids=set(start or ()), walked=walked)
    except ValueError:
        with pytest.raises(SelectNameUnresolved):
            execute(graph, typed, start=start)
        return
    result = execute(graph, typed, start=start)
    assert [n.id for n in result.answers] == _sorted_ids(graph, expected)
    traversed = [rec.edges for rec in result.trace if isinstance(rec.step, Traverse)]
    assert traversed == [tuple(sorted(w)) for w in walked]
    assert all(rec.edges == () for rec in result.trace
               if not isinstance(rec.step, Traverse))


@given(graph=typed_graphs(), data=st.data())
def test_successors_and_sort_ids_match_bruteforce(graph, data):
    # Mostly ids of one kind, and a relation that applies to that kind.
    kind = data.draw(KINDS)
    all_ids = [nid for k in EntityKind for nid in graph.nodes_of_kind(k)]
    ids = data.draw(st.lists(st.sampled_from(graph.nodes_of_kind(kind))
                             | st.sampled_from(all_ids), max_size=6))
    rel = data.draw(st.sampled_from(relations_from(REGISTRY, kind)) | st.sampled_from(RELATIONS))
    expected = {dst for (src, r, dst) in graph.all_edges() if r == rel and src in ids}
    assert successors(graph, ids, rel) == tuple(_sorted_ids(graph, expected))
    assert graph.sort_ids(ids) == tuple(_sorted_ids(graph, ids))
    # The node table and the kind runs against a scan of the nodes, given in
    # any order and with some kinds left out, so that some kinds have none.
    dropped = data.draw(st.sets(KINDS, max_size=3))
    nodes = data.draw(st.permutations([n for n in graph.nodes_by_rank if n.kind not in dropped]))
    part = KnowledgeGraph(nodes, ())
    ranked = sorted(nodes, key=lambda n: (n.kind.value, n.name.casefold(), n.id))
    assert part.node_count == len(nodes)
    for kind in EntityKind:
        assert part.kind_ranks(kind) == tuple(i for i, n in enumerate(ranked) if n.kind is kind)
        assert part.nodes_of_kind(kind) == tuple(n.id for n in ranked if n.kind is kind)
    for node in graph.nodes_by_rank:
        assert part.has_node(node.id) is (node.kind not in dropped)
        if node.kind not in dropped:
            assert part.node(node.id) == node
    assert not part.has_node("malware--gone")


@given(a=TOKEN_LISTS, b=TOKEN_LISTS)
def test_bit_parallel_lcs_matches_dynamic_program(a, b):
    assert _lcs_length(a, b) == lcs_length(a, b)


@given(a=TOKEN_LISTS, b=TOKEN_LISTS)
def test_bleu_matches_sliced_ngram_count(a, b):
    assert bleu(" ".join(a), " ".join(b)) == brute_bleu(a, b)


@example(a="", b="a")
@example(a="a b c", b="c a")
@example(a="A, b", b="")
@example(a="a  A\ta.", b="(a)-A")
@example(a="Uses_Malware, uses_malware; uses-malware", b="USES_MALWARE uses malware")
@given(a=TEXTS, b=TEXTS)
def test_text_metrics_match_oracles_on_strings(a, b):
    cand, ref = brute_tokenize(a), brute_tokenize(b)
    assert rouge_l(a, b) == brute_rouge_l(cand, ref)
    assert rouge_1(a, b) == brute_rouge_1(cand, ref)
    assert bleu(a, b) == brute_bleu(cand, ref)


@example(pair=("uses_malware A b, c", "USES_malware a b c"))
@example(pair=("a b c d", "a b"))
@example(pair=("a b c d", "c d"))
@example(pair=("a a", "a a a"))
@example(pair=("a b a", "a a"))
@example(pair=("b c d e", "a c d e"))
@example(pair=("a b c d", "a b c e"))
@example(pair=(", .", "a b"))
@example(pair=("", ""))
@given(pair=NEAR_COPIES)
def test_text_metrics_match_oracles_on_near_copies(pair):
    # Near copies share a long prefix or suffix, or both; the pairs above
    # share none most of the time.
    for a, b in (pair, pair[::-1]):
        cand, ref = brute_tokenize(a), brute_tokenize(b)
        assert rouge_l(a, b) == brute_rouge_l(cand, ref)
        assert rouge_1(a, b) == brute_rouge_1(cand, ref)
        assert bleu(a, b) == brute_bleu(cand, ref)


# Markers glued to other words are not whole words: these give no tag.
@example(fields=["united statesouth korea"])
@example(fields=["pakistanindia"])
@example(fields=["Pakistaniindia"])
@example(fields=["A crew from the north", "Korea Team"])
@given(fields=st.lists(COUNTRY_TEXT, max_size=3))
def test_country_tags_match_marker_scan(fields):
    assert _country_tags(*fields) == set(country_tags(*fields))


# A malware node holding the id of the technique's Windows asset.
@example(bundle=[{"type": "malware", "id": "asset--windows", "name": "M"},
                 {"type": "attack-pattern", "id": "x--1", "name": "T",
                  "x_mitre_platforms": ["windows"]}])
@given(bundle=STIX_BUNDLE)
def test_ingest_builds_only_typed_edges_with_reverses(bundle):
    objects = parse_stix_bundle(json.dumps(bundle))
    for lenient, refusals in ((True, MalformedBundle),
                              (False, (MalformedBundle, UnknownSignature))):
        try:
            graph = build_graph(objects, REGISTRY, lenient=lenient)
        except refusals:
            continue
        assert bad_edges(graph, REGISTRY) == []
        # Every node can be named, and every asset has a slug.
        assert all(fold(node.name) for node in graph.nodes_by_rank)
        assert not graph.has_node("asset--")


@given(data=st.data())
def test_snapshot_loads_in_any_order_with_repeated_edges(data):
    repeated = data.draw(st.lists(st.sampled_from(EDGE_LINES), max_size=10))
    blank = data.draw(st.lists(st.sampled_from(("", " ", "\t ")), max_size=3))
    records = data.draw(st.permutations(RECORDS + repeated + blank))
    text = "\n".join([HEADER, *records]) + "\n"
    graph = KnowledgeGraph.load_snapshot(text)
    assert graph.export_snapshot() == SNAPSHOT
    assert graph.edge_count == 2 * len(EDGE_LINES)  # each forward edge and its reverse


@given(data=st.data())
def test_mutated_snapshot_loads_or_raises_titan_error(data):
    lines = SNAPSHOT.splitlines()
    where = st.integers(0, len(lines) - 1)
    mutation = data.draw(st.sampled_from(("drop", "duplicate", "swap", "tab", "char")))
    if mutation == "drop":
        del lines[data.draw(where)]
    elif mutation == "duplicate":
        i = data.draw(where)
        lines.insert(data.draw(where), lines[i])
    elif mutation == "swap":
        i, j = data.draw(where), data.draw(where)
        lines[i], lines[j] = lines[j], lines[i]
    text = "\n".join(lines) + "\n"
    if mutation in ("tab", "char"):
        positions = ([i for i, ch in enumerate(text) if ch == "\t"] if mutation == "tab"
                     else range(len(text)))
        i = data.draw(st.sampled_from(positions))
        text = text[:i] + data.draw(CHAR) + text[i + 1:]
    try:
        graph = KnowledgeGraph.load_snapshot(text)
    except TitanError:
        return
    assert not bad_edges(graph, REGISTRY)


def _loads_repr(decode, text):
    """``repr`` of what ``decode`` returns (NaN compares as text), or
    ``ValueError`` if it raises one."""
    try:
        return repr(decode(text))
    except ValueError:
        return ValueError


@st.composite
def field_texts(draw):
    """A dumped JSON value, with or without ``ensure_ascii``, padded on both
    sides, and maybe cut short, followed by a second value or by junk."""
    text = json.dumps(draw(JSON_VALUE), ensure_ascii=draw(st.booleans()))
    edit = draw(FIELD_EDIT)
    if edit == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif edit == "second":
        text += draw(FIELD_PAD) + json.dumps(draw(JSON_VALUE))
    text = draw(FIELD_PAD) + text + draw(FIELD_PAD)
    return text + draw(FIELD_JUNK) if edit == "junk" else text


@example(text='"a" "b"')
@example(text=' \r["\u2028\x85", NaN]\r ')
@example(text='"\\"')
@example(text="\r")
@given(text=field_texts())
def test_field_decoder_matches_json_loads(text):
    assert "\t" not in text and "\n" not in text
    assert _loads_repr(_decode_field, text) == _loads_repr(json.loads, text)


FRAMING = ("<PATH>", "</PATH>", "<SEP>", "→", "->")


def _refuses(make, operands: tuple[str, ...], markers: tuple[str, ...]) -> bool:
    """Whether building a step refuses its operands; it must exactly when
    one of them holds one of ``markers``."""
    try:
        make()
    except MalformedOperator:
        refused = True
    else:
        refused = False
    assert refused == any(m in operand for operand in operands for m in markers), operands
    return refused


def _draw_buildable_program(data) -> PathProgram:
    """Any structurally valid program of accepted operands: a seed or not,
    relations and filters, optionally a select, more steps and a combiner."""
    def walk() -> list:
        steps: list = []
        for _ in range(data.draw(WALK)):
            if data.draw(st.booleans()):
                steps.append(Traverse(data.draw(st.sampled_from(RELATIONS))))
                continue
            keyword = data.draw(OPERAND)
            if not _refuses(lambda: Filter(keyword), (keyword,), FRAMING):
                steps.append(Filter(keyword))
        return steps

    steps = [TypeSeed(data.draw(KINDS))] if data.draw(st.booleans()) else []
    steps += walk()
    names = tuple(data.draw(st.lists(OPERAND, min_size=2, max_size=3)))
    if not _refuses(lambda: Select(names), names, ('"', *FRAMING)) and data.draw(st.booleans()):
        steps += [Select(names), *walk()]
        combiner = data.draw(COMBINER)
        if combiner is not None:
            steps.append(combiner())
    return PathProgram(tuple(steps or [TypeSeed(data.draw(KINDS))]))


@given(data=st.data(), form=st.sampled_from(("token", "display")))
def test_render_then_parse_is_identity(data, form):
    program = _draw_buildable_program(data)
    assert parse_path(render_path(program, form), REGISTRY) == program


@example(text='<ENTITY> "abc </ENTITY><PATH> is_malware_type </PATH>')
@example(text='<ENTITY> "" </ENTITY><PATH> is_malware_type </PATH>')
@given(text=PLAN_TEXT)
def test_planner_output_parses_or_raises_unparseable_plan(text):
    try:
        _, program, entities = parse_planner_output(text, REGISTRY)
    except UnparseablePlan as exc:
        assert exc.raw_text == text
        return
    assert isinstance(program, PathProgram)
    assert all(isinstance(name, str) and name for name in entities)


def _draw_cased_program(data) -> PathProgram:
    """A program whose filter keywords and select names are case-variant words."""
    steps = [TypeSeed(data.draw(KINDS))] if data.draw(st.booleans()) else []
    for _ in range(data.draw(WALK)):
        steps.append(Traverse(data.draw(st.sampled_from(RELATIONS))) if data.draw(st.booleans())
                     else Filter(data.draw(CASE_WORD)))
    if data.draw(st.booleans()):
        steps.append(Select(tuple(data.draw(st.lists(CASE_WORD, min_size=2, max_size=3)))))
        combiner = data.draw(COMBINER)
        if combiner is not None:
            steps.append(combiner())
    return PathProgram(tuple(steps or [TypeSeed(data.draw(KINDS))]))


def _recased(data, program: PathProgram) -> PathProgram:
    """``program`` with the case of each filter keyword and select name varied."""
    def recase(text: str) -> str:
        return data.draw(RECASE)(text)
    return PathProgram(tuple(
        Filter(recase(step.keyword)) if isinstance(step, Filter)
        else Select(tuple(map(recase, step.names))) if isinstance(step, Select)
        else step for step in program.steps))


@given(data=st.data())
def test_exact_match_agrees_with_folded_key(data):
    pred = _draw_cased_program(data)
    ref = _recased(data, pred if data.draw(st.booleans()) else _draw_cased_program(data))
    assert exact_match(pred, ref) == int(canonical_key(pred) == canonical_key(ref))


@st.composite
def naming_graphs(draw) -> KnowledgeGraph:
    """Malware nodes, each with a drawn name and up to one alias."""
    return KnowledgeGraph([Node(f"malware--{i}", names[0], EntityKind.MALWARE, tuple(names[1:]))
                           for i, names in enumerate(draw(st.lists(LINK_NAMES, max_size=4)))],
                          ())


@given(graph=naming_graphs(), data=st.data())
def test_link_entities_matches_span_scan(graph, data):
    names = [name for node in graph.nodes_by_rank for name in (node.name, *node.aliases)]
    piece = LINK_WORD | LINK_SPACE
    if names:
        piece |= st.tuples(st.sampled_from(names), RECASE).map(lambda pair: pair[1](pair[0]))
    question = "".join(before + text + after + glue for before, text, after, glue in data.draw(
        st.lists(st.tuples(EDGE, piece, EDGE, GLUE), max_size=8)))
    assert ([(m.text, m.start, m.end) for m in link_entities(question, graph)]
            == brute_link_entities(question, names))


# Filter text: words whose case, casefold expansion (ß → ss, İ → i + U+0307,
# ﬁ → fi) and whitespace (runs of spaces, a tab, a newline, NBSP, U+2028,
# U+001C) differ between node and keyword.  A keyword of one word takes the
# filter's casefold-only path, one of several words the full fold.
FILTER_WORD = st.sampled_from(("ab", "AB", "Ab", "b", "ss", "Straße", "STRASSE", "x",
                               "İ", "i", "ﬁ", "fi", "Fİ"))
FILTER_SPACE = st.sampled_from((" ", "  ", "\t", "\xa0", " \xa0 ", "\u2028", "\n", "\x1c",
                                "\t\n"))
FILTER_TEXT = st.lists(st.tuples(FILTER_SPACE | st.just(""), FILTER_WORD), max_size=4).map(
    lambda parts: "".join(space + word for space, word in parts))


@given(fields=st.lists(st.tuples(FILTER_TEXT, st.lists(FILTER_TEXT, max_size=2),
                                 st.lists(FILTER_TEXT, max_size=2), FILTER_TEXT),
                       min_size=1, max_size=4),
       keyword=st.tuples(FILTER_TEXT, FILTER_SPACE, FILTER_TEXT).map("".join) | FILTER_TEXT)
def test_filter_agrees_with_the_fold_rule(fields, keyword):
    graph = KnowledgeGraph([Node(f"malware--{i}", f"N{i}" + name, EntityKind.MALWARE,
                                 tuple(aliases), description, tuple(tags))
                            for i, (name, aliases, tags, description) in enumerate(fields)], ())
    nodes, edges = tables_from_graph(graph)
    expected = brute_execute(nodes, edges, [("seed", "malware"), ("filter", keyword)])
    (kept,) = step_filter(graph, (graph.kind_ranks(EntityKind.MALWARE),), keyword)
    assert set(graph.ids(kept)) == expected
