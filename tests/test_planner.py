import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, strategies as st

from titan_kg import planner as planner_module
from titan_kg.datagen import DatasetConfig, Sample, generate_dataset
from titan_kg.errors import PathSyntaxError, PlannerUnavailable, UnparseablePlan
from titan_kg.kg import fold
from titan_kg.pathlang import parse_path, render_path
from titan_kg.planner import (
    EndpointConfig,
    MockPlanner,
    PlannerRequest,
    PlannerResponse,
    RemotePlanner,
    parse_planner_output,
    render_system_prompt,
)


# --- parse_planner_output ----------------------------------------------------

def test_parse_cot_then_path():
    raw = ("Step 1: Follow the uses_attack_pattern relation. "
           "<PATH> uses_attack_pattern <SEP> mitigated_by_course_of_action </PATH>")
    cot, program, entities = parse_planner_output(raw)
    assert cot.startswith("Step 1:")
    assert len(program.steps) == 2
    assert entities == ()


def test_parse_first_well_formed_block_wins():
    raw = ("<PATH> uses_attack_pattern </PATH> ignored "
           "<PATH> uses_malware </PATH>")
    _, program, _ = parse_planner_output(raw)
    assert render_path(program, "token") == "<PATH> uses_attack_pattern </PATH>"


def test_parse_skips_malformed_first_block():
    raw = "<PATH> zzz_not_a_relation </PATH> then <PATH> uses_malware </PATH>"
    _, program, _ = parse_planner_output(raw)
    assert render_path(program, "token") == "<PATH> uses_malware </PATH>"


def test_parse_no_block_raises():
    with pytest.raises(UnparseablePlan) as err:
        parse_planner_output("no path here at all")
    assert err.value.raw_text == "no path here at all"


def test_parse_unterminated_block_raises():
    with pytest.raises(UnparseablePlan):
        parse_planner_output("<PATH> uses_attack_pattern <SEP> ...")


@pytest.mark.parametrize("raw", [
    '<ENTITY> "abc </ENTITY><PATH> is_malware_type </PATH>',
    '<ENTITY> "" </ENTITY><PATH> is_malware_type </PATH>',
    '<ENTITY> "Agent Tesla"x </ENTITY><PATH> is_malware_type </PATH>',
])
def test_parse_malformed_entity_block_raises_unparseable_plan(raw):
    with pytest.raises(UnparseablePlan) as err:
        parse_planner_output(raw)
    assert err.value.raw_text == raw


def test_parse_entity_block():
    raw = ('I will start from the malware. <ENTITY> "Agent Tesla" Emotet </ENTITY> '
           "<PATH> uses_attack_pattern </PATH>")
    cot, program, entities = parse_planner_output(raw)
    assert entities == ("Agent Tesla", "Emotet")
    assert "<ENTITY>" not in cot


# --- mock planner ------------------------------------------------------------

@pytest.fixture(scope="module")
def small_dataset(request):
    fixture_graph = request.getfixturevalue("fixture_graph")
    registry = request.getfixturevalue("registry")
    core_templates = request.getfixturevalue("core_templates")
    split, _ = generate_dataset(core_templates, fixture_graph,
                                DatasetConfig(rng_seed=5, max_per_template=10**9,
                                              test_fraction=0.25), registry)
    return split


def test_mock_returns_exact_path_for_known_question(small_dataset, registry):
    planner = MockPlanner(small_dataset.train, registry)
    sample = small_dataset.train[0]
    response = planner.plan(PlannerRequest(question=sample.question))
    assert response.guessed is False
    assert render_path(response.path, "token") == sample.path
    assert response.cot == sample.cot
    assert response.start_entities == sample.start_entities


def test_mock_nocot_mode_omits_cot_and_entities(small_dataset, registry):
    planner = MockPlanner(small_dataset.train, registry)
    sample = small_dataset.train[0]
    response = planner.plan(PlannerRequest(question=sample.question, mode="nocot"))
    assert response.cot is None
    assert response.start_entities == ()
    assert render_path(response.path, "token") == sample.path


def test_mock_nearest_question_by_token_overlap(small_dataset, registry):
    planner = MockPlanner(small_dataset.train, registry)
    sample = small_dataset.train[0]
    words = sample.question.split()
    words[0] = "Whatever"
    perturbed = " ".join(words)
    response = planner.plan(PlannerRequest(question=perturbed))
    assert response.guessed is True

    # Independent nearest-neighbour oracle over bags of tokens.
    def overlap(a, b):
        sa, sb = set(a.casefold().split()), set(b.casefold().split())
        return len(sa & sb) / len(sa | sb) if (sa or sb) else 0.0

    best_score = max(overlap(perturbed, s.question) for s in small_dataset.train)
    picked = [s for s in small_dataset.train
              if s.cot == response.cot
              and s.path == render_path(response.path, "token")]
    assert picked
    assert abs(overlap(perturbed, picked[0].question) - best_score) < 1e-12


def _sample(question, path):
    return Sample(question=question, cot=f"Reasoning for {question}. {path}",
                  path=path, start_entities=(), answers=(), template_id="t",
                  bucket="L1", operators=())


def test_mock_tie_goes_to_first_sorted_question(registry):
    # Both indexed questions share one token with the query (score 1/3);
    # the first in sorted normalized order wins, not the first inserted.
    planner = MockPlanner([
        _sample("Alpha Gamma", "<PATH> uses_malware </PATH>"),
        _sample("alpha   BETA", "<PATH> uses_attack_pattern </PATH>"),
    ], registry)
    response = planner.plan(PlannerRequest(question="alpha delta"))
    assert response.guessed is True
    assert render_path(response.path, "token") == "<PATH> uses_attack_pattern </PATH>"


def test_mock_no_shared_token_returns_first_sorted_question(registry):
    planner = MockPlanner([
        _sample("gamma delta", "<PATH> uses_malware </PATH>"),
        _sample("alpha beta", "<PATH> uses_attack_pattern </PATH>"),
    ], registry)
    response = planner.plan(PlannerRequest(question="zeta"))
    assert response.guessed is True
    assert render_path(response.path, "token") == "<PATH> uses_attack_pattern </PATH>"
    assert response.cot == "Reasoning for alpha beta. <PATH> uses_attack_pattern </PATH>"


def _linear_nearest(samples, question):
    """Linear Jaccard scan: the indexed sample nearest ``question`` (the
    first in sorted normalized order among equals) and whether it was a
    guess; ``(None, True)`` for an empty index."""
    index = {}
    for sample in samples:
        index.setdefault(" ".join(sample.question.casefold().split()), sample)
    key = " ".join(question.casefold().split())
    if key in index:
        return index[key], False
    query = set(key.split())
    best_score, best = -1.0, None
    for other in sorted(index):
        bag = set(other.split())
        score = len(query & bag) / len(query | bag)
        if score > best_score:
            best_score, best = score, index[other]
    return best, True


def _assert_plans_like_linear_scan(planner, samples, question):
    expected, guessed = _linear_nearest(samples, question)
    if expected is None:
        with pytest.raises(UnparseablePlan, match="^planner returned no usable path$"):
            planner.plan(PlannerRequest(question=question))
        return
    response = planner.plan(PlannerRequest(question=question))
    assert response.guessed is guessed
    assert response.cot == expected.cot, question
    assert render_path(response.path, "token") == expected.path
    assert response.start_entities == expected.start_entities


def test_mock_nearest_matches_linear_jaccard_scan(small_dataset, registry):
    planner = MockPlanner(small_dataset.train, registry)
    assert small_dataset.test
    for sample in small_dataset.test:
        _assert_plans_like_linear_scan(planner, small_dataset.train, sample.question)


def test_mock_tie_across_token_set_sizes_goes_to_first_sorted_question(registry):
    # "b c" shares 2 of 4 tokens (2/4) and "a b c d e f g h" shares 4 of
    # 8 (4/8): equal scores from different set sizes and shared counts.
    planner = MockPlanner([
        _sample("b c", "<PATH> uses_malware </PATH>"),
        _sample("a b c d e f g h", "<PATH> uses_attack_pattern </PATH>"),
    ], registry)
    response = planner.plan(PlannerRequest(question="a b c d"))
    assert response.guessed is True
    assert render_path(response.path, "token") == "<PATH> uses_attack_pattern </PATH>"


# A small vocabulary, so that questions share many tokens (shared counts of
# 8 and more), and words outside it, so that some asks share none.
_VOCAB = [f"w{i}" for i in range(14)]
_UNSEEN = ["zeta", "eta"]
_PATHS = ["<PATH> uses_malware </PATH>", "<PATH> uses_attack_pattern </PATH>",
          "<PATH> is_malware_type </PATH>"]


def _question(bits, extra=()):
    return " ".join([w for i, w in enumerate(_VOCAB) if bits >> i & 1] + list(extra))


# The corpus size is drawn first so that most corpora span several 64-bit
# words of the planner's bit masks.
_CORPORA = st.integers(0, 300).flatmap(lambda n: st.lists(
    st.integers(0, 2 ** len(_VOCAB) - 1), min_size=n, max_size=n))
_ASKS = st.lists(st.tuples(st.integers(0, 2 ** len(_VOCAB) - 1),
                           st.lists(st.sampled_from(_UNSEEN), max_size=2)),
                 min_size=1, max_size=6)


@given(corpus=_CORPORA, asks=_ASKS)
def test_mock_plan_matches_linear_jaccard_scan_property(registry, corpus, asks):
    samples = [_sample(_question(bits), _PATHS[i % len(_PATHS)])
               for i, bits in enumerate(corpus)]
    planner = MockPlanner(samples, registry)
    questions = [_question(bits, extra) for bits, extra in asks]
    questions += [s.question for s in samples[:2]]
    for question in questions:
        if question:
            _assert_plans_like_linear_scan(planner, samples, question)


def test_mock_empty_index_yields_no_path(registry):
    planner = MockPlanner([], registry)
    with pytest.raises(UnparseablePlan, match="^planner returned no usable path$"):
        planner.plan(PlannerRequest(question="anything"))


def test_mock_parses_each_stored_path_once(small_dataset, registry, monkeypatch):
    parsed = []

    def counting_parse_path(text, reg):
        parsed.append(text)
        return parse_path(text, reg)

    monkeypatch.setattr(planner_module, "parse_path", counting_parse_path)
    indexed: dict[str, Sample] = {}
    for sample in small_dataset.train:
        indexed.setdefault(fold(sample.question), sample)
    paths = {sample.path for sample in indexed.values()}
    assert len(paths) < len(indexed)  # questions share stored paths
    planner = MockPlanner(small_dataset.train, registry)
    assert parsed == []
    for sample in indexed.values():
        for mode in ("cot", "nocot"):
            response = planner.plan(PlannerRequest(question=sample.question, mode=mode))
            assert response.path == parse_path(sample.path, registry)
    assert sorted(parsed) == sorted(paths)


def test_mock_bad_stored_path_fails_only_when_planned(registry):
    planner = MockPlanner([_sample("good question", "<PATH> uses_malware </PATH>"),
                           _sample("bad question", "uses → → mitigated_by")], registry)
    assert planner.plan(PlannerRequest(question="good question")).path is not None
    for _ in range(2):
        with pytest.raises(PathSyntaxError):
            planner.plan(PlannerRequest(question="bad question"))


def test_request_validation():
    with pytest.raises(ValueError):
        PlannerRequest(question="  ")
    with pytest.raises(ValueError):
        PlannerRequest(question="q", mode="loud")


# --- remote planner ----------------------------------------------------------

class _StubHandler(BaseHTTPRequestHandler):
    replies: list = []
    requests_seen: list = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length) or b"{}")
        type(self).requests_seen.append(body)
        status, payload = (type(self).replies.pop(0)
                           if type(self).replies else (200, {}))
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    handler = _StubHandler
    handler.replies = []
    handler.requests_seen = []
    server = HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield handler, f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _chat_reply(text):
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}


def _config(base_url, retries=0):
    return EndpointConfig(base_url=base_url, model="stub-model",
                          api_key="stub-key", timeout=5.0,
                          max_retries=retries, backoff_base=0.01)


def test_remote_planner_parses_canned_reply(stub_server, registry):
    handler, base_url = stub_server
    handler.replies.append((200, _chat_reply(
        "Step 1: start from the malware. "
        "<ENTITY> Sys10 </ENTITY> "
        "<PATH> uses_attack_pattern <SEP> mitigated_by_course_of_action </PATH>")))
    planner = RemotePlanner(_config(base_url), registry)
    response = planner.plan(PlannerRequest(question="How to stop Sys10?"))
    assert response.start_entities == ("Sys10",)
    assert len(response.path.steps) == 2
    assert response.cot.startswith("Step 1")
    body = handler.requests_seen[0]
    assert body["model"] == "stub-model"
    assert body["temperature"] == 0
    assert body["messages"][0]["role"] == "system"
    assert "uses_attack_pattern" in body["messages"][0]["content"]


def test_remote_planner_missing_close_tag(stub_server, registry):
    handler, base_url = stub_server
    handler.replies.append((200, _chat_reply("<PATH> uses_attack_pattern ...")))
    planner = RemotePlanner(_config(base_url), registry)
    with pytest.raises(UnparseablePlan):
        planner.plan(PlannerRequest(question="q"))


def test_remote_planner_reply_without_choices(stub_server, registry):
    handler, base_url = stub_server
    handler.replies.append((200, {"id": "x"}))
    planner = RemotePlanner(_config(base_url), registry)
    with pytest.raises(UnparseablePlan,
                       match="^endpoint reply missing message content: 'choices'$"):
        planner.plan(PlannerRequest(question="q"))


@pytest.mark.parametrize("content, kind", [
    (None, "NoneType"),  # a refusal or a tool call
    ([{"type": "text", "text": "<PATH> uses_malware </PATH>"}], "list"),
], ids=["null", "list-of-parts"])
def test_remote_planner_reply_content_not_a_string(stub_server, registry, content, kind):
    handler, base_url = stub_server
    reply = _chat_reply(content)
    handler.replies.append((200, reply))
    planner = RemotePlanner(_config(base_url), registry)
    with pytest.raises(UnparseablePlan) as err:
        planner.plan(PlannerRequest(question="q"))
    assert str(err.value) == (f"endpoint reply missing message content: "
                              f"content is {kind}, not a string")
    assert err.value.raw_text == str(reply)


def test_remote_planner_retries_then_succeeds(stub_server, registry):
    handler, base_url = stub_server
    handler.replies.append((500, {"error": "boom"}))
    handler.replies.append((200, _chat_reply("<PATH> uses_malware </PATH>")))
    planner = RemotePlanner(_config(base_url, retries=2), registry)
    response = planner.plan(PlannerRequest(question="q"))
    assert response.path is not None
    assert len(handler.requests_seen) == 2


def test_remote_planner_does_not_retry_client_errors(stub_server, registry):
    handler, base_url = stub_server
    handler.replies.append((400, {"error": "bad request"}))
    handler.replies.append((200, _chat_reply("<PATH> uses_malware </PATH>")))
    planner = RemotePlanner(_config(base_url, retries=2), registry)
    with pytest.raises(PlannerUnavailable):
        planner.plan(PlannerRequest(question="q"))
    assert len(handler.requests_seen) == 1


def test_remote_planner_retries_rate_limit(stub_server, registry):
    handler, base_url = stub_server
    handler.replies.append((429, {"error": "slow down"}))
    handler.replies.append((200, _chat_reply("<PATH> uses_malware </PATH>")))
    planner = RemotePlanner(_config(base_url, retries=2), registry)
    assert planner.plan(PlannerRequest(question="q")).path is not None
    assert len(handler.requests_seen) == 2


def test_remote_planner_unreachable_endpoint(registry):
    planner = RemotePlanner(_config("http://127.0.0.1:9", retries=1), registry)
    with pytest.raises(PlannerUnavailable):
        planner.plan(PlannerRequest(question="q"))


def test_endpoint_config_from_env():
    env = {"TITAN_LLM_BASE_URL": "http://example.invalid/v1",
           "TITAN_LLM_MODEL": "m", "TITAN_LLM_API_KEY": "k"}
    config = EndpointConfig.from_env(env)
    assert config.base_url == "http://example.invalid/v1"
    assert config.model == "m"
    assert config.api_key == "k"
    with pytest.raises(PlannerUnavailable):
        EndpointConfig.from_env({})


def test_system_prompt_carries_relation_vocabulary(registry):
    prompt = render_system_prompt(registry)
    for sig in registry.signatures:
        assert sig.name in prompt
    assert "<PATH>" in prompt and "<SEP>" in prompt


def test_planner_response_identity_on_datagen_outputs(small_dataset, registry):
    # parse_planner_output over (cot + rendered path) recovers the pair.
    sample = small_dataset.test[0]
    raw = sample.cot  # datagen CoT already ends with the token-form path
    cot, program, _ = parse_planner_output(raw, registry)
    assert render_path(program, "token") == sample.path
    assert cot == sample.cot.split("<PATH>", 1)[0].strip()
