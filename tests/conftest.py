from __future__ import annotations

import gc
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from hypothesis import settings

from titan_kg.datagen import load_templates
from titan_kg.kg import build_graph, parse_stix_bundle
from titan_kg.ontology import build_default_registry

from scalegen import build_scale_bundle

FIXTURE_BUNDLE = Path(__file__).parent / "fixtures" / "fixture_bundle.json"

# Edges that only the registry lookup can refuse: a data component whose
# source ref names a malware node, and a malware node whose id is the one a
# technique's Windows platform asset would take.  (source id, bundle)
MISTYPED_TARGETS = {
    "containment": ("x-mitre-data-component--c", [
        {"type": "malware", "id": "malware--m", "name": "M"},
        {"type": "x-mitre-data-component", "id": "x-mitre-data-component--c", "name": "C",
         "x_mitre_data_source_ref": "malware--m"}]),
    "platform asset": ("attack-pattern--t", [
        {"type": "malware", "id": "asset--windows", "name": "M"},
        {"type": "attack-pattern", "id": "attack-pattern--t", "name": "T",
         "x_mitre_platforms": ["Windows"]}]),
}

# Property tests draw the same examples on every run, keep no example
# database, and set no per-example deadline, so the suite stays reproducible
# on a loaded machine.
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail a test that leaves the cyclic garbage collector disabled, as a
    ``titan`` command that did not restore it would; the next test then
    starts with it enabled."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")


@pytest.fixture(scope="session")
def registry():
    return build_default_registry()


@pytest.fixture(scope="session")
def fixture_objects():
    return parse_stix_bundle(FIXTURE_BUNDLE.read_text("utf-8"))


@pytest.fixture(scope="session")
def fixture_graph(fixture_objects, registry):
    return build_graph(fixture_objects, registry)


@pytest.fixture(scope="session")
def scale_graph(registry):
    return build_graph(parse_stix_bundle(build_scale_bundle()), registry)


@pytest.fixture(scope="session")
def core_templates(registry):
    from titan_kg.datagen import default_template_text
    return load_templates(default_template_text(), registry)


class _StubHandler(BaseHTTPRequestHandler):
    """A chat-completion endpoint that answers each POST with the next of
    its ``replies`` (status, JSON payload) and records each request body."""

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


def chat_reply(text):
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}
