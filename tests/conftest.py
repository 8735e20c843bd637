from __future__ import annotations

import gc
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
