import pytest

from titan_kg.errors import NoSuchSignature, UnknownRelation
from titan_kg.ontology import EntityKind, RelationRegistry, build_default_registry
from titan_kg.pathlang import Traverse, TypeSeed, parse_path

from bruteforce import ALIASES, alias_normalize, alias_resolvable_from_some_kind


def test_exactly_nine_kinds():
    assert len(EntityKind) == 9
    assert {k.value for k in EntityKind} == {
        "attack-pattern", "course-of-action", "malware", "tool", "campaign",
        "intrusion-set", "data-component", "data-source", "asset",
    }


def test_seed_relation_round_trip():
    for kind in EntityKind:
        assert parse_path(TypeSeed(kind).token).steps == (TypeSeed(kind),)
    assert TypeSeed(EntityKind.INTRUSION_SET).token == "is_intrusion_set_type"
    with pytest.raises(UnknownRelation):
        parse_path("is_wizard_type")
    assert parse_path("uses_malware").steps == (Traverse("uses_malware"),)


def test_uses_attack_pattern_from_malware(registry):
    sig = registry.signature_of(EntityKind.MALWARE, "uses_attack_pattern")
    assert sig.target_kind is EntityKind.ATTACK_PATTERN
    assert sig.inverse_name == "used_by_malware"


def test_inverse_closure_example(registry):
    sig = registry.signature_of(EntityKind.ATTACK_PATTERN, "used_by_malware")
    assert sig.target_kind is EntityKind.MALWARE
    assert sig.inverse_name == "uses_attack_pattern"


def test_inverse_is_keyed_by_source_kind(registry):
    from_malware = registry.signature_of(EntityKind.MALWARE, "used_by_intrusion_set")
    from_technique = registry.signature_of(EntityKind.ATTACK_PATTERN, "used_by_intrusion_set")
    assert from_malware.inverse_name == "uses_malware"
    assert from_technique.inverse_name == "uses_attack_pattern"


@pytest.mark.parametrize("include_subtechniques", [True, False])
def test_involution_holds_for_all_signatures(include_subtechniques):
    registry = build_default_registry(include_subtechniques)
    for sig in registry.signatures:
        rev = registry.signature_of(sig.target_kind, sig.inverse_name)
        assert rev.target_kind is sig.source_kind
        assert rev.inverse_name == sig.name
        again = registry.signature_of(rev.target_kind, rev.inverse_name)
        assert again == sig


@pytest.mark.parametrize("include_subtechniques", [True, False])
def test_typedness_every_name_ends_with_target_slug(include_subtechniques):
    registry = build_default_registry(include_subtechniques)
    for sig in registry.signatures:
        assert sig.name.endswith("_" + sig.target_kind.slug), sig


def _cuts(name: str) -> list[str]:
    """``name`` cut at each underscore: the part before it and the part after."""
    return [part for i, ch in enumerate(name) if ch == "_" for part in (name[:i], name[i + 1:])]


@pytest.mark.parametrize("include_subtechniques", [True, False])
def test_signature_for_verb_finds_exactly_the_signatures_that_exist(include_subtechniques):
    registry = build_default_registry(include_subtechniques)
    verbs = {sig.name[:-len(sig.target_kind.slug) - 1] for sig in registry.signatures}
    found = set()
    for source in EntityKind:
        for verb in verbs:
            for target in EntityKind:
                sig = registry.signature_for_verb(source, verb, target)
                expected = [s for s in registry.signatures
                            if (s.source_kind, s.name, s.target_kind)
                            == (source, f"{verb}_{target.slug}", target)]
                assert ([] if sig is None else [sig]) == expected, (source, verb, target)
                found.add(sig)
    assert found - {None} == set(registry.signatures)


def test_alias_soundness(registry):
    canonical_names = {sig.name for sig in registry.signatures}
    for verb, target in ALIASES.items():
        assert registry.normalize(verb) == target
        assert target in canonical_names
        assert verb not in canonical_names
    resolved = {}
    for token in {cut for name in canonical_names for cut in _cuts(name)}:
        try:
            resolved[token] = registry.normalize(token)
        except UnknownRelation:
            pass
    assert resolved == ALIASES


def test_normalize_context_free_aliases(registry):
    assert registry.normalize("mitigated_by") == "mitigated_by_course_of_action"
    assert registry.normalize("targets") == "targets_asset"
    assert registry.normalize("attributed_to") == "attributed_to_intrusion_set"


def test_normalize_identity_on_canonical(registry):
    assert registry.normalize("uses_attack_pattern") == "uses_attack_pattern"


def test_normalize_rejects_unknown(registry):
    with pytest.raises(UnknownRelation):
        registry.normalize("uzes_attack_pattern")


def test_normalize_bare_verb_with_kind_context(registry):
    assert registry.normalize("uses", EntityKind.MALWARE) == "uses_attack_pattern"
    # Ambiguous from an intrusion set: uses_{attack_pattern,malware,tool}.
    with pytest.raises(UnknownRelation):
        registry.normalize("uses", EntityKind.INTRUSION_SET)


def test_signature_of_kind_mismatch(registry):
    with pytest.raises(NoSuchSignature):
        registry.signature_of(EntityKind.COURSE_OF_ACTION, "uses_attack_pattern")


def test_signature_of_campaign_attribution(registry):
    sig = registry.signature_of(EntityKind.CAMPAIGN, "attributed_to_intrusion_set")
    assert sig.target_kind is EntityKind.INTRUSION_SET


def test_provided_by_data_source_via_brute_inversion(registry):
    # Independent check: recompute the inversion map by scanning the whole
    # signature list, then compare against the registry's answer.
    brute = {}
    for sig in registry.signatures:
        for other in registry.signatures:
            if (other.source_kind is sig.target_kind and other.name == sig.inverse_name
                    and other.target_kind is sig.source_kind):
                brute[(sig.source_kind, sig.name)] = other
    key = (EntityKind.DATA_COMPONENT, "provided_by_data_source")
    assert brute[key].name == "provides_data_component"
    sig = registry.signature_of(*key)
    assert sig.target_kind is EntityKind.DATA_SOURCE
    assert brute[key].name == sig.inverse_name


def test_minimum_relation_coverage(registry):
    required = {
        (EntityKind.MALWARE, "uses_attack_pattern"),
        (EntityKind.TOOL, "uses_attack_pattern"),
        (EntityKind.INTRUSION_SET, "uses_attack_pattern"),
        (EntityKind.CAMPAIGN, "uses_attack_pattern"),
        (EntityKind.INTRUSION_SET, "uses_malware"),
        (EntityKind.CAMPAIGN, "uses_malware"),
        (EntityKind.INTRUSION_SET, "uses_tool"),
        (EntityKind.CAMPAIGN, "uses_tool"),
        (EntityKind.ATTACK_PATTERN, "mitigated_by_course_of_action"),
        (EntityKind.ATTACK_PATTERN, "detected_by_data_component"),
        (EntityKind.DATA_COMPONENT, "provided_by_data_source"),
        (EntityKind.CAMPAIGN, "attributed_to_intrusion_set"),
        (EntityKind.ATTACK_PATTERN, "targets_asset"),
        (EntityKind.ATTACK_PATTERN, "subtechnique_of_attack_pattern"),
    }
    have = {(s.source_kind, s.name) for s in registry.signatures}
    assert required <= have


def test_subtechniques_can_be_disabled():
    trimmed = build_default_registry(include_subtechniques=False)
    with pytest.raises(NoSuchSignature):
        trimmed.signature_of(EntityKind.ATTACK_PATTERN, "subtechnique_of_attack_pattern")
    with pytest.raises(UnknownRelation):
        trimmed.normalize("subtechnique_of")


def test_no_two_signatures_share_source_and_name():
    # Twice the forward signatures (14, or 13 without subtechniques): a
    # forward entry whose key repeated another's would leave fewer.
    for include_subtechniques, count in ((True, 28), (False, 26)):
        keys = [(s.source_kind, s.name)
                for s in build_default_registry(include_subtechniques).signatures]
        assert len(keys) == len(set(keys)) == count


def test_registry_stores_each_forward_signature_with_its_reverse():
    registry = RelationRegistry([(EntityKind.MALWARE, "uses_attack_pattern",
                                  EntityKind.ATTACK_PATTERN, "used_by_malware")])
    assert registry.to_table() == (
        "attack-pattern\tused_by_malware\tmalware\tuses_attack_pattern\n"
        "malware\tuses_attack_pattern\tattack-pattern\tused_by_malware\n")


JUNK = ("", "_", "__", "uses_", "_malware", "Uses", "USES", "uses ", " uses", "used by",
        "uzes", "mitigated", "mitigated_by_", "attack_pattern", "is_malware_type",
        "filter", "select", "exec_common", "uses_attack_pattern_x", "x_uses_malware",
        "→", "uses→malware", "subtechnique", "has", "by", "\u0131s")


def _outcome(call):
    """What a call returns, or the class and message of what it raises."""
    try:
        return call()
    except UnknownRelation as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("include_subtechniques", [True, False])
def test_normalize_matches_alias_table_oracle(include_subtechniques):
    registry = build_default_registry(include_subtechniques)
    names = sorted({sig.name for sig in registry.signatures})
    tokens = sorted({*names, *(cut for name in names for cut in _cuts(name)), *JUNK})
    for token in tokens:
        for kind in (None, *EntityKind):
            assert _outcome(lambda: registry.normalize(token, kind)) == _outcome(
                lambda: alias_normalize(registry, token, kind)), (token, kind)
        assert registry.resolvable_from_some_kind(token) == \
            alias_resolvable_from_some_kind(registry, token), token
