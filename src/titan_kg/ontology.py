"""Entity kinds and the typed, bidirectional relation vocabulary.

Every relation name carries the kind of its *target* node as a suffix
(``uses_malware`` ends at a malware node), which is what makes path
execution unambiguous, and every signature is stored together with its
reverse so traversal can move in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Mapping

from .errors import NoSuchSignature, UnknownRelation


class EntityKind(str, Enum):
    """The nine node kinds of the CTI ontology."""

    ATTACK_PATTERN = "attack-pattern"
    COURSE_OF_ACTION = "course-of-action"
    MALWARE = "malware"
    TOOL = "tool"
    CAMPAIGN = "campaign"
    INTRUSION_SET = "intrusion-set"
    DATA_COMPONENT = "data-component"
    DATA_SOURCE = "data-source"
    ASSET = "asset"

    @property
    def slug(self) -> str:
        """Token usable inside relation names (hyphens become underscores)."""
        return self.value.replace("-", "_")

    @property
    def label(self) -> str:
        """Human-readable form used in generated prose."""
        return self.value.replace("-", " ")


KIND_BY_TOKEN: dict[str, EntityKind] = {k.value: k for k in EntityKind}
KIND_BY_SLUG: dict[str, EntityKind] = {k.slug: k for k in EntityKind}


def seed_relation_name(kind: EntityKind) -> str:
    """Pseudo-relation that seeds a frontier with every node of a kind."""
    return f"is_{kind.slug}_type"


def kind_for_seed_relation(token: str) -> EntityKind | None:
    """Inverse of :func:`seed_relation_name`; None when not a seed token."""
    if not (token.startswith("is_") and token.endswith("_type")):
        return None
    return KIND_BY_SLUG.get(token[len("is_"):-len("_type")])


@dataclass(frozen=True)
class RelationSignature:
    """One typed, directed relation: ``source --name--> target``.

    ``inverse_name`` is the relation that traverses the same edges
    backwards; the registry always contains the matching reverse
    signature ``(target, inverse_name, source, name)``.
    """

    source_kind: EntityKind
    name: str
    target_kind: EntityKind
    inverse_name: str


# Forward signatures; the registry adds the reverse of each.
_FORWARD: tuple[tuple[EntityKind, str, EntityKind, str], ...] = (
    (EntityKind.MALWARE, "uses_attack_pattern", EntityKind.ATTACK_PATTERN, "used_by_malware"),
    (EntityKind.TOOL, "uses_attack_pattern", EntityKind.ATTACK_PATTERN, "used_by_tool"),
    (EntityKind.INTRUSION_SET, "uses_attack_pattern", EntityKind.ATTACK_PATTERN, "used_by_intrusion_set"),
    (EntityKind.CAMPAIGN, "uses_attack_pattern", EntityKind.ATTACK_PATTERN, "used_by_campaign"),
    (EntityKind.INTRUSION_SET, "uses_malware", EntityKind.MALWARE, "used_by_intrusion_set"),
    (EntityKind.CAMPAIGN, "uses_malware", EntityKind.MALWARE, "used_by_campaign"),
    (EntityKind.INTRUSION_SET, "uses_tool", EntityKind.TOOL, "used_by_intrusion_set"),
    (EntityKind.CAMPAIGN, "uses_tool", EntityKind.TOOL, "used_by_campaign"),
    (EntityKind.ATTACK_PATTERN, "mitigated_by_course_of_action", EntityKind.COURSE_OF_ACTION, "mitigates_attack_pattern"),
    (EntityKind.ATTACK_PATTERN, "detected_by_data_component", EntityKind.DATA_COMPONENT, "detects_attack_pattern"),
    (EntityKind.DATA_COMPONENT, "provided_by_data_source", EntityKind.DATA_SOURCE, "provides_data_component"),
    (EntityKind.CAMPAIGN, "attributed_to_intrusion_set", EntityKind.INTRUSION_SET, "responsible_for_campaign"),
    (EntityKind.ATTACK_PATTERN, "targets_asset", EntityKind.ASSET, "targeted_by_attack_pattern"),
)

_SUBTECHNIQUE_FORWARD = (
    EntityKind.ATTACK_PATTERN,
    "subtechnique_of_attack_pattern",
    EntityKind.ATTACK_PATTERN,
    "has_subtechnique_attack_pattern",
)

# Context-free short forms (each expands to exactly one canonical name).
_DEFAULT_ALIASES: dict[str, str] = {
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


class RelationRegistry:
    """Catalog of relation signatures keyed by (source kind, name).

    Immutable after construction and therefore safe for unrestricted
    concurrent reads.
    """

    def __init__(
        self,
        signatures: Iterable[RelationSignature],
        aliases: Mapping[str, str] | None = None,
    ):
        self._by_key: dict[tuple[EntityKind, str], RelationSignature] = {}
        for sig in signatures:
            key = (sig.source_kind, sig.name)
            if key in self._by_key and self._by_key[key] != sig:
                raise ValueError(f"duplicate signature for {sig.source_kind.value}/{sig.name}")
            self._by_key[key] = sig
        self._names = frozenset(sig.name for sig in self._by_key.values())
        self._aliases = dict(aliases or {})
        self._check()

    def _check(self) -> None:
        for sig in self._by_key.values():
            if not sig.name.endswith("_" + sig.target_kind.slug):
                raise ValueError(f"relation {sig.name!r} does not encode target kind "
                                 f"{sig.target_kind.value!r}")
            rev = self._by_key.get((sig.target_kind, sig.inverse_name))
            if rev is None:
                raise ValueError(f"missing reverse of {sig.source_kind.value}/{sig.name}")
            if rev.target_kind is not sig.source_kind or rev.inverse_name != sig.name:
                raise ValueError(f"inconsistent reverse of {sig.source_kind.value}/{sig.name}")
        for alias, target in self._aliases.items():
            if target not in self._names:
                raise ValueError(f"alias {alias!r} points at unknown relation {target!r}")
            if alias in self._names:
                raise ValueError(f"alias {alias!r} shadows a canonical relation name")

    # --- queries ---

    @property
    def signatures(self) -> tuple[RelationSignature, ...]:
        return tuple(sorted(self._by_key.values(),
                            key=lambda s: (s.source_kind.value, s.name)))

    @property
    def aliases(self) -> dict[str, str]:
        return dict(self._aliases)

    def signature_of(self, source_kind: EntityKind, token: str) -> RelationSignature:
        """Unique signature for (source kind, canonical token)."""
        sig = self._by_key.get((source_kind, token))
        if sig is None:
            raise NoSuchSignature(
                f"no relation {token!r} from kind {source_kind.value!r}")
        return sig

    def normalize(self, token: str, source_kind: EntityKind | None = None) -> str:
        """Resolve ``token`` to a canonical relation name.

        Canonical names and context-free aliases resolve without a source
        kind.  With a source kind, a bare verb also resolves when exactly
        one relation from that kind completes it with a target suffix
        (``uses`` from malware -> ``uses_attack_pattern``).
        """
        if not token:
            raise UnknownRelation("empty relation token")
        if token in self._names:
            return token
        if token in self._aliases:
            return self._aliases[token]
        if source_kind is not None:
            candidates = [name for (k, name) in self._by_key
                          if k is source_kind
                          and name == f"{token}_{self._by_key[(k, name)].target_kind.slug}"]
            if len(candidates) == 1:
                return candidates[0]
            if len(candidates) > 1:
                raise UnknownRelation(
                    f"relation {token!r} is ambiguous from kind "
                    f"{source_kind.value!r}: {sorted(candidates)}")
        raise UnknownRelation(f"unknown relation {token!r}")

    def resolvable_from_some_kind(self, token: str) -> bool:
        """True when some source kind can disambiguate ``token``."""
        for kind in EntityKind:
            try:
                self.normalize(token, kind)
                return True
            except UnknownRelation:
                continue
        return False

    # --- plain-text table interface ---

    def to_table(self) -> str:
        """One signature per line: source, name, target, inverse (tab-separated)."""
        lines = [f"{s.source_kind.value}\t{s.name}\t{s.target_kind.value}\t{s.inverse_name}"
                 for s in self.signatures]
        return "\n".join(lines) + "\n"


@lru_cache(maxsize=4)
def build_default_registry(include_subtechniques: bool = True) -> RelationRegistry:
    """The canonical relation set, closed under inversion."""
    forward = list(_FORWARD)
    if include_subtechniques:
        forward.append(_SUBTECHNIQUE_FORWARD)
    sigs = []
    for src, name, dst, inv in forward:
        sigs.append(RelationSignature(src, name, dst, inv))
        sigs.append(RelationSignature(dst, inv, src, name))
    aliases = dict(_DEFAULT_ALIASES)
    if not include_subtechniques:
        aliases.pop("subtechnique_of")
        aliases.pop("has_subtechnique")
    return RelationRegistry(sigs, aliases)

