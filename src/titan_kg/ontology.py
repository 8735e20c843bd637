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
from typing import Iterable

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


@dataclass(frozen=True)
class RelationSignature:
    """One typed, directed relation: ``source --name--> target``.

    ``inverse_name`` is the relation that traverses the same edges
    backwards.  The registry stores each forward signature together with
    its reverse ``(target, inverse_name, source, name)``.
    """

    source_kind: EntityKind
    name: str
    target_kind: EntityKind
    inverse_name: str


Forward = tuple[EntityKind, str, EntityKind, str]

# Forward signatures (source, name, target, inverse); the registry adds the
# reverse of each.
_FORWARD: tuple[Forward, ...] = (
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

_SUBTECHNIQUE_FORWARD: Forward = (
    EntityKind.ATTACK_PATTERN,
    "subtechnique_of_attack_pattern",
    EntityKind.ATTACK_PATTERN,
    "has_subtechnique_attack_pattern",
)


class RelationRegistry:
    """Catalog of relation signatures keyed by (source kind, name).

    Built from forward signatures ``(source, name, target, inverse)``, each
    stored together with its reverse ``(target, inverse, source, name)``,
    so the catalog is closed under inversion by construction.  Immutable
    after construction and therefore safe for unrestricted concurrent reads.
    """

    def __init__(self, forward: Iterable[Forward]):
        self._by_key: dict[tuple[EntityKind, str], RelationSignature] = {}
        self._forward: dict[tuple[EntityKind, str], RelationSignature] = {}
        for src, name, dst, inv in forward:
            self._by_key[src, name] = self._forward[src, name] = RelationSignature(
                src, name, dst, inv)
            self._by_key[dst, inv] = RelationSignature(dst, inv, src, name)
        self._names = frozenset(name for _, name in self._by_key)
        # The names of the forward signatures, and of their reverses.
        self.forward_names = frozenset(sig.name for sig in self._forward.values())
        self.reverse_names = frozenset(sig.inverse_name for sig in self._forward.values())
        # Short verb (a name without its target suffix) -> source kind ->
        # the names that complete it from that kind; and each signature by
        # its (source kind, verb, target kind).
        self._verbs: dict[str, dict[EntityKind, set[str]]] = {}
        self._by_verb: dict[tuple[EntityKind, str, EntityKind], RelationSignature] = {}
        for sig in self._by_key.values():
            verb = sig.name[:-len(sig.target_kind.slug) - 1]
            self._verbs.setdefault(verb, {}).setdefault(sig.source_kind, set()).add(sig.name)
            self._by_verb[sig.source_kind, verb, sig.target_kind] = sig

    # --- queries ---

    @property
    def signatures(self) -> tuple[RelationSignature, ...]:
        return tuple(sorted(self._by_key.values(),
                            key=lambda s: (s.source_kind.value, s.name)))

    def signature_of(self, source_kind: EntityKind, token: str) -> RelationSignature:
        """Unique signature for (source kind, canonical token)."""
        sig = self._by_key.get((source_kind, token))
        if sig is None:
            raise NoSuchSignature(
                f"no relation {token!r} from kind {source_kind.value!r}")
        return sig

    def forward(self, source_kind: EntityKind, name: str) -> RelationSignature | None:
        """The forward signature ``name`` from ``source_kind``; None for a
        reverse or for no signature at all."""
        return self._forward.get((source_kind, name))

    def signature_for_verb(self, source_kind: EntityKind, verb: str,
                           target_kind: EntityKind) -> RelationSignature | None:
        """The signature named ``verb`` plus the target kind's slug, from
        ``source_kind`` to ``target_kind``; None when there is none."""
        return self._by_verb.get((source_kind, verb, target_kind))

    def normalize(self, token: str, source_kind: EntityKind | None = None) -> str:
        """Resolve ``token`` to a canonical relation name.

        A canonical name resolves to itself.  A short verb resolves when
        exactly one name completes it with a target suffix, in the whole
        registry (``mitigated_by``) or, given a source kind, from that kind
        (``uses`` from malware -> ``uses_attack_pattern``).
        """
        if not token:
            raise UnknownRelation("empty relation token")
        if token in self._names:
            return token
        completions = self._verbs.get(token, {})
        anywhere = set().union(*completions.values())
        if len(anywhere) == 1:
            return anywhere.pop()
        here = completions.get(source_kind, ())
        if len(here) == 1:
            return next(iter(here))
        if len(here) > 1:
            raise UnknownRelation(
                f"relation {token!r} is ambiguous from kind "
                f"{source_kind.value!r}: {sorted(here)}")
        raise UnknownRelation(f"unknown relation {token!r}")

    def resolvable_from_some_kind(self, token: str) -> bool:
        """True when some source kind can disambiguate ``token``."""
        return token in self._names or any(
            len(names) == 1 for names in self._verbs.get(token, {}).values())

    # --- plain-text table interface ---

    def to_table(self) -> str:
        """One signature per line: source, name, target, inverse (tab-separated)."""
        lines = [f"{s.source_kind.value}\t{s.name}\t{s.target_kind.value}\t{s.inverse_name}"
                 for s in self.signatures]
        return "\n".join(lines) + "\n"


@lru_cache(maxsize=4)
def build_default_registry(include_subtechniques: bool = True) -> RelationRegistry:
    """The canonical relation set, closed under inversion."""
    if include_subtechniques:
        return RelationRegistry(_FORWARD + (_SUBTECHNIQUE_FORWARD,))
    return RelationRegistry(_FORWARD)
