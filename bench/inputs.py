"""The benchmark's input: k suffixed copies of the test suite's scale bundle.

Each copy is ``tests/scalegen.py``'s bundle built with its own seed.  Ids,
names and aliases of copy ``c`` get a ``-c<c>`` / `` c<c>`` suffix so the
copies stay disjoint, except for the scale bundle's hot techniques and hot
malware, which every copy shares.  With fully disjoint copies the
``exec_common`` templates die out at k=20 (nearly every pair of entities
stops sharing a neighbour); sharing the hot entities keeps them alive, as
in real ATT&CK, where a few techniques are used by most software.
"""

from __future__ import annotations

import json
import random

from scalegen import build_scale_bundle

# The scale bundle's hot subsets: its first 8 techniques and first 6 malware.
SHARED_IDS = frozenset(
    [f"attack-pattern--s{i:03d}" for i in range(8)]
    + [f"malware--s{i:03d}" for i in range(6)])

_REF_KEYS = ("source_ref", "target_ref", "x_mitre_data_source_ref")


def _copy_seed(seed: int, copy: int) -> int:
    return random.Random(f"bench-bundle:{seed}:{copy}").getrandbits(32)


def _suffix_copy(objects: list[dict], copy: int) -> list[dict]:
    def rid(ref: str) -> str:
        return ref if ref in SHARED_IDS else f"{ref}-c{copy}"

    out = []
    for obj in objects:
        if obj["id"] in SHARED_IDS:
            continue
        obj = dict(obj, id=rid(obj["id"]))
        for key in _REF_KEYS:
            if key in obj:
                obj[key] = rid(obj[key])
        if "name" in obj:
            obj["name"] = f"{obj['name']} c{copy}"
        if obj.get("aliases"):
            obj["aliases"] = [f"{alias} c{copy}" for alias in obj["aliases"]]
        out.append(obj)
    return out


def bundle_objects(seed: int, k: int) -> list[dict]:
    """STIX objects of the k-copy bundle; the same (seed, k) gives the same list."""
    objects: list[dict] = []
    for copy in range(k):
        doc = json.loads(build_scale_bundle(_copy_seed(seed, copy)))
        if copy == 0:
            objects.extend(doc["objects"])
        else:
            objects.extend(_suffix_copy(doc["objects"], copy))
    return objects


def bundle_text(objects: list[dict]) -> str:
    return json.dumps({"type": "bundle", "id": "bundle--bench", "objects": objects})
