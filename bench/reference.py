"""A fixed pure-Python reference loop that measures how fast the machine runs.

On a shared machine this process runs tens of percent faster or slower from
one minute to the next, and every kind of pure-Python work speeds up or slows
down together.  The benchmark times this loop before every step of a round;
the median over a run says how fast the machine was during that run, and the
end-to-end timings are scaled to ``REF_SECONDS`` per loop.  The loop uses the
standard library only, so no change to the program can change its time.
"""

from __future__ import annotations

import json
import random
from time import perf_counter

# The loop's median time on a quiet run of the machine the bounds were set on
# (a 2-core shared x86 VM, Python 3.11).  Any constant would do: it only sets
# the scale the reported timings are given in.
REF_SECONDS = 0.013

_rng = random.Random(7)
_DOC = json.dumps([
    {"id": f"kind-{i % 7}--{i:05d}", "kind": f"k{i % 7}",
     "name": f"Entity {_rng.randrange(10 ** 6)} Name {i % 13}",
     "aliases": [f"Alias {_rng.randrange(10 ** 4)} {j}" for j in range(2)]}
    for i in range(700)])


def _work() -> tuple:
    """JSON parsing, name normalisation, set overlap and keyed sorting: the
    kinds of work the program does, at a fixed size."""
    records = json.loads(_DOC)
    index: dict[str, set[str]] = {}
    for rec in records:
        for text in (rec["name"], *rec["aliases"]):
            index.setdefault(" ".join(text.casefold().split()), set()).add(rec["id"])
    bags = [set(rec["name"].casefold().split()) for rec in records]
    best = 0.0
    for probe in bags[:15]:
        for bag in bags:
            best = max(best, len(probe & bag) / len(probe | bag))
    order = sorted(records, key=lambda r: (r["kind"], r["name"].casefold(), r["id"]))
    return len(index), best, order[0]["id"]


def time_reference() -> float:
    """Seconds one pass of the reference loop takes now."""
    start = perf_counter()
    _work()
    return perf_counter() - start
