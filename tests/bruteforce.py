"""Independent brute-force path interpreter used as a test oracle.

Works on plain dicts and a raw edge-triple list, recomputes every step
from scratch by scanning the full edge list, and never touches the
executor's indexes, so agreement between the two is meaningful.

Step encoding (plain tuples, no pathlang types):
    ("seed", kind_token) | ("rel", name) | ("filter", keyword)
    | ("select", [name, ...]) | ("common",) | ("diff",)

``lcs_length`` is the textbook dynamic program for the longest common
subsequence, the oracle for the bit-parallel LCS behind ROUGE-L.
"""

from __future__ import annotations


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
    kw = keyword.lower()
    if kw in node["name"].lower():
        return True
    for alias in node["aliases"]:
        if kw in alias.lower():
            return True
    for tag in node["tags"]:
        if kw in tag:
            return True
    return kw in node["description"].lower()


def _same_name(node: dict, name: str) -> bool:
    wanted = " ".join(name.casefold().split())
    if " ".join(node["name"].casefold().split()) == wanted:
        return True
    return any(" ".join(a.casefold().split()) == wanted for a in node["aliases"])


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
