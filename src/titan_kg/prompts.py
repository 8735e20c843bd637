"""Prompt templates for remote planner backends.

The prompt is data, versioned here and injected into the client, so a
deployment can swap it without touching request logic.
"""

from .ontology import RelationRegistry

PLANNER_SYSTEM_PROMPT_V1 = """\
You turn cyber threat intelligence questions into executable graph paths.

The knowledge graph has typed relations; each relation name ends with the
kind of its target node.  Available relations (source kind, relation,
target kind):

{relation_table}

Extra path steps:
- is_<kind>_type starts from every node of that kind (e.g. is_malware_type)
- filter <keyword> keeps entities matching the keyword
- select <name> <name> splits reasoning into one branch per named entity
- exec_common / exec_difference combine branches at the end

Answer format:
{cot_instruction}
If the question names the starting entities, list them first inside
<ENTITY> ... </ENTITY> (double-quote names containing spaces).
Always finish with exactly one path of the form
<PATH> relation_1 <SEP> relation_2 <SEP> ... </PATH>
"""

_COT_INSTRUCTION = ("First explain your reasoning step by step "
                    "(Step 1: ..., Step 2: ...).")
_NOCOT_INSTRUCTION = "Reply with the entity block and path only, no explanation."


def render_system_prompt(registry: RelationRegistry, mode: str = "cot",
                         template: str = PLANNER_SYSTEM_PROMPT_V1) -> str:
    table = "\n".join(
        f"- {sig.source_kind.value} --{sig.name}--> {sig.target_kind.value}"
        for sig in registry.signatures)
    instruction = _COT_INSTRUCTION if mode == "cot" else _NOCOT_INSTRUCTION
    return template.format(relation_table=table, cot_instruction=instruction)
