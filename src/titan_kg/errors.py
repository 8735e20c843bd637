"""Exception hierarchy shared by every titan_kg module.

All errors raised on purpose by this package derive from :class:`TitanError`,
so callers (and the CLI) can catch one base class and still report the
concrete error class name.
"""


class TitanError(Exception):
    """Base class for all titan_kg errors."""


class MalformedInput(TitanError):
    """An input file cannot be read, or one of its lines has the wrong form;
    the message names the file and, where there is one, the line.  Bundles,
    snapshots and template corpora raise its subclasses below."""


# --- ontology ---------------------------------------------------------------

class UnknownRelation(TitanError):
    """A relation token is neither canonical nor a short verb that resolves."""


class NoSuchSignature(TitanError):
    """No relation signature exists for (source kind, relation name)."""


# --- kg ---------------------------------------------------------------------

class MalformedBundle(MalformedInput):
    """The input document is not a usable STIX bundle or graph snapshot."""


class UnknownSignature(TitanError):
    """A STIX relationship maps to no registry signature (strict mode only)."""


# --- pathlang ---------------------------------------------------------------

class PathSyntaxError(TitanError):
    """Unbalanced wrapper, empty segment, or stray tokens in a path."""


class MalformedOperator(TitanError):
    """An operator step with invalid arguments (e.g. select with one name)."""


class OperatorPlacementError(TitanError):
    """Steps appear in an order the path language forbids."""


class TypeFlowError(TitanError):
    """Kind inference failed: a relation does not apply to the current kind."""


class MissingStartKind(TitanError):
    """A path without a type seed was validated without a start kind."""


# --- executor ---------------------------------------------------------------

class StartKindMismatch(TitanError):
    """Start nodes are missing, unknown, or not of the kind the path needs."""


class SelectNameUnresolved(TitanError):
    """A select name matched no node in the current frontier."""


# --- datagen ----------------------------------------------------------------

class TemplateSchemaError(MalformedInput):
    """A question template violates the corpus schema or type-checks."""


# --- planner ----------------------------------------------------------------

class PlannerUnavailable(TitanError):
    """The planner backend could not be reached or refused the request."""


class UnparseablePlan(TitanError):
    """Planner output contains no well-formed path block."""

    def __init__(self, message: str, raw_text: str = ""):
        super().__init__(message)
        self.raw_text = raw_text
