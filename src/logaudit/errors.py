"""Exception hierarchy for the audit pipeline.

Every error carries a stable category name (its class name) so the CLI can
emit one machine-parseable line per failure.
"""


class AuditError(Exception):
    """Base class for all pipeline errors."""

    @property
    def category(self) -> str:
        return type(self).__name__


# --- log store ---

class IngestFailed(AuditError):
    """Too many malformed rows, or a structurally unusable input file."""


class DuplicateEntryId(AuditError):
    """Two ingested rows share an entry id."""


class LabelsMissing(AuditError):
    """Operation requires ground-truth labels and the store has none."""


class LabelsInvalid(AuditError):
    """Ground-truth file references unknown entry ids or bad label values."""


# --- gateway ---

class GatewayError(AuditError):
    """Base class for backend/chat failures."""


class TransportError(GatewayError):
    """Transient transport failure; eligible for retry."""


class BackendUnreachable(GatewayError):
    """Backend still failing after the retry budget."""


class MissingPlaceholder(GatewayError):
    """Prompt template rendered without a required variable."""


class ScriptExhausted(GatewayError):
    """Scripted backend has no unconsumed entry matching the request."""


# --- decomposer ---

class UnparseableSubTaskList(AuditError):
    """Completion yielded zero audit checks after parsing."""


class CoverageIncomplete(AuditError):
    """Some activity types are not covered by any sub-task."""


# --- tool plans / forge ---

class PlanParseError(AuditError):
    """Completion text is not in the plan grammar."""


class PlanInvalid(AuditError):
    """Plan parsed but violates a structural invariant."""


class ToolIrreparable(AuditError):
    """Repair budget exhausted without a passing tool."""


class TemplateMismatch(AuditError):
    """Output template references fields the plan does not produce."""


class RegistryCorrupt(AuditError):
    """Registry file fails validation on load."""


class RegistryMissing(AuditError):
    """Detect phase started without a registry file."""


# --- tool runtime ---

class ParamMissing(AuditError):
    """Tool invocation lacks a bound parameter."""


class InsufficientHistory(AuditError):
    """Baseline comparison attempted over an empty history."""


class MalformedUrl(AuditError):
    """No host portion could be extracted from a URL."""


class UnknownList(AuditError):
    """Lookup stage references a list absent from the catalog."""


# --- executor ---

class ResponseUnparseable(AuditError):
    """Mandatory response fields absent after the re-prompt."""


class MissingDecision(AuditError):
    """Structured response has no Decision line."""


# --- bench ---

class MissingLabel(AuditError):
    """A predicted user has no ground-truth label."""


# --- cli / config ---

class ConfigInvalid(AuditError):
    """Run configuration failed validation."""
