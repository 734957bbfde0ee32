"""Multi-agent security log auditing.

A task decomposer proposes audit checks from log exemplars, a tool builder
synthesizes validated query-plan tools for them, and two independent
executors invoke the tools and debate their way to an evidence-backed
verdict per user. A deterministic scripted backend makes every stage
testable without a live model.
"""

__version__ = "0.1.0"

from .debate import DebateConfig, FinalConclusion
from .decomposer import SubTask, SubTaskSet, decompose, refine, validate_coverage
from .forge import ToolSpec, load_registry, save_registry
from .gateway import (
    Completion,
    CostLedger,
    CostRecord,
    HttpBackend,
    PromptTemplate,
    RateTable,
    ScriptedBackend,
    chat,
    cost_report,
    make_scripted_backend,
)
from .logstore import (
    ActivityType,
    LogEntry,
    LogStore,
    build_user_sequences,
    parse_cert_file,
    parse_zeek_file,
    sample_exemplars,
    undersample_benign,
)
from .runtime import invoke

__all__ = [
    "ActivityType",
    "Completion",
    "CostLedger",
    "CostRecord",
    "DebateConfig",
    "FinalConclusion",
    "HttpBackend",
    "LogEntry",
    "LogStore",
    "PromptTemplate",
    "RateTable",
    "ScriptedBackend",
    "SubTask",
    "SubTaskSet",
    "ToolSpec",
    "build_user_sequences",
    "chat",
    "cost_report",
    "decompose",
    "invoke",
    "load_registry",
    "make_scripted_backend",
    "parse_cert_file",
    "parse_zeek_file",
    "refine",
    "sample_exemplars",
    "save_registry",
    "undersample_benign",
    "validate_coverage",
]
