"""Default prompt templates for the three agent roles.

Each template opens with a bracketed stage marker so scripted backends can
match on it, and closes with the mandated response format. Any template
can be overridden by name from the run config's ``templates`` map.
"""

from __future__ import annotations

from .gateway import PromptTemplate

DECOMPOSER = PromptTemplate.from_text(
    "decomposer",
    """[stage: decompose] You are a security audit planner. An organization's
activity logs must be audited for insider threats. Below are example records
for every activity type present in the logs. Produce the list of audit checks
an auditor should run, one per line, so that together they cover every
activity type. A single activity type may need several checks.

Example records by activity type:
{exemplars}

Format every item exactly as:
1. <audit question> (types: <ActivityType, ...>; context: <context item, ...>)
""",
)

DECOMPOSER_REFINE = PromptTemplate.from_text(
    "decomposer_refine",
    """[stage: refine] Current audit checks:
{current_subtasks}

What additional information do you need to detect threat behaviors?
Reply with new checks in the same numbered format
(1. <audit question> (types: ...; context: ...)),
or reply exactly "nothing further" if the current checks are sufficient.
""",
)

TOOL_BUILDER = PromptTemplate.from_text(
    "tool_builder",
    """[stage: tool-draft] You design declarative log-analysis tools. Write a
query plan that serves the audit check below. The plan runs over the full log
history, so it can compute per-user baselines that do not fit in a prompt.

Audit check: {subtask_description}
Activity types: {activity_types}
Available fields: {schema_fields}

Log examples:
{log_examples}

Expected result examples:
{result_examples}

Respond with one stage per line, using exactly this grammar:
  select activity=<Type,...> [user={{user}}] [day={{day}}] [day_from=<date>] [day_to=<date>]
  filter field=<name> predicate=<equals|contains|matches_glob|in_list|numeric_cmp> value=<v> [op=<lt|le|gt|ge|eq|ne>]
  group_by key=<user|day|user_day|host>
  aggregate func=<count|distinct_count|mean|std|max|min> [field=<name>]
  baseline_compare statistic=mean k_sigma=<float>
  lookup list=<name> field=<name>
""",
)

TOOL_REPAIR = PromptTemplate.from_text(
    "tool_repair",
    """[stage: tool-repair] The query plan you wrote for this audit check failed
validation or its unit tests. Fix it.

Audit check: {subtask_description}
Previous plan:
{previous_plan}

Errors:
{errors}

Respond with the corrected plan only, one stage per line, in the same grammar
as before (select / filter / group_by / aggregate / baseline_compare / lookup).
""",
)

EXECUTOR_SUBTASK = PromptTemplate.from_text(
    "executor_subtask",
    """[stage: subtask] You are a security log auditor working through one audit
check for user {user}.

Check: {subtask_description}

Tool output: {tool_output}
Tool signal: {tool_signal}

Activity excerpt ({excerpt_count} entries):
{activity_excerpt}

Reply with exactly these lines:
Finding: <one-sentence judgment for this check>
Suspicious: <yes or no>
Flagged: <comma-separated entry ids, only when suspicious>
""",
)

EXECUTOR_REBUTTAL = PromptTemplate.from_text(
    "executor_rebuttal",
    """[stage: rebuttal] You are executor {executor_label}, a security log
auditor debating user {user}'s activity with an independent peer. Review the
opposing audit, weigh its evidence against yours, and restate your position.

Your previous audit:
{own_block}

Opposing audit:
{other_block}

Reply with exactly these lines:
Suspicious: <which behaviors you now consider suspicious, or "none">
Basis of Judgment: <what your position rests on>
Flagged: <comma-separated entry ids you stand behind>
Decision: <Benign or Malicious>
""",
)

EXECUTOR_MERGE = PromptTemplate.from_text(
    "executor_merge",
    """[stage: merge] You are executor A, a security log auditor. Two
independent audits of user {user} are complete. Merge them into the final
conclusion, giving weight to concrete evidence.

Audit by executor A:
{a_block}

Audit by executor B:
{b_block}

Reply with exactly these lines:
Basis of Judgment: <what the final conclusion rests on>
Decision: <Benign or Malicious>
""",
)

VANILLA = PromptTemplate.from_text(
    "vanilla",
    """[stage: vanilla] Decide whether the following user activity is benign or
malicious insider behavior.

User: {user}
Activity excerpt ({excerpt_count} entries):
{activity_excerpt}

Reply with exactly these lines:
Basis of Judgment: <short reason>
Decision: <Benign or Malicious>
""",
)

ONE_SHOT = PromptTemplate.from_text(
    "one_shot",
    """[stage: one-shot] You are a security log auditor. Decide in a single
step whether user {user}'s activity is benign or malicious. The audit checks
and their tool outputs are listed below; do not reason step by step.

Checks and tool outputs:
{findings_block}

Activity excerpt ({excerpt_count} entries):
{activity_excerpt}

Reply with exactly these lines:
Suspicious: <which behaviors are suspicious, or "none">
Basis of Judgment: <what the conclusion rests on>
Flagged: <comma-separated entry ids you stand behind>
Decision: <Benign or Malicious>
""",
)


DEFAULT_TEMPLATES: dict[str, PromptTemplate] = {
    t.name: t
    for t in (
        DECOMPOSER,
        DECOMPOSER_REFINE,
        TOOL_BUILDER,
        TOOL_REPAIR,
        EXECUTOR_SUBTASK,
        EXECUTOR_REBUTTAL,
        EXECUTOR_MERGE,
        VANILLA,
        ONE_SHOT,
    )
}

