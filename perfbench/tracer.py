"""Span tracing from outside the program.

``Tracer.install()`` rebinds the public functions listed in ``TARGETS``, in
every ``logaudit`` module (and module-level dict) that holds them, to
wrappers that record one span per call: name, start, end, parent span,
audited user and CLI phase, plus a few counts taken from the arguments or
the result. ``uninstall()`` puts the originals back. Spans are kept in
memory; ``write()`` dumps them as JSON lines. ``layer_metrics()`` turns one
pass's spans into the per-layer metrics.

A span's parent is the innermost open span of its thread; a span opened on
a thread with nothing open (a detect worker thread) takes the innermost
open span of the main thread. Self time is a span's duration minus the part
of it that its children cover, so overlapping children on worker threads
are not subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable

# Span name, module, attribute ("Class.method" for methods).
TARGETS = [
    ("logstore.parse", "logaudit.logstore", "parse_cert_file"),
    ("logstore.seal", "logaudit.logstore", "build_user_sequences"),
    ("logstore.save_store", "logaudit.logstore", "save_store"),
    ("logstore.load_store", "logaudit.logstore", "load_store"),
    ("config.load", "logaudit.config", "load_config"),
    ("decomposer.decompose", "logaudit.decomposer", "decompose"),
    ("decomposer.refine", "logaudit.decomposer", "refine"),
    ("forge.build_tool", "logaudit.forge", "build_tool_for_subtask"),
    ("forge.unit_test", "logaudit.forge", "unit_test_tool"),
    ("forge.load_registry", "logaudit.forge", "load_registry"),
    ("plans.parse_plan", "logaudit.plans", "parse_plan"),
    ("runtime.invoke", "logaudit.runtime", "invoke"),
    ("runtime.select", "logaudit.runtime", "select_entries"),
    ("executor.run_subtask", "logaudit.executor", "run_subtask"),
    ("executor.render_excerpt", "logaudit.executor", "render_excerpt"),
    ("executor.focus_day", "logaudit.executor", "select_focus_day"),
    ("debate.rebut", "logaudit.debate", "rebut"),
    ("debate.merge", "logaudit.debate", "merge_conclusion"),
    ("gateway.chat", "logaudit.gateway", "chat"),
    ("gateway.render", "logaudit.gateway", "PromptTemplate.render"),
    ("gateway.backend", "logaudit.gateway", "ScriptedBackend.complete"),
    ("gateway.backend", "logaudit.gateway", "HttpBackend.complete"),
    ("pipeline.detect_all", "logaudit.pipeline", "detect_all"),
    ("pipeline.detect_user", "logaudit.pipeline", "detect_user"),
    ("cli.detect", "logaudit.cli", "cmd_detect"),
    ("bench.evaluate", "logaudit.bench", "evaluate"),
    ("bench.emit_report", "logaudit.bench", "emit_report"),
]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Counts taken at the boundary: name -> f(args, kwargs, result) -> attrs.
_ATTRS: dict[str, Callable] = {
    "logstore.parse": lambda a, k, r: {"rows": len(r.entries)},
    "runtime.select": lambda a, k, r: {"scanned": len(_arg(a, k, 0, "store").entries),
                                       "selected": len(r)},
    "runtime.invoke": lambda a, k, r: {"key": [r.tool_name, sorted(r.bound_params.items())]},
    "forge.build_tool": lambda a, k, r: {"builtin": bool(r.used_builtin)},
    "gateway.chat": lambda a, k, r: {"prompt_tokens": r[0].prompt_tokens, "stage": r[1].stage},
    "pipeline.detect_user": lambda a, k, r: {"rounds_used": r[0].rounds_used,
                                             "consensus": bool(r[0].consensus)},
}

NAME, START, END, PARENT, USER, PHASE, ATTRS = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.phase = ""
        self.missing: set[str] = set()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
            self._local.user = None
        return stack

    def _wrap(self, name: str, fn: Callable) -> Callable:
        attrs_of = _ATTRS.get(name)
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            outer_user = self._local.user
            if name == "pipeline.detect_user":
                self._local.user = _arg(args, kwargs, 0, "user").user
            span = [name, time.perf_counter(), None, parent, self._local.user, self.phase, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = time.perf_counter()
                span[ATTRS] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
                self._local.user = outer_user
            span[END] = time.perf_counter()
            if attrs_of is not None:
                span[ATTRS] = attrs_of(args, kwargs, result)
            return result

        return traced

    # -- patching --

    def install(self) -> None:
        wrapped: dict[int, Callable] = {}
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.missing.add(name)
                continue
            wrapper = wrapped.setdefault(id(original), self._wrap(name, original))
            if owner_name:
                self._patch(owner, method, wrapper)
                continue
            # Functions are imported by name into other modules (and stored in
            # dispatch tables such as cli._COMMANDS); rebind every reference.
            for mod_name, mod in list(sys.modules.items()):
                if not (mod_name == "logaudit" or mod_name.startswith("logaudit.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for k, v in list(value.items()):
                            if v is original:
                                self._patch(value, k, wrapper)

    def _patch(self, holder: object, key: str, wrapper: Callable) -> None:
        if isinstance(holder, dict):
            self._patches.append((holder, key, holder[key]))
            holder[key] = wrapper
        else:
            self._patches.append((holder, key, getattr(holder, key)))
            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                name, start, end, parent, user, phase, attrs = span
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                     "parent": parent, "user": user, "phase": phase,
                                     "attrs": attrs}) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics from one pass's spans
# ---------------------------------------------------------------------------

def self_times(spans: list[list], first: int) -> dict[int, float]:
    children: dict[int, list[list]] = {}
    for span in spans[first:]:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(span)
    result = {}
    for index in range(first, len(spans)):
        span = spans[index]
        covered, reach = 0.0, span[START]
        for child in sorted(children.get(index, ()), key=lambda s: s[START]):
            lo, hi = max(child[START], reach), min(child[END], span[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[index] = span[END] - span[START] - covered
    return result


class _Pass:
    """One traced pass's spans, indexed by name, with self times."""

    def __init__(self, spans: list[list], first: int) -> None:
        self.spans = spans
        self.own = self_times(spans, first)
        self.by_name: dict[str, list[int]] = {}
        for index in range(first, len(spans)):
            self.by_name.setdefault(spans[index][NAME], []).append(index)

    def ids(self, name: str) -> list[int]:
        return self.by_name.get(name, [])

    def attrs(self, index: int) -> dict:
        return self.spans[index][ATTRS] or {}

    def count(self, name: str) -> int:
        return len(self.ids(name))

    def total(self, name: str, phase: str | None = None) -> float:
        return sum(self.spans[i][END] - self.spans[i][START] for i in self.ids(name)
                   if phase is None or self.spans[i][PHASE] == phase)

    def self_total(self, name: str) -> float:
        return sum(self.own[i] for i in self.ids(name))

    def attr_sum(self, name: str, key: str) -> float:
        return sum(self.attrs(i).get(key, 0) for i in self.ids(name))

    def ratio(self, top: float, bottom: float) -> float | None:
        return top / bottom if bottom else None


# Metric -> (span names it needs, how it is computed from one pass). Times
# and counts are totals over the pass, except ``logstore.seal_s``, which is
# the ingest seal only (the seal inside each later snapshot load is part of
# ``logstore.load_store_s``). Units are those of BENCHMARK.json.
LAYER_METRICS: dict[str, tuple[list[str], Callable[[_Pass], float | None]]] = {
    "logstore.parse_s": (["logstore.parse"], lambda p: p.total("logstore.parse")),
    "logstore.seal_s": (["logstore.seal"], lambda p: p.total("logstore.seal", phase="ingest")),
    "logstore.save_store_s": (["logstore.save_store"], lambda p: p.total("logstore.save_store")),
    "logstore.rows_parsed": (["logstore.parse"], lambda p: p.attr_sum("logstore.parse", "rows")),
    "logstore.load_store_s": (["logstore.load_store"], lambda p: p.total("logstore.load_store")),
    "logstore.load_store_calls": (["logstore.load_store"],
                                  lambda p: p.count("logstore.load_store")),
    "config.load_s": (["config.load"], lambda p: p.total("config.load")),
    "decomposer.decompose_s": (["decomposer.decompose"],
                               lambda p: p.total("decomposer.decompose")),
    "decomposer.refine_s": (["decomposer.refine"], lambda p: p.total("decomposer.refine")),
    "forge.build_tool_s": (["forge.build_tool"], lambda p: p.total("forge.build_tool")),
    "forge.unit_test_s": (["forge.unit_test"], lambda p: p.total("forge.unit_test")),
    # Tool-repair completions, not repair_tool calls: one call may make several.
    "forge.repair_calls": (["gateway.chat"], lambda p: sum(
        1 for i in p.ids("gateway.chat") if p.attrs(i).get("stage") == "tool-repair")),
    "forge.builtin_fallbacks": (["forge.build_tool"],
                                lambda p: p.attr_sum("forge.build_tool", "builtin")),
    "forge.load_registry_s": (["forge.load_registry"], lambda p: p.total("forge.load_registry")),
    "plans.parse_plan_calls": (["plans.parse_plan"], lambda p: p.count("plans.parse_plan")),
    "plans.parse_plan_s": (["plans.parse_plan"], lambda p: p.total("plans.parse_plan")),
    "runtime.invoke_calls": (["runtime.invoke"], lambda p: p.count("runtime.invoke")),
    "runtime.invoke_unique_keys": (["runtime.invoke"], lambda p: len(
        {json.dumps(p.attrs(i).get("key")) for i in p.ids("runtime.invoke")})),
    "runtime.invoke_s": (["runtime.invoke"], lambda p: p.total("runtime.invoke")),
    "runtime.select_s": (["runtime.select"], lambda p: p.total("runtime.select")),
    "runtime.rows_scanned": (["runtime.select"],
                             lambda p: p.attr_sum("runtime.select", "scanned")),
    "runtime.rows_selected": (["runtime.select"],
                              lambda p: p.attr_sum("runtime.select", "selected")),
    "runtime.select_yield": (["runtime.select"], lambda p: p.ratio(
        p.attr_sum("runtime.select", "selected"), p.attr_sum("runtime.select", "scanned"))),
    "executor.run_subtask_calls": (["executor.run_subtask"],
                                   lambda p: p.count("executor.run_subtask")),
    "executor.run_subtask_self_s": (["executor.run_subtask"],
                                    lambda p: p.self_total("executor.run_subtask")),
    "executor.render_excerpt_s": (["executor.render_excerpt"],
                                  lambda p: p.total("executor.render_excerpt")),
    "executor.focus_day_s": (["executor.focus_day"], lambda p: p.total("executor.focus_day")),
    "debate.rebut_calls": (["debate.rebut"], lambda p: p.count("debate.rebut")),
    "debate.rebut_s": (["debate.rebut"], lambda p: p.total("debate.rebut")),
    "debate.merge_s": (["debate.merge"], lambda p: p.total("debate.merge")),
    "debate.rounds_total": (["pipeline.detect_user"],
                            lambda p: p.attr_sum("pipeline.detect_user", "rounds_used")),
    "debate.consensus_users": (["pipeline.detect_user"],
                               lambda p: p.attr_sum("pipeline.detect_user", "consensus")),
    "gateway.chat_calls": (["gateway.chat"], lambda p: p.count("gateway.chat")),
    "gateway.chat_self_s": (["gateway.chat"], lambda p: p.self_total("gateway.chat")),
    "gateway.render_s": (["gateway.render"], lambda p: p.total("gateway.render")),
    "gateway.backend_s": (["gateway.backend"], lambda p: p.total("gateway.backend")),
    "gateway.backend_failures": (["gateway.backend"], lambda p: sum(
        1 for i in p.ids("gateway.backend") if p.attrs(i).get("error"))),
    "gateway.prompt_tokens": (["gateway.chat"],
                              lambda p: p.attr_sum("gateway.chat", "prompt_tokens")),
    "pipeline.detect_all_s": (["pipeline.detect_all"], lambda p: p.total("pipeline.detect_all")),
    "pipeline.detect_user_self_s": (["pipeline.detect_user"],
                                    lambda p: p.self_total("pipeline.detect_user")),
    "pipeline.overlap": (["pipeline.detect_user", "pipeline.detect_all"], lambda p: p.ratio(
        p.total("pipeline.detect_user"), p.total("pipeline.detect_all"))),
    "cli.detect_self_s": (["cli.detect"], lambda p: p.self_total("cli.detect")),
    "bench.evaluate_s": (["bench.evaluate"], lambda p: p.total("bench.evaluate")),
    "bench.emit_report_s": (["bench.emit_report"], lambda p: p.total("bench.emit_report")),
}


def layer_metrics(spans: list[list], first: int, missing: set[str]) -> dict[str, float | None]:
    """Per-layer metrics over spans[first:], one traced pass of every phase.
    A metric whose function was not found is None."""
    traced = _Pass(spans, first)
    return {metric: None if any(name in missing for name in needs) else compute(traced)
            for metric, (needs, compute) in LAYER_METRICS.items()}
