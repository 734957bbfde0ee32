"""Run configuration: one structured file drives all pipeline phases.

JSON and YAML are both accepted (by extension). The schema is documented in
the README; unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

from .debate import DEFAULT_DEBATE_ROUNDS, DEFAULT_SEED_A, DEFAULT_SEED_B
from .decomposer import DEFAULT_MAX_REFINE_ROUNDS
from .errors import ConfigInvalid
from .executor import DEFAULT_EXCERPT_BUDGET
from .forge import DEFAULT_REPAIR_ATTEMPTS, ToolTestCase
from .gateway import Backend, HttpBackend, PromptTemplate, RateTable, ScriptEntry, ScriptedBackend
from .logstore import (
    CERT_SOURCES,
    DEFAULT_EXEMPLARS_PER_TYPE,
    DEFAULT_SEED,
    DEFAULT_UNDERSAMPLE_CAP,
    LogStore,
    Snapshot,
    load_store,
    open_snapshot,
)
from .plans import DEFAULT_K_SIGMA
from .prompts import DEFAULT_TEMPLATES
from .runtime import LIST_KINDS, ListCatalog, load_list_file

# Top-level keys that set one RunConfig field each, with their types; an
# absent key leaves the field's default.
_SCALAR_KEYS = {
    "n_debate": int, "k_sigma": float, "excerpt_budget": int, "undersample_cap": int,
    "registry_path": str, "store_path": str, "output_dir": str, "ablation": str,
    "exemplar_k": int, "max_refine_rounds": int, "max_repair_attempts": int,
    "parallelism": int, "allow_partial_coverage": bool,
}
_SEED_KEYS = {"sampler": "seed_sampler", "executor_a": "seed_executor_a",
              "executor_b": "seed_executor_b"}
_KNOWN_KEYS = set(_SCALAR_KEYS) | {
    "dataset", "backend", "rates", "seeds", "lists", "tool_tests", "templates",
}


@dataclass
class DatasetConfig:
    kind: str                       # "cert" or "zeek"
    paths: dict[str, str] = field(default_factory=dict)
    labels: str | None = None


@dataclass
class BackendConfig:
    type: str                       # "scripted" or "http"
    name: str = ""
    script: str | None = None       # scripted: path to the script file
    endpoint: str | None = None     # http: full chat-completions URL
    model: str | None = None
    api_key_env: str = "LOGAUDIT_API_KEY"


@dataclass
class ListConfig:
    kind: str
    path: str


@dataclass
class RunConfig:
    config_path: str
    dataset: DatasetConfig
    backend: BackendConfig
    rates: RateTable = field(default_factory=RateTable)
    seed_sampler: int = DEFAULT_SEED
    seed_executor_a: int = DEFAULT_SEED_A
    seed_executor_b: int = DEFAULT_SEED_B
    n_debate: int = DEFAULT_DEBATE_ROUNDS
    k_sigma: float = DEFAULT_K_SIGMA
    excerpt_budget: int = DEFAULT_EXCERPT_BUDGET
    undersample_cap: int = DEFAULT_UNDERSAMPLE_CAP
    registry_path: str = "out/registry.json"
    store_path: str = "out/store.json"
    output_dir: str = "out"
    ablation: str = "original"
    lists: dict[str, ListConfig] = field(default_factory=dict)
    tool_tests: dict[str, list[ToolTestCase]] = field(default_factory=dict)
    exemplar_k: int = DEFAULT_EXEMPLARS_PER_TYPE
    max_refine_rounds: int = DEFAULT_MAX_REFINE_ROUNDS
    max_repair_attempts: int = DEFAULT_REPAIR_ATTEMPTS
    parallelism: int = 1
    allow_partial_coverage: bool = False
    templates: dict[str, str] = field(default_factory=dict)
    raw: dict = field(default_factory=dict)


def _read_doc(path: Path) -> dict:
    if path.suffix.lower() in (".yaml", ".yml"):
        import yaml

        load, unparseable = yaml.safe_load, yaml.YAMLError
    else:
        load, unparseable = json.loads, ValueError
    try:
        doc = load(path.read_text(encoding="utf-8"))
    except unparseable as exc:
        raise ConfigInvalid(f"{path}: unparseable config: {' '.join(str(exc).split())}") from exc
    if not isinstance(doc, dict):
        raise ConfigInvalid(f"{path}: config root must be a mapping")
    return doc


def _typed(path: Path, key: str, value: object, kind: type) -> object:
    """The value if it has the key's type: an int that is not a bool, any
    number for a float (returned as float), a real bool, or a str."""
    allowed = (int, float) if kind is float else kind
    if not isinstance(value, allowed) or (kind is not bool and isinstance(value, bool)):
        raise ConfigInvalid(f"{path}: {key} must be of type {kind.__name__}, got {value!r}")
    return float(value) if kind is float else value


def _mapping(path: Path, key: str, value: object) -> dict:
    if not isinstance(value, dict):
        raise ConfigInvalid(f"{path}: {key} must be a mapping, got {value!r}")
    return value


def load_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    """The run config in ``path``, with ``overrides`` (RunConfig field ->
    value) replacing what the file sets, and every range checked after."""
    path = Path(path)
    if not path.exists():
        raise ConfigInvalid(f"config file not found: {path}")
    doc = _read_doc(path)

    unknown = set(doc) - _KNOWN_KEYS
    if unknown:
        raise ConfigInvalid(f"{path}: unknown config keys {sorted(unknown)}")

    dataset_doc = _mapping(path, "dataset", doc.get("dataset") or {})
    kind = dataset_doc.get("kind", "")
    if kind not in ("cert", "zeek"):
        raise ConfigInvalid(f"{path}: dataset.kind must be 'cert' or 'zeek', got {kind!r}")
    labels = dataset_doc.get("labels")
    dataset = DatasetConfig(
        kind=kind,
        paths={str(k): str(v) for k, v in
               _mapping(path, "dataset.paths", dataset_doc.get("paths") or {}).items()},
        labels=None if labels is None else _typed(path, "dataset.labels", labels, str),
    )
    if kind == "cert":
        bad = set(dataset.paths) - set(CERT_SOURCES)
        if bad:
            raise ConfigInvalid(f"{path}: unknown CERT sources {sorted(bad)}")

    backend_doc = _mapping(path, "backend", doc.get("backend") or {})
    backend_type = backend_doc.get("type", "")
    if backend_type not in ("scripted", "http"):
        raise ConfigInvalid(f"{path}: backend.type must be 'scripted' or 'http'")
    backend = BackendConfig(
        type=backend_type,
        name=backend_doc.get("name", backend_type),
        script=backend_doc.get("script"),
        endpoint=backend_doc.get("endpoint"),
        model=backend_doc.get("model"),
        api_key_env=backend_doc.get("api_key_env", "LOGAUDIT_API_KEY"),
    )
    if backend_type == "scripted" and not backend.script:
        raise ConfigInvalid(f"{path}: scripted backend requires backend.script")
    if backend_type == "http" and not (backend.endpoint and backend.model):
        raise ConfigInvalid(f"{path}: http backend requires endpoint and model")

    rates_doc = _mapping(path, "rates", doc.get("rates") or {})
    rates = RateTable(**{
        key: _typed(path, f"rates.{key}", rates_doc[key], float)
        for key in ("input_per_1k", "output_per_1k") if key in rates_doc
    })

    lists = {}
    for name, item in _mapping(path, "lists", doc.get("lists") or {}).items():
        item = _mapping(path, f"lists.{name}", item)
        list_kind = item.get("kind", "")
        if list_kind not in LIST_KINDS:
            raise ConfigInvalid(f"{path}: list {name!r} kind must be one of {LIST_KINDS}")
        list_path = _typed(path, f"lists.{name}.path", item.get("path"), str)
        lists[name] = ListConfig(kind=list_kind, path=list_path)

    tool_tests: dict[str, list[ToolTestCase]] = {}
    for subtask_id, cases in _mapping(path, "tool_tests", doc.get("tool_tests") or {}).items():
        if not isinstance(cases, list):
            raise ConfigInvalid(f"{path}: tool_tests.{subtask_id} must be a list, got {cases!r}")
        tool_tests[subtask_id] = []
        for n, case in enumerate(cases):
            key = f"tool_tests.{subtask_id}[{n}]"
            case = _mapping(path, key, case)
            params = {str(k): str(v) for k, v in
                      _mapping(path, f"{key}.params", case.get("params", {})).items()}
            # A case names one user; a select reads one user's sequence.
            if "," in params.get("user", ""):
                raise ConfigInvalid(f"{path}: {key}.params.user must name one user, "
                                    f"got {params['user']!r}")
            if "day" in params:
                try:
                    date.fromisoformat(params["day"])
                except ValueError:
                    raise ConfigInvalid(f"{path}: {key}.params.day must be an ISO date, "
                                        f"got {params['day']!r}") from None
            tool_tests[subtask_id].append(ToolTestCase(
                params=params,
                expected=dict(_mapping(path, f"{key}.expected", case.get("expected", {}))),
            ))

    templates = {str(k): str(v) for k, v in
                 _mapping(path, "templates", doc.get("templates") or {}).items()}
    unknown_templates = set(templates) - set(DEFAULT_TEMPLATES)
    if unknown_templates:
        raise ConfigInvalid(f"{path}: unknown template names {sorted(unknown_templates)}")

    seeds = _mapping(path, "seeds", doc.get("seeds") or {})
    config = RunConfig(
        config_path=str(path),
        dataset=dataset,
        backend=backend,
        rates=rates,
        lists=lists,
        tool_tests=tool_tests,
        templates=templates,
        raw=doc,
        **{
            **{key: _typed(path, key, doc[key], kind)
               for key, kind in _SCALAR_KEYS.items() if key in doc},
            **{name: _typed(path, f"seeds.{key}", seeds[key], int)
               for key, name in _SEED_KEYS.items() if key in seeds},
            **(overrides or {}),
        },
    )
    _validate_ranges(config)
    return config


def _validate_ranges(config: RunConfig) -> None:
    checks = [
        (config.n_debate >= 0, "n_debate must be >= 0"),
        (config.k_sigma > 0, "k_sigma must be > 0"),
        (config.excerpt_budget >= 1, "excerpt_budget must be >= 1"),
        (config.undersample_cap >= 0, "undersample_cap must be >= 0"),
        (config.exemplar_k >= 1, "exemplar_k must be >= 1"),
        (config.max_refine_rounds >= 0, "max_refine_rounds must be >= 0"),
        (config.max_repair_attempts >= 1, "max_repair_attempts must be >= 1"),
        (config.parallelism >= 1, "parallelism must be >= 1"),
    ]
    for ok, message in checks:
        if not ok:
            raise ConfigInvalid(message)


def config_hash(config: RunConfig) -> str:
    canonical = json.dumps(config.raw, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Derived objects
# ---------------------------------------------------------------------------

def resolve_path(config: RunConfig, path: str) -> Path:
    """Relative paths in the config are relative to the config file."""
    p = Path(path)
    if p.is_absolute():
        return p
    return Path(config.config_path).parent / p


def _snapshot_path(config: RunConfig) -> Path:
    path = resolve_path(config, config.store_path)
    if not path.exists():
        raise ConfigInvalid(f"store snapshot not found: {path}; run ingest first")
    return path


def load_snapshot(config: RunConfig) -> LogStore:
    """The whole store of the snapshot that ``ingest`` wrote."""
    return load_store(_snapshot_path(config))


def open_store_snapshot(config: RunConfig) -> Snapshot:
    """The snapshot that ``ingest`` wrote, opened to read one user at a time."""
    return open_snapshot(_snapshot_path(config))


def load_script_file(path: str | Path) -> list[ScriptEntry]:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigInvalid(f"{path}: unparseable script: {exc}") from exc
    if not isinstance(doc, list):
        raise ConfigInvalid(f"{path}: script must be a list of entries")
    entries = []
    for n, item in enumerate(doc):
        item = _mapping(path, f"script[{n}]", item)
        when = item.get("when")
        if not isinstance(when, str) and not (
            isinstance(when, list) and all(isinstance(part, str) for part in when)
        ):
            raise ConfigInvalid(f"{path}: script[{n}].when must be a string or a list of "
                                f"strings, got {when!r}")
        entries.append(
            ScriptEntry(
                when=when,
                response=_typed(path, f"script[{n}].response", item.get("response"), str),
                repeat=bool(item.get("repeat", False)),
            )
        )
    return entries


def _existing_file(config: RunConfig, raw_path: str, what: str) -> Path:
    path = resolve_path(config, raw_path)
    if not path.is_file():
        raise ConfigInvalid(f"{what} file not found: {path}")
    return path


def build_backend(config: RunConfig) -> Backend:
    if config.backend.type == "scripted":
        script_path = _existing_file(config, config.backend.script or "", "script")
        return ScriptedBackend(load_script_file(script_path), name=config.backend.name or "scripted")
    return HttpBackend(
        endpoint=config.backend.endpoint or "",
        model=config.backend.model or "",
        api_key_env=config.backend.api_key_env,
        name=config.backend.name or config.backend.model or "http",
    )


def load_lists(config: RunConfig) -> ListCatalog:
    catalog = {}
    for name, item in config.lists.items():
        catalog[name] = load_list_file(name, item.kind, _existing_file(config, item.path, "list"))
    return catalog


def load_templates(config: RunConfig) -> dict[str, PromptTemplate]:
    """Default prompt templates with the config's override files applied;
    ``load_config`` has already checked the override names."""
    templates = dict(DEFAULT_TEMPLATES)
    for name, path in config.templates.items():
        text = _existing_file(config, path, "template").read_text(encoding="utf-8")
        templates[name] = PromptTemplate.from_text(name, text)
    return templates
