"""Config-driven experiments with machine-checkable outcomes.

Each experiment is one JSON document with a "kind" field. Running it writes
a CSV table and a JSON sidecar into the output directory and then evaluates
its checks (the report's own, such as AxiomReport.checks, plus the runner's);
the first failing check raises AssertionFailed with that check's name.
Malformed documents raise ConfigError, unreadable data files InputError. A
suite is a directory of configs run in sorted filename order with per-config
error isolation and a one-line-per-config summary. The CLI's verify-kernel
and check-admissibility build axioms and admissibility documents run here.

All CSV output is byte-deterministic: same configs, same bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (AssertionFailed, ConfigError, HeatLabError,
                     TruncationNotConverged)
from .fixtures import fixture_registry
from .graphs import WeightedGraph, load_graph
from .kernels import heat_semigroup, verify_axioms
from .paths import feynman_kac_trace_mc, no_jump_lower_bound, \
    pnfb_probability, stay_probability_exact
from .potential_class import growth_profile_from_config, ricci_admissibility
from .torus import TorusModel, potential_from_spec, torus_semiclassical_scan
from .traces import semiclassical_scan, trace_semigroup
from .util import (check_time_grid, default_time_grid, floats, number,
                   parallel_map, require, write_csv)

KNOWN_KINDS = ("graph-limit", "torus-limit", "fk-crosscheck", "pnfb",
               "axioms", "admissibility")
VERDICTS = ("admissible", "inadmissible", "undecided")
_NAME_MAX = 255     # bytes in one file name on common file systems


def read_json(path) -> dict:
    """A JSON object from path; ConfigError if unreadable or not an object."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {p}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {p}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{p} must hold a JSON object")
    return doc


@dataclass
class ExperimentConfig:
    kind: str
    name: str
    seed: int
    doc: dict
    base_dir: Path

    @classmethod
    def from_doc(cls, doc: dict, base_dir, default_name: str,
                 origin: str) -> "ExperimentConfig":
        """Validate kind, name and seed; origin names doc in errors."""
        kind = doc.get("kind")
        if kind not in KNOWN_KINDS:
            raise ConfigError(
                f"unknown experiment kind {kind!r} in {origin}; "
                f"expected one of {', '.join(KNOWN_KINDS)}")
        name = doc.get("name", default_name)
        if not _is_file_stem(name):
            raise ConfigError(f"name in {origin} must be a plain file name "
                              f"of at most {_NAME_MAX - 5} bytes, "
                              f"got {name!r:.80}")
        return cls(kind=kind, name=name,
                   seed=number(doc, "seed", kind, int, default=0, minimum=0),
                   doc=doc, base_dir=Path(base_dir))

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        p = Path(path)
        return cls.from_doc(read_json(p), p.parent, p.stem, str(p))


def _is_file_stem(name) -> bool:
    """name.csv and name.json are plain file names inside the output dir."""
    try:
        return (isinstance(name, str) and name not in ("", ".", "..")
                and not any(c in name for c in "/\\\0")
                and len(f"{name}.json".encode()) <= _NAME_MAX)
    except UnicodeEncodeError:      # a lone surrogate from JSON
        return False


@dataclass
class ExperimentResult:
    name: str
    kind: str
    status: str            # pass | fail | error
    detail: str = ""
    artifacts: list = field(default_factory=list)
    summary: str = ""      # one line for the console, e.g. a verdict


# ------------------------------------------------------------ doc parsing


def _options(doc: dict, kind: str, spec: dict) -> dict:
    """Keyword arguments for the keys of doc that spec maps to
    (argument, cast). Absent keys keep the library defaults."""
    return {arg: number(doc, key, kind, cast)
            for key, (arg, cast) in spec.items() if key in doc}


def _fixture(ref: str, what: str):
    """(graph, potential) of the fixture named in "fixture:<name>"."""
    name = ref.split(":", 1)[1]
    registry = fixture_registry()
    if name not in registry:
        raise ConfigError(f"unknown fixture {what} {name!r}")
    return registry[name]


def _resolve_graph(ref, base_dir: Path) -> WeightedGraph:
    if not isinstance(ref, str):
        raise ConfigError(f"graph must be a file path or fixture:<name>, "
                          f"got {ref!r}")
    if ref.startswith("fixture:"):
        return _fixture(ref, "graph")[0]
    path = Path(ref)
    if not path.is_absolute():
        path = base_dir / path
    return load_graph(path)


def _potential_values(entry, n: int) -> np.ndarray:
    if entry is None:
        return np.zeros(n)
    if isinstance(entry, (int, float)):
        entry = {"constant": entry}
    if isinstance(entry, str) and entry.startswith("fixture:"):
        entry = list(_fixture(entry, "potential")[1])
    if isinstance(entry, list):
        entry = {"values": entry}
    if not isinstance(entry, dict):
        raise ConfigError(f"cannot interpret potential spec {entry!r}")
    if "constant" in entry:
        return np.full(n, number(entry, "constant", "potential"))
    if "values" in entry:
        vals = floats(entry["values"], "potential values")
        if vals.size != n:
            raise ConfigError(
                f"potential has {vals.size} entries, graph has {n} vertices")
        return vals
    raise ConfigError(f"potential spec needs 'values' or 'constant': {entry!r}")


def _grid(spec, what: str) -> np.ndarray:
    """A list of times as a strictly decreasing positive grid."""
    try:
        return check_time_grid(floats(spec, what))
    except ValueError as exc:
        raise ConfigError(f"bad {what} {spec!r}: {exc}") from None


_GRID_KEYS = ("t0", "ratio", "points")


def _time_grid(doc: dict) -> np.ndarray:
    """t_grid as a list of times or {t0, ratio, points}."""
    spec = doc.get("t_grid")
    if spec is None:
        return default_time_grid()
    if not isinstance(spec, dict):
        return _grid(spec, "t_grid")
    unknown = sorted(set(spec) - set(_GRID_KEYS))
    if unknown:
        raise ConfigError(f"unknown t_grid keys {unknown}; expected "
                          f"{', '.join(_GRID_KEYS)}")
    try:
        return default_time_grid(
            t0=number(spec, "t0", "t_grid", default=1.0),
            ratio=number(spec, "ratio", "t_grid", default=0.5),
            points=number(spec, "points", "t_grid", int, default=20,
                          minimum=1))
    except ValueError as exc:
        raise ConfigError(f"bad t_grid {spec!r}: {exc}") from None


def _tolerances(doc: dict) -> dict:
    tol = doc.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigError("'tolerances' must be an object")
    return tol


def _write_json(path: Path, payload: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# ------------------------------------------------------------ kind runners
#
# A runner returns (artifacts, checks, summary): the files it wrote, its
# (name, ok, detail) checks in reporting order, and a console line or "".

_SCAN_TOLERANCES = {"final_rel_error": ("final_rel_tol", float),
                    "monotone_tail": ("monotone_tail", int),
                    "monotone": ("require_monotone", bool)}


def _scan_outcome(report, out: Path, name: str):
    csv = report.to_csv(out / f"{name}.csv")
    js = _write_json(out / f"{name}.json", report.to_dict())
    gap = report.gt_bounds - report.scaled_traces
    atol = 1e-10 * np.maximum(1.0, np.abs(report.gt_bounds))
    return [csv, js], report.checks + [
        ("trace_inequality", bool(np.all(gap >= -atol)),
         f"scaled trace exceeds its bound by {float(-gap.min())!r}")], ""


def _run_graph_limit(cfg: ExperimentConfig, out: Path, seed: int, threads: int):
    doc = cfg.doc
    graph = _resolve_graph(require(doc, "graph", cfg.kind), cfg.base_dir)
    w = _potential_values(doc.get("potential"), graph.n)
    report = semiclassical_scan(
        graph, w, _time_grid(doc),
        **_options(_tolerances(doc), "tolerances", _SCAN_TOLERANCES))
    return _scan_outcome(report, out, cfg.name)


def _run_torus_limit(cfg: ExperimentConfig, out: Path, seed: int, threads: int):
    doc = cfg.doc
    dim = number(doc, "dim", cfg.kind, int)
    lengths = floats(require(doc, "lengths", cfg.kind), "lengths").tolist()
    if dim not in (1, 2, 3) or len(lengths) != dim or min(lengths) <= 0:
        raise ConfigError(f"a torus needs dim 1, 2 or 3 and that many "
                          f"positive lengths, got {dim} and {lengths}")
    trunc = number(doc, "truncation", cfg.kind, int, minimum=1)
    potential = potential_from_spec(doc.get("potential", "zero"), lengths)
    model = TorusModel(dim=dim, lengths=tuple(lengths), truncation=trunc,
                       potential=potential)
    options = _options(_tolerances(doc), "tolerances", dict(
        _SCAN_TOLERANCES, truncation_doubling=("check_rel_tol", float)))
    try:
        report = torus_semiclassical_scan(model, _time_grid(doc), **options)
    except TruncationNotConverged as exc:
        # the doubling gate is an experiment check, not bad input
        return [], [("truncation_doubling", False, str(exc))], ""
    return _scan_outcome(report, out, cfg.name)


MC_HEADER = ("statistic", "t", "estimate", "std_error", "n_samples", "seed",
              "reference", "abs_diff")


def _run_fk_crosscheck(cfg: ExperimentConfig, out: Path, seed: int,
                       threads: int):
    doc = cfg.doc
    graph = _resolve_graph(require(doc, "graph", cfg.kind), cfg.base_dir)
    w = _potential_values(doc.get("potential"), graph.n)
    t = number(doc, "t", cfg.kind)
    samples = number(doc, "samples", cfg.kind, int, minimum=1)
    tol = _tolerances(doc)
    k_sigma = number(tol, "k_sigma", "tolerances", default=3.0)
    exact = trace_semigroup(graph, w, t)
    est = feynman_kac_trace_mc(graph, w, t, samples, seed, threads=threads)
    diff = abs(est.mean - exact)
    csv = write_csv(out / f"{cfg.name}.csv", MC_HEADER,
                    [("fk_trace", t, est.mean, est.std_error, est.n_samples,
                      est.seed, exact, diff)])
    js = _write_json(out / f"{cfg.name}.json", {
        "t": t, "estimate": est.mean, "std_error": est.std_error,
        "n_samples": est.n_samples, "seed": est.seed, "reference": exact,
        "abs_diff": diff})
    atol = 1e-10 * max(1.0, abs(exact))
    checks = [("mc_within_k_sigma",
               diff <= k_sigma * est.std_error + atol,
               f"|{est.mean!r} - {exact!r}| = {diff!r} > "
               f"{k_sigma!r} * {est.std_error!r}")]
    if "max_rel_se" in tol:
        cap = number(tol, "max_rel_se", "tolerances") * abs(exact)
        checks.append(("relative_se", est.std_error <= cap,
                       f"std error {est.std_error!r} exceeds {cap!r}"))
    return [csv, js], checks, ""


def _run_pnfb(cfg: ExperimentConfig, out: Path, seed: int, threads: int):
    doc = cfg.doc
    graph = _resolve_graph(require(doc, "graph", cfg.kind), cfg.base_dir)
    x = require(doc, "x", cfg.kind)
    subset = require(doc, "K", cfg.kind)
    if not isinstance(subset, list):
        raise ConfigError(f"K must be a list of vertices, got {subset!r}")
    t_list = _grid(require(doc, "t_list", cfg.kind), "t_list").tolist()
    samples = number(doc, "samples", cfg.kind, int, minimum=1)
    tol = _tolerances(doc)
    k_sigma = number(tol, "k_sigma", "tolerances", default=3.0)
    final_min = number(tol, "final_min", "tolerances", default=0.99)
    rows, checks, means = [], [], []
    for i, t in enumerate(t_list):
        est = pnfb_probability(graph, x, subset, t, samples, seed + i)
        bound = no_jump_lower_bound(graph, x, t)
        exact = stay_probability_exact(graph, x, subset, t)
        rows.append((t, est.mean, est.std_error, est.n_samples, est.seed,
                     bound, exact))
        means.append(est.mean)
        # the 1/n floor covers the degenerate all-stay draw, where the
        # empirical standard error collapses to zero
        allowed = k_sigma * (est.std_error + 1.0 / est.n_samples)
        checks.append(("per_time_consistency",
                       abs(est.mean - exact) <= allowed,
                       f"at t={t!r}: estimate {est.mean!r} vs exact "
                       f"{exact!r} beyond {k_sigma!r} sigma"))
        checks.append(("dominates_lower_bound",
                       est.mean >= bound - k_sigma * est.std_error - 1e-10,
                       f"at t={t!r}: estimate {est.mean!r} under bound "
                       f"{bound!r}"))
    header = ("t", "estimate", "std_error", "n_samples", "seed",
              "lower_bound", "exact_ratio")
    csv = write_csv(out / f"{cfg.name}.csv", header, rows)
    js = _write_json(out / f"{cfg.name}.json", {
        "x": graph.resolve(x), "K": sorted(graph.resolve(v) for v in subset),
        "rows": [dict(zip(header, r)) for r in rows]})
    checks.append(("monotone_in_shrinking_t",
                   all(means[i + 1] >= means[i] - 1e-12
                       for i in range(len(means) - 1)),
                   f"estimates {means!r} do not increase as t shrinks"))
    checks.append(("final_value", means[-1] >= final_min,
                   f"final estimate {means[-1]!r} below {final_min!r}"))
    return [csv, js], checks, ""


_AXIOM_TOLERANCES = {"ck": ("ck_tol", float),
                     "symmetry": ("sym_tol", float),
                     "mass": ("mass_tol", float)}


def _run_axioms(cfg: ExperimentConfig, out: Path, seed: int, threads: int):
    doc = cfg.doc
    graph = _resolve_graph(require(doc, "graph", cfg.kind), cfg.base_dir)
    s = number(doc, "s", cfg.kind)
    t = number(doc, "t", cfg.kind)
    options = _options(_tolerances(doc), "tolerances", _AXIOM_TOLERANCES)
    options.update(_options(doc, cfg.kind,
                            {"conservative": ("conservative", bool)}))
    report = verify_axioms(
        heat_semigroup(graph, s), heat_semigroup(graph, t),
        heat_semigroup(graph, s + t), **options)
    csv = write_csv(out / f"{cfg.name}.csv", report.header, report.rows())
    js = _write_json(out / f"{cfg.name}.json", {
        "s": report.s, "t": report.t,
        "ck_defect": report.chapman_kolmogorov_defect,
        "symmetry_defect": report.symmetry_defect,
        "mass_excess": report.mass_excess,
        "mass_deficit": report.mass_deficit, "passed": report.passed})
    summary = (f"ck defect {report.chapman_kolmogorov_defect:.3e}, "
               f"symmetry defect {report.symmetry_defect:.3e}, "
               f"mass excess {report.mass_excess:.3e}, "
               f"deficit {report.mass_deficit:.3e}")
    return [csv, js], report.checks, summary


def _run_admissibility(cfg: ExperimentConfig, out: Path, seed: int,
                       threads: int):
    doc = cfg.doc
    expect = doc.get("expect")
    if expect is not None and expect not in VERDICTS:
        raise ConfigError(f"bad expected verdict {expect!r}; "
                          f"expected one of {', '.join(VERDICTS)}")
    profile = growth_profile_from_config(require(doc, "profile", cfg.kind))
    options = {}
    if "window" in doc:
        options["window"] = number(doc, "window", cfg.kind, int, minimum=1)
    result = ricci_admissibility(profile, **options)
    csv = write_csv(out / f"{cfg.name}.csv", result.header, result.rows())
    js = _write_json(out / f"{cfg.name}.json", {
        "verdict": result.verdict, "k_max": result.k_max,
        "partial_sum": result.partial_sum,
        "doubling_partial_sum": result.doubling_partial_sum,
        "certified_ratio": result.certified_ratio,
        "tail_bound": result.tail_bound})
    checks = []
    if expect is not None:
        checks.append(("expected_verdict", result.verdict == expect,
                       f"verdict {result.verdict!r}, expected {expect!r}"))
    summary = (f"verdict: {result.verdict} (k_max {result.k_max}, "
               f"partial sum {result.partial_sum!r}, "
               f"tail bound {result.tail_bound!r})")
    return [csv, js], checks, summary


_RUNNERS = {
    "graph-limit": _run_graph_limit,
    "torus-limit": _run_torus_limit,
    "fk-crosscheck": _run_fk_crosscheck,
    "pnfb": _run_pnfb,
    "axioms": _run_axioms,
    "admissibility": _run_admissibility,
}


# ------------------------------------------------------------------ driver


def run(config: ExperimentConfig, out_dir, seed: int | None = None,
        threads: int = 1) -> ExperimentResult:
    """Run one experiment; write artifacts; evaluate its checks.

    Artifacts land on disk before checks are evaluated, so a failing
    experiment still leaves its data behind; the AssertionFailed then
    carries the failed ExperimentResult as its result attribute. seed
    overrides the config's own seed for the kinds that draw random numbers.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    effective_seed = config.seed if seed is None else int(seed)
    artifacts, checks, summary = _RUNNERS[config.kind](
        config, out, effective_seed, threads)
    result = ExperimentResult(name=config.name, kind=config.kind,
                              status="pass", artifacts=artifacts,
                              summary=summary)
    for name, ok, detail in checks:
        if not ok:
            result.status, result.detail = "fail", f"{name}: {detail}"
            failure = AssertionFailed(result.detail)
            failure.result = result
            raise failure
    return result


@dataclass
class SuiteResult:
    results: list
    summary_path: Path | None

    @property
    def exit_code(self) -> int:
        statuses = {r.status for r in self.results}
        if "error" in statuses:
            return 2
        if "fail" in statuses:
            return 1
        return 0


def run_suite(config_dir, out_dir, seed: int | None = None,
              threads: int = 1) -> SuiteResult:
    """Run every *.json config under config_dir in sorted filename order.

    Config and input errors are isolated per config and recorded as status
    "error"; failed assertions as "fail". The summary CSV is written last
    and is byte-deterministic. Parallelism is across configs; each config
    itself runs single-threaded so the estimates match a sequential run.
    """
    cfg_dir = Path(config_dir)
    paths = sorted(cfg_dir.glob("*.json"))
    if not paths:
        raise ConfigError(f"no *.json experiment configs under {cfg_dir}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def one(path: Path) -> ExperimentResult:
        name, kind = path.stem, "?"
        try:
            config = ExperimentConfig.from_file(path)
            name, kind = config.name, config.kind
            return run(config, out, seed=seed, threads=1)
        except AssertionFailed as exc:
            return exc.result
        except HeatLabError as exc:
            return ExperimentResult(name=name, kind=kind, status="error",
                                    detail=str(exc))

    results = parallel_map(one, paths, threads)
    summary = write_csv(out / "suite_summary.csv",
                        ("name", "kind", "status", "detail"),
                        [(r.name, r.kind, r.status, r.detail)
                         for r in results])
    return SuiteResult(results=results, summary_path=summary)
