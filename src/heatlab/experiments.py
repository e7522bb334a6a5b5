"""Config-driven experiments with machine-checkable outcomes.

Each experiment is one JSON document with a "kind" field, and _KINDS maps
each kind to its runner and the keys it reads. A runner only computes: it
returns a CSV table, a JSON sidecar and its checks (the report's own, such
as AxiomReport.checks, plus its own). run alone writes the table as
<name>.csv and the sidecar as <name>.json into the output directory, then
evaluates the checks; the first failing check raises AssertionFailed with
that check's name.
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

from .errors import (AssertionFailed, ConfigError, HeatLabError, InputError,
                     TruncationNotConverged)
from .fixtures import FIXTURES
from .graphs import WeightedGraph, load_graph
from .kernels import heat_semigroups, verify_axioms
from .paths import feynman_kac_trace_mc, no_jump_lower_bound, \
    pnfb_probability, stay_probability_exact
from .potential_class import growth_profile_from_config, ricci_admissibility
from .torus import TorusModel, potential_from_spec, torus_semiclassical_scan
from .traces import semiclassical_scan, trace_semigroup
from .util import (check_keys, check_time_grid, default_time_grid, floats,
                   number, parallel_map, read_utf8, require, write_csv)

VERDICTS = ("admissible", "inadmissible", "undecided")
_NAME_MAX = 255     # bytes in one file name on common file systems


def read_json(path) -> dict:
    """A JSON object from a UTF-8 file; ConfigError if the file is
    unreadable, not UTF-8, not JSON, nested too deep or not an object."""
    p = Path(path)
    try:
        doc = json.loads(read_utf8(p, ConfigError))
    except (json.JSONDecodeError, RecursionError) as exc:
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
        """Validate kind, keys, name and seed; origin names doc in errors.

        A key the kind does not read, at the top level or in tolerances, is
        a ConfigError naming it.
        """
        kind = doc.get("kind")
        if kind not in _KINDS:
            raise ConfigError(
                f"unknown experiment kind {kind!r} in {origin}; "
                f"expected one of {', '.join(_KINDS)}")
        _, keys, tolerances = _KINDS[kind]
        check_keys(doc, ("kind", "name", "seed") + keys, f"{kind} config")
        check_keys(_tolerances(doc), tolerances, "tolerances")
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
    if name not in FIXTURES:
        raise ConfigError(f"unknown fixture {what} {name!r}")
    return FIXTURES[name]()


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
    # exactly one form: {"values": [...]} or {"constant": x}
    form = "values" if isinstance(entry, dict) and "values" in entry \
        else "constant"
    check_keys(entry, (form,), "potential")
    if form == "constant":
        return np.full(n, number(entry, "constant", "potential"))
    vals = floats(entry["values"], "potential values")
    if vals.size != n:
        raise ConfigError(
            f"potential has {vals.size} entries, graph has {n} vertices")
    return vals


def _grid(spec, what: str) -> np.ndarray:
    """A list of times as a strictly decreasing positive grid."""
    try:
        return check_time_grid(floats(spec, what))
    except InputError as exc:
        raise ConfigError(f"bad {what} {spec!r}: {exc}") from None


_GRID_KEYS = ("t0", "ratio", "points")


def _time_grid(doc: dict) -> np.ndarray:
    """t_grid as a list of times or {t0, ratio, points}."""
    spec = doc.get("t_grid")
    if spec is None:
        return default_time_grid()
    if not isinstance(spec, dict):
        return _grid(spec, "t_grid")
    check_keys(spec, _GRID_KEYS, "t_grid")
    try:
        return default_time_grid(
            t0=number(spec, "t0", "t_grid", default=1.0),
            ratio=number(spec, "ratio", "t_grid", default=0.5),
            points=number(spec, "points", "t_grid", int, default=20,
                          minimum=1))
    except InputError as exc:
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
# A runner takes (cfg, seed, threads) and returns (table, sidecar, checks,
# summary): the CSV's (header, rows), or None when no report exists; the
# JSON sidecar's payload; its (name, ok, detail) checks in reporting order;
# and a console line or "". Runners write nothing: run writes the files.

_SCAN_TOLERANCES = {"final_rel_error": ("final_rel_tol", float),
                    "monotone_tail": ("monotone_tail", int),
                    "monotone": ("require_monotone", bool)}


def _scan_outcome(report):
    return (report.header, report.rows()), report.to_dict(), report.checks, ""


def _run_graph_limit(cfg: ExperimentConfig, seed: int, threads: int):
    doc = cfg.doc
    graph = _resolve_graph(require(doc, "graph", cfg.kind), cfg.base_dir)
    w = _potential_values(doc.get("potential"), graph.n)
    report = semiclassical_scan(
        graph, w, _time_grid(doc),
        **_options(_tolerances(doc), "tolerances", _SCAN_TOLERANCES))
    return _scan_outcome(report)


def _run_torus_limit(cfg: ExperimentConfig, seed: int, threads: int):
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
    options = _options(_tolerances(doc), "tolerances", _SCAN_TOLERANCES)
    try:
        report = torus_semiclassical_scan(model, _time_grid(doc), **options)
    except TruncationNotConverged as exc:
        # the doubling gate is an experiment check, not bad input
        return None, None, [("truncation_doubling", False, str(exc))], ""
    return _scan_outcome(report)


MC_HEADER = ("statistic", "t", "estimate", "std_error", "n_samples", "seed",
              "reference", "abs_diff")


def fk_trace_row(graph: WeightedGraph, w, t: float, samples: int, seed: int,
                 threads: int = 1) -> tuple:
    """The MC_HEADER row "fk_trace": the Feynman-Kac estimate of
    tr e^{-t(H + w)} against trace_semigroup, and their distance."""
    est = feynman_kac_trace_mc(graph, w, t, samples, seed, threads=threads)
    exact = trace_semigroup(graph, w, t)
    return ("fk_trace", t, est.mean, est.std_error, est.n_samples, est.seed,
            exact, abs(est.mean - exact))


def pnfb_at(graph: WeightedGraph, x, subset, t: float, samples: int,
            seed: int):
    """pnfb at one time: (the McEstimate of the stay probability,
    no_jump_lower_bound, stay_probability_exact)."""
    return (pnfb_probability(graph, x, subset, t, samples, seed),
            no_jump_lower_bound(graph, x, t),
            stay_probability_exact(graph, x, subset, t))


def _run_fk_crosscheck(cfg: ExperimentConfig, seed: int, threads: int):
    doc = cfg.doc
    graph = _resolve_graph(require(doc, "graph", cfg.kind), cfg.base_dir)
    w = _potential_values(doc.get("potential"), graph.n)
    t = number(doc, "t", cfg.kind)
    samples = number(doc, "samples", cfg.kind, int, minimum=1)
    tol = _tolerances(doc)
    k_sigma = number(tol, "k_sigma", "tolerances", default=3.0)
    row = fk_trace_row(graph, w, t, samples, seed, threads)
    _, _, mean, se, _, _, exact, diff = row
    atol = 1e-10 * max(1.0, abs(exact))
    checks = [("mc_within_k_sigma",
               diff <= k_sigma * se + atol,
               f"|{mean!r} - {exact!r}| = {diff!r} > "
               f"{k_sigma!r} * {se!r}")]
    if "max_rel_se" in tol:
        cap = number(tol, "max_rel_se", "tolerances") * abs(exact)
        checks.append(("relative_se", se <= cap,
                       f"std error {se!r} exceeds {cap!r}"))
    return (MC_HEADER, [row]), dict(zip(MC_HEADER[1:], row[1:])), checks, ""


def _run_pnfb(cfg: ExperimentConfig, seed: int, threads: int):
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
        est, bound, exact = pnfb_at(graph, x, subset, t, samples, seed + i)
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
    sidecar = {
        "x": graph.resolve(x), "K": sorted(graph.resolve(v) for v in subset),
        "rows": [dict(zip(header, r)) for r in rows]}
    checks.append(("monotone_in_shrinking_t",
                   all(means[i + 1] >= means[i] - 1e-12
                       for i in range(len(means) - 1)),
                   f"estimates {means!r} do not increase as t shrinks"))
    checks.append(("final_value", means[-1] >= final_min,
                   f"final estimate {means[-1]!r} below {final_min!r}"))
    return (header, rows), sidecar, checks, ""


_AXIOM_TOLERANCES = {"ck": ("ck_tol", float),
                     "symmetry": ("sym_tol", float),
                     "mass": ("mass_tol", float)}


def _run_axioms(cfg: ExperimentConfig, seed: int, threads: int):
    doc = cfg.doc
    graph = _resolve_graph(require(doc, "graph", cfg.kind), cfg.base_dir)
    s = number(doc, "s", cfg.kind)
    t = number(doc, "t", cfg.kind)
    report = verify_axioms(
        *heat_semigroups(graph, [s, t, s + t]),
        **_options(_tolerances(doc), "tolerances", _AXIOM_TOLERANCES))
    rows = report.rows()
    summary = (f"ck defect {report.chapman_kolmogorov_defect:.3e}, "
               f"symmetry defect {report.symmetry_defect:.3e}, "
               f"mass excess {report.mass_excess:.3e}, "
               f"deficit {report.mass_deficit:.3e}")
    return ((report.header, rows), dict(zip(report.header, rows[0])),
            report.checks, summary)


def _run_admissibility(cfg: ExperimentConfig, seed: int, threads: int):
    doc = cfg.doc
    expect = doc.get("expect")
    if expect is not None and expect not in VERDICTS:
        raise ConfigError(f"bad expected verdict {expect!r}; "
                          f"expected one of {', '.join(VERDICTS)}")
    profile = growth_profile_from_config(require(doc, "profile", cfg.kind))
    result = ricci_admissibility(profile)
    sidecar = {
        "verdict": result.verdict, "k_max": result.k_max,
        "partial_sum": result.partial_sum,
        "doubling_partial_sum": result.doubling_partial_sum,
        "certified_ratio": result.certified_ratio,
        "tail_bound": result.tail_bound}
    checks = []
    if expect is not None:
        checks.append(("expected_verdict", result.verdict == expect,
                       f"verdict {result.verdict!r}, expected {expect!r}"))
    summary = (f"verdict: {result.verdict} (k_max {result.k_max}, "
               f"partial sum {result.partial_sum!r}, "
               f"tail bound {result.tail_bound!r})")
    return (result.header, result.rows()), sidecar, checks, summary


# each kind's runner, the keys it reads besides kind, name and seed, and
# the keys of its tolerances object, in the order errors list the kinds
_KINDS = {
    "graph-limit": (_run_graph_limit,
                    ("graph", "potential", "t_grid", "tolerances"),
                    _SCAN_TOLERANCES),
    "torus-limit": (_run_torus_limit,
                    ("dim", "lengths", "truncation", "potential", "t_grid",
                     "tolerances"), _SCAN_TOLERANCES),
    "fk-crosscheck": (_run_fk_crosscheck,
                      ("graph", "potential", "t", "samples", "tolerances"),
                      ("k_sigma", "max_rel_se")),
    "pnfb": (_run_pnfb,
             ("graph", "x", "K", "t_list", "samples", "tolerances"),
             ("k_sigma", "final_min")),
    "axioms": (_run_axioms, ("graph", "s", "t", "tolerances"),
               _AXIOM_TOLERANCES),
    "admissibility": (_run_admissibility, ("profile", "expect"), ()),
}


# ------------------------------------------------------------------ driver


def run(config: ExperimentConfig, out_dir, seed: int | None = None,
        threads: int = 1) -> ExperimentResult:
    """Run one experiment; write artifacts; evaluate its checks.

    The runner's table and sidecar land on disk as <name>.csv and
    <name>.json before checks are evaluated, so a failing experiment still
    leaves its data behind; the AssertionFailed then carries the failed
    ExperimentResult as its result attribute. A runner with no table (a
    failed torus doubling gate) writes neither file. seed overrides the
    config's own seed for the kinds that draw random numbers.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    effective_seed = config.seed if seed is None else int(seed)
    table, sidecar, checks, summary = _KINDS[config.kind][0](
        config, effective_seed, threads)
    artifacts = [] if table is None else [
        write_csv(out / f"{config.name}.csv", *table),
        _write_json(out / f"{config.name}.json", sidecar)]
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
