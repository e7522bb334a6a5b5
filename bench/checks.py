"""Independent checks of heatlab's outputs.

Each check reads what the program was given (graph files, config and profile
documents) and what it wrote (CSV and JSON artifacts, stdout, return values)
and compares the outputs with values computed here without heatlab:
scipy's ``expm`` for heat kernels, traces and staying probabilities, theta
sums and the benchmark's own tridiagonal Galerkin matrices on tori, and
Hurwitz zeta values and exact sums for admissibility series. MC estimates
must lie within K_SIGMA standard errors of the exact value.

``Checker.check`` returns a list of failure messages; empty means the
operation produced a certified, correct result. ``is_known_fault`` tells
whether the messages are exactly those of the one known program fault the
benchmark keeps.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np
from scipy import linalg as sla
from scipy import special

from workloads import K_SIGMA, Graph

RTOL = 1e-9                 # exact routes against expm / closed forms
ADMISSIBLE_TAIL_TOL = 1e-9  # the program's certificate threshold
_VERDICT = re.compile(r"verdict: (\w+) \(k_max (\d+), partial sum (\S+), "
                      r"tail bound (\S+)\)")
# The known fault (README, "Known fault"): verify-kernel exits 1 and reports
# the axioms not passed because the row-mass deficit is over heatlab's
# default 1e-12 window, though within the tail bound of its own tables.
_KNOWN_FAULT = re.compile(r"exit code 1|axioms reported not passed|"
                          r"mass_deficit \S+ over tolerance, within the "
                          r"tables' tail bound \S+")


def is_known_fault(op: dict, messages: list) -> bool:
    """True when an operation kept for the known fault failed as that fault
    fails and in no other way: any other message (a raise, another exit
    code, a defect or a table off expm) makes the failure unexpected."""
    return (bool(op.get("known_fault"))
            and any(m.startswith("mass_deficit") for m in messages)
            and all(_KNOWN_FAULT.fullmatch(m) for m in messages))


def read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def close(a: float, b: float, rtol: float = RTOL) -> bool:
    # equal infinities (an overflowing series) compare equal
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def time_grid(spec) -> np.ndarray:
    if spec is None:
        spec = {}
    if isinstance(spec, list):
        return np.asarray(spec, dtype=float)
    if "values" in spec:
        return np.asarray(spec["values"], dtype=float)
    t0 = float(spec.get("t0", 1.0))
    ratio = float(spec.get("ratio", 0.5))
    return t0 * ratio ** np.arange(int(spec.get("points", 20)))


def potential(spec, n: int) -> np.ndarray:
    if spec is None:
        return np.zeros(n)
    if isinstance(spec, (int, float)):
        return np.full(n, float(spec))
    if isinstance(spec, list):
        return np.asarray(spec, dtype=float)
    if "constant" in spec:
        return np.full(n, float(spec["constant"]))
    return np.asarray(spec["values"], dtype=float)


# ------------------------------------------------------------ torus oracles


def theta(t: float, length: float, n_max: int | None = None) -> float:
    """sum_{|k| <= n_max} exp(-t (2 pi k / L)^2); all k when n_max is None."""
    base = t * (2.0 * math.pi / length) ** 2
    terms = [1.0]
    k = 1
    while n_max is None or k <= n_max:
        term = 2.0 * math.exp(-base * k * k)
        if term < 1e-300:
            break
        terms.append(term)
        k += 1
    return math.fsum(terms)


def cosine_well_trace_1d(t: float, length: float, n_max: int) -> float:
    """tr exp(-t A) with A the plane-wave Galerkin matrix of
    -d^2/dx^2 + (1 - cos(2 pi x / L)) / t, tridiagonal in k = -N..N."""
    k = np.arange(-n_max, n_max + 1, dtype=float)
    diag = (2.0 * math.pi * k / length) ** 2 + 1.0 / t
    off = np.full(k.size - 1, -0.5 / t)
    eigs = sla.eigvalsh_tridiagonal(diag, off)
    return math.fsum(np.exp(-t * eigs))


# ----------------------------------------------------- admissibility oracles


def series_terms(profile: dict, k: np.ndarray) -> np.ndarray:
    """a_k = c_k k^m exp(2 L k), L = sqrt((m-1) A), in log space."""
    m, a, rule = int(profile["m"]), float(profile["A"]), profile["rule"]
    rate = math.sqrt((m - 1) * a)
    k = np.asarray(k, dtype=float)
    if rule["rule"] == "power":
        log_c = float(rule["exponent"]) * np.log(k)
    elif rule["rule"] == "constant":
        log_c = np.full(k.shape, math.log(float(rule.get("value", 1.0))))
    elif rule["rule"] == "quadratic-growth":
        log_c = -float(rule["rate"]) * (k - 1.0) ** 2
    else:
        raise ValueError(f"no oracle for rule {rule['rule']!r}")
    with np.errstate(over="ignore"):
        return np.exp(log_c + m * np.log(k) + 2.0 * rate * k)


def series_partial_sum(profile: dict, k_stop: int) -> float:
    """sum_{k=2}^{k_stop} a_k: Hurwitz zeta for p-series, exact sum else."""
    rule = profile["rule"]
    if rule["rule"] == "power" and float(profile["A"]) == 0.0:
        s = -(float(rule["exponent"]) + int(profile["m"]))
        return float(special.zeta(s, 2.0) - special.zeta(s, k_stop + 1.0))
    try:
        return math.fsum(series_terms(profile, np.arange(2, k_stop + 1)))
    except OverflowError:  # a growing series passes the float range
        return math.inf


def series_verdict(profile: dict):
    """(verdict, tail bound) from the shape of the series.

    Gaussian-decay coefficients make the series converge faster than any
    geometric one: admissible. Constant coefficients with positive growth
    rate make its terms grow: inadmissible. A p-series sum k^-s has its
    largest trailing ratio q = ((K-1)/K)^s at the last term, so the
    certificate a_K q / (1 - q) decides admissible against undecided.
    """
    rule, k_max = profile["rule"]["rule"], int(profile["k_max"])
    if rule == "quadratic-growth":
        return "admissible", None
    if rule == "constant" and float(profile["A"]) > 0 and int(profile["m"]) > 1:
        return "inadmissible", math.inf
    s = -(float(profile["rule"]["exponent"]) + int(profile["m"]))
    q = ((k_max - 1) / k_max) ** s
    tail = k_max ** -s * q / (1.0 - q)
    return ("admissible" if tail < ADMISSIBLE_TAIL_TOL else "undecided"), tail


# ------------------------------------------------------------------ checker


class Checker:
    """Caches parsed graphs and matrix exponentials across rounds."""

    def __init__(self):
        self._graphs = {}
        self._expm = {}

    def graph(self, path) -> Graph:
        key = str(path)
        if key not in self._graphs:
            self._graphs[key] = Graph.parse(Path(path).read_text())
        return self._graphs[key]

    def heat(self, path, t: float, w=None, subset=None) -> np.ndarray:
        """expm(-t (H + diag w)), restricted to the killed subset if given."""
        key = (str(path), float(t),
               None if w is None else tuple(np.asarray(w).tolist()),
               None if subset is None else tuple(subset))
        if key not in self._expm:
            h = self.graph(path).generator()
            if subset is not None:
                h = h[np.ix_(subset, subset)]
            if w is not None:
                h = h + np.diag(np.asarray(w, dtype=float))
            self._expm[key] = sla.expm(-float(t) * h)
        return self._expm[key]

    # ------------------------------------------------------------- entry

    def check(self, op: dict, out: Path, rec: dict, by_name: dict) -> list:
        if rec.get("error"):
            return [f"raised: {rec['error'].strip().splitlines()[-1]}"]
        fails = []
        if rec.get("code") != 0:
            fails.append(f"exit code {rec.get('code')}")
            # the known fault exits 1; its outputs are still checked, so a
            # wrong output cannot hide behind the expected failure
            if not (op.get("known_fault") and rec.get("code") == 1):
                return fails
        spec = op["check"]
        kind = spec["kind"]
        if kind == "run":
            cfg_path = Path(spec["config"])
            cfg = json.loads(cfg_path.read_text())
            kind = cfg["kind"]
            return fails + getattr(self, "_" + kind.replace("-", "_"))(
                cfg, cfg_path.parent, out)
        return fails + getattr(self, "_" + kind.replace("-", "_"))(
            spec, out, rec, by_name)

    # ------------------------------------------------------- graph scans

    def _graph_limit(self, cfg, base: Path, out: Path) -> list:
        path = base / cfg["graph"]
        g = self.graph(path)
        w = potential(cfg.get("potential"), g.n)
        rows = read_rows(out / f"{cfg['name']}.csv")
        grid = time_grid(cfg.get("t_grid"))
        fails = []
        if [float(r["t"]) for r in rows] != grid.tolist():
            fails.append("t column differs from the configured grid")
        boltz = np.exp(-w)
        target = math.fsum(boltz)
        if any(not close(float(r["target"]), target, 1e-12) for r in rows):
            fails.append(f"target differs from sum e^-w = {target!r}")
        for r in rows:
            t, scaled = float(r["t"]), float(r["scaled_trace"])
            gt = float(r["gt_rhs"])
            exact = float(np.trace(self.heat(path, t, w / t)))
            bound = math.fsum(np.diag(self.heat(path, t)) * boltz)
            if not close(scaled, exact):
                fails.append(f"t={t!r}: scaled trace {scaled!r} vs expm "
                             f"{exact!r}")
            if not close(gt, bound):
                fails.append(f"t={t!r}: gt_rhs {gt!r} vs expm {bound!r}")
            if gt < scaled * (1.0 - 1e-12):
                fails.append(f"t={t!r}: gt_rhs {gt!r} below trace {scaled!r}")
        return fails

    # ------------------------------------------------------ kernel tables

    def _tables(self, path, out: Path) -> list:
        fails = []
        data = np.load(out / "tables.npz")
        mu = self.graph(path).mu
        for t, p, tail in zip(data["times"], data["values"],
                              data["tail_bounds"]):
            exact = self.heat(path, t) / mu[None, :]
            # the Poisson tail bounds the operator error of e^{-tH}; the
            # 1e-13 term allows rounding over ~10^3 summed matrix powers
            allowed = (tail + 1e-13) / mu.min()
            err = float(np.max(np.abs(p - exact)))
            if err > allowed:
                fails.append(f"t={t!r}: table off expm by {err:.3e} > "
                             f"{allowed:.3e}")
            if np.any(p < 0):
                fails.append(f"t={t!r}: negative kernel entry")
            if float(np.max(p @ mu)) > 1.0 + 1e-12:
                fails.append(f"t={t!r}: row mass {float(np.max(p @ mu))!r}")
        return fails

    def _axiom_row(self, row: dict, tol: dict, out: Path) -> list:
        # a mass deficit within the tables' own Poisson tail bound (plus the
        # rounding allowance of _tables) is named as such: the known fault
        tail = float(np.load(out / "tables.npz")["tail_bounds"].max()) + 1e-13
        fails = []
        if row["passed"] != "true":
            fails.append("axioms reported not passed")
        for col, key, default in (("ck_defect", "ck", 1e-10),
                                  ("symmetry_defect", "symmetry", 1e-12),
                                  ("mass_excess", "mass", 1e-12),
                                  ("mass_deficit", "mass", 1e-12)):
            value = float(row[col])
            if value <= float(tol.get(key, default)):
                continue
            if col == "mass_deficit" and value <= tail:
                fails.append(f"{col} {row[col]} over tolerance, within the "
                             f"tables' tail bound {tail!r}")
            else:
                fails.append(f"{col} {row[col]} over tolerance")
        return fails

    def _axioms(self, cfg, base: Path, out: Path) -> list:
        row = read_rows(out / f"{cfg['name']}.csv")[0]
        return (self._axiom_row(row, cfg.get("tolerances", {}), out)
                + self._tables(base / cfg["graph"], out))

    def _verify_kernel(self, spec, out: Path, rec, by_name) -> list:
        row = read_rows(out / "axioms.csv")[0]
        return (self._axiom_row(row, {}, out)
                + self._tables(spec["graph"], out))

    def _kato(self, spec, out: Path, rec, by_name) -> list:
        value, t = float(rec["value"]), float(spec["t"])
        w_abs = np.abs(np.asarray(spec["potential"], dtype=float))
        nodes, weights = np.polynomial.legendre.leggauss(32)
        acc = np.zeros(w_abs.size)
        for s, q in zip(0.5 * t * (nodes + 1.0), weights):
            # sum_y p(s,x,y) |w(y)| mu(y) = [e^{-sH} |w|]_x
            acc += 0.5 * t * q * (self.heat(spec["graph"], s) @ w_abs)
        fails = []
        if not close(value, float(acc.max())):
            fails.append(f"kato {value!r} vs expm quadrature {acc.max()!r}")
        if value > t * float(w_abs.max()) * (1.0 + 1e-12):
            fails.append(f"kato {value!r} exceeds t max|w|")
        smaller = spec.get("smaller")
        if smaller is not None and by_name[smaller]["value"] is not None \
                and value < float(by_name[smaller]["value"]):
            fails.append(f"kato decreased from {by_name[smaller]['value']!r}")
        return fails

    def _minimal(self, spec, out: Path, rec, by_name) -> list:
        g = self.graph(spec["graph"])
        x, y = spec["x"], spec["y"]
        values = [float(v) for v in rec["value"]]
        fails = []
        for subset, v in zip(spec["subsets"], values):
            e = self.heat(spec["graph"], spec["t"], subset=subset)
            i, j = subset.index(x), subset.index(y)
            exact = 0.5 * (e[i, j] / g.mu[y] + e[j, i] / g.mu[x])
            if not close(v, exact):
                fails.append(f"|K|={len(subset)}: {v!r} vs expm {exact!r}")
        if any(b < a for a, b in zip(values, values[1:])):
            fails.append(f"killed kernels decrease: {values!r}")
        return fails

    # ------------------------------------------------------- Monte Carlo

    def _mc_row(self, row: dict, path, w, t: float) -> list:
        exact = float(np.trace(self.heat(path, t, w)))
        est, se = float(row["estimate"]), float(row["std_error"])
        fails = []
        if not close(float(row["reference"]), exact):
            fails.append(f"reference {row['reference']} vs expm {exact!r}")
        if not (se > 0 and abs(est - exact) <= K_SIGMA * se):
            fails.append(f"estimate {est!r} (se {se!r}) vs expm {exact!r}")
        return fails

    def _fk_trace(self, spec, out: Path, rec, by_name) -> list:
        row = read_rows(out / "sample_paths.csv")[0]
        return self._mc_row(row, spec["graph"], spec["potential"], spec["t"])

    def _fk_crosscheck(self, cfg, base: Path, out: Path) -> list:
        path = base / cfg["graph"]
        row = read_rows(out / f"{cfg['name']}.csv")[0]
        w = potential(cfg.get("potential"), self.graph(path).n)
        return self._mc_row(row, path, w, float(cfg["t"]))

    def _pnfb(self, cfg, base: Path, out: Path) -> list:
        path = base / cfg["graph"]
        g = self.graph(path)
        x = int(cfg["x"])
        subset = sorted(int(v) for v in cfg["K"])
        deg = g.degrees()
        fails = []
        for row in read_rows(out / f"{cfg['name']}.csv"):
            t = float(row["t"])
            full = self.heat(path, t)[x, x]
            killed = self.heat(path, t, subset=subset)
            exact = killed[subset.index(x), subset.index(x)] / full
            lower = math.exp(-t * deg[x]) / full
            est, se = float(row["estimate"]), float(row["std_error"])
            n = int(row["n_samples"])
            if not close(float(row["exact_ratio"]), exact):
                fails.append(f"t={t!r}: exact_ratio {row['exact_ratio']} vs "
                             f"expm {exact!r}")
            if not close(float(row["lower_bound"]), lower):
                fails.append(f"t={t!r}: lower_bound {row['lower_bound']} vs "
                             f"{lower!r}")
            if abs(est - exact) > K_SIGMA * (se + 1.0 / n):
                fails.append(f"t={t!r}: estimate {est!r} (se {se!r}) vs "
                             f"expm {exact!r}")
        return fails

    # ------------------------------------------------------------- torus

    def _torus_limit(self, cfg, base: Path, out: Path) -> list:
        dim = int(cfg["dim"])
        lengths = [float(v) for v in cfg["lengths"]]
        n_max = int(cfg["truncation"])
        spec = cfg.get("potential", "zero")
        vol = math.prod(lengths)
        if spec == "cosine-well":
            target = vol * (math.exp(-1.0) * float(special.i0(1.0))) ** dim
        else:
            c = float(spec.split(":", 1)[1]) if spec != "zero" else 0.0
            target = vol * math.exp(-c)
        scaling = float(cfg.get("scaling_base", 4.0 * math.pi))
        rows = read_rows(out / f"{cfg['name']}.csv")
        fails = []
        if [float(r["t"]) for r in rows] != time_grid(
                cfg.get("t_grid")).tolist():
            fails.append("t column differs from the configured grid")
        for r in rows:
            t, scaled = float(r["t"]), float(r["scaled_trace"])
            scale = (scaling * t) ** (0.5 * dim)
            if spec == "cosine-well":
                trace = math.prod(cosine_well_trace_1d(t, L, n_max)
                                  for L in lengths)
            else:
                trace = math.exp(-c) * math.prod(theta(t, L, n_max)
                                                 for L in lengths)
            bound = scale * math.prod(theta(t, L) for L in lengths) \
                / vol * target
            if not close(scaled, scale * trace):
                fails.append(f"t={t!r}: scaled trace {scaled!r} vs "
                             f"{scale * trace!r}")
            if not close(float(r["target"]), target):
                fails.append(f"target {r['target']} vs {target!r}")
            if not close(float(r["gt_rhs"]), bound):
                fails.append(f"t={t!r}: gt_rhs {r['gt_rhs']} vs {bound!r}")
            if float(r["gt_rhs"]) < scaled * (1.0 - 1e-12):
                fails.append(f"t={t!r}: gt_rhs below the scaled trace")
        return fails

    # ------------------------------------------------------ admissibility

    def _series(self, profile: dict, verdict: str, partial: float,
                tail: float, rows: list) -> list:
        want, want_tail = series_verdict(profile)
        rtol = 1e-12 if profile["rule"]["rule"] == "power" else 1e-10
        fails = []
        if verdict != want:
            fails.append(f"verdict {verdict!r}, closed form says {want!r}")
        exact = series_partial_sum(profile, int(profile["k_max"]))
        if not close(partial, exact, rtol):
            fails.append(f"partial sum {partial!r} vs {exact!r}")
        if want_tail is not None and math.isfinite(want_tail) \
                and not close(tail, want_tail, 1e-6):
            fails.append(f"tail bound {tail!r} vs {want_tail!r}")
        scale = 2.0 ** int(profile["m"])
        for r in rows:
            k = int(r["k"])
            ps = float(r["partial_sum"])
            if not close(ps, series_partial_sum(profile, k), rtol):
                fails.append(f"k={k}: partial sum {ps!r}")
            if not close(float(r["doubling_partial_sum"]), scale * ps, 1e-15):
                fails.append(f"k={k}: doubling partial sum")
        return fails

    def _admissibility(self, cfg, base: Path, out: Path) -> list:
        doc = json.loads((out / f"{cfg['name']}.json").read_text())
        rows = read_rows(out / f"{cfg['name']}.csv")
        return self._series(cfg["profile"], doc["verdict"],
                            float(doc["partial_sum"]),
                            float(doc["tail_bound"]), rows)

    def _check_admissibility(self, spec, out: Path, rec, by_name) -> list:
        profile = json.loads(Path(spec["profile"]).read_text())
        match = _VERDICT.search((out / "stdout.txt").read_text())
        if match is None:
            return ["no verdict line on stdout"]
        verdict, k_max, partial, tail = match.groups()
        fails = []
        if int(k_max) != int(profile["k_max"]):
            fails.append(f"k_max {k_max} vs {profile['k_max']}")
        return fails + self._series(profile, verdict, float(partial),
                                    float(tail),
                                    read_rows(out / "admissibility.csv"))
