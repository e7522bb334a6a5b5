"""Kato modulus, form-boundedness witness and admissibility verdicts."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import zeta

import heatlab as hl
from heatlab import cli
from heatlab.errors import ConfigError, InputError, NonpositiveTime
from heatlab.potential_class import (_EM_HEAD, _EM_ORDER,
                                     AdmissibilityResult, GrowthProfile,
                                     constant_rule,
                                     growth_profile_from_config,
                                     infinitesimal_class_witness,
                                     kato_modulus, power_rule,
                                     quadratic_growth_rule, ricci_admissibility,
                                     table_rule)

# int_0^1 sum_y p(s,0,y) |w|(y) dy ds with w = (1, 0) on the two-vertex
# graph: integrand (1 + e^{-2s})/2, integral 3/4 - e^{-2}/4
TWO_VERTEX_KATO = 0.7161661791908468


# ------------------------------------------------------------ Kato modulus


def test_kato_two_vertex_frozen(two_vertex):
    val = kato_modulus(two_vertex, [1.0, 0.0], 1.0)
    assert val == pytest.approx(TWO_VERTEX_KATO, abs=1e-10)


@pytest.mark.parametrize("t", [-1.0, float("nan"), float("inf")])
def test_kato_rejects_invalid_time(two_vertex, t):
    with pytest.raises(NonpositiveTime):
        kato_modulus(two_vertex, [1.0, 0.0], t)


def test_kato_against_quadrature_oracle(two_vertex):
    # independent route: adaptive quadrature of the eigendecomposed integrand
    def integrand(s):
        return 0.5 * (1 + math.exp(-2 * s))

    ref, err = quad(integrand, 0.0, 1.0, epsabs=1e-12)
    assert kato_modulus(two_vertex, [1.0, 0.0], 1.0) == pytest.approx(
        ref, abs=1e-10)


def test_kato_monotone_and_subadditive(two_vertex):
    w = [1.0, 0.0]
    k_half = kato_modulus(two_vertex, w, 0.5)
    k_one = kato_modulus(two_vertex, w, 1.0)
    assert 0 < k_half < k_one
    assert k_one <= 2 * k_half + 1e-12


def test_kato_linear_in_potential_magnitude(two_vertex):
    base = kato_modulus(two_vertex, [1.0, 0.0], 0.7)
    double = kato_modulus(two_vertex, [2.0, 0.0], 0.7)
    assert double == pytest.approx(2 * base, rel=1e-12)
    # sign is irrelevant: the modulus sees |w|
    assert kato_modulus(two_vertex, [-1.0, 0.0], 0.7) == pytest.approx(
        base, rel=1e-12)


def test_kato_zero_potential(two_vertex):
    assert kato_modulus(two_vertex, 0.0, 1.0) == 0.0


def test_kato_rejects_nonpositive_time(two_vertex):
    with pytest.raises(NonpositiveTime):
        kato_modulus(two_vertex, [1.0, 0.0], 0.0)


def test_kato_small_time_vanishes(two_vertex):
    # Kato-class behavior: the modulus tends to zero with t
    vals = [kato_modulus(two_vertex, [1.0, 0.5], t)
            for t in (1.0, 0.1, 0.01, 0.001)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 2e-3


# ----------------------------------------------------------------- witness


def test_witness_frozen_pencil(two_vertex):
    # diag(4, 0) - S = [[3, 1], [1, -1]], top eigenvalue 1 + sqrt(5)
    val = infinitesimal_class_witness(two_vertex, [4.0, 0.0], 1.0)
    assert val == pytest.approx(1 + math.sqrt(5), abs=1e-12)


def test_witness_eps_zero_is_sup(two_vertex):
    assert infinitesimal_class_witness(two_vertex, [4.0, -2.0], 0.0) == \
        pytest.approx(4.0, abs=1e-13)


def test_witness_monotone_and_convex_in_eps():
    g = hl.random_connected_graph(7, 13)
    w = np.random.default_rng(1).uniform(-2, 3, size=g.n)
    eps = [0.0, 0.5, 1.0, 1.5, 2.0]
    vals = [infinitesimal_class_witness(g, w, e) for e in eps]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    for i in range(1, len(vals) - 1):
        assert vals[i] <= (vals[i - 1] + vals[i + 1]) / 2 + 1e-10


def test_witness_lower_bound_weighted_mean():
    # Rayleigh quotient with the symmetrized constant vector: the witness
    # is at least the mu-weighted mean of |w|
    g = hl.random_connected_graph(6, 3)
    w = np.random.default_rng(2).uniform(-1, 2, size=g.n)
    mean = float(np.sum(np.abs(w) * g.mu) / np.sum(g.mu))
    for e in (0.0, 1.0, 5.0):
        assert infinitesimal_class_witness(g, w, e) >= mean - 1e-10


def test_witness_rejects_negative_eps(two_vertex):
    with pytest.raises(InputError):
        infinitesimal_class_witness(two_vertex, [1.0, 0.0], -0.1)


def test_witness_rejects_nan_eps(two_vertex):
    with pytest.raises(InputError):
        infinitesimal_class_witness(two_vertex, [1.0, 0.0], float("nan"))


# ----------------------------------------------------------- admissibility


def test_growth_profile_validation():
    with pytest.raises(InputError):
        GrowthProfile(m=0, a=1.0, c_values=constant_rule(1.0), k_max=100)
    with pytest.raises(InputError):
        GrowthProfile(m=2, a=-1.0, c_values=constant_rule(1.0), k_max=100)
    with pytest.raises(InputError):
        GrowthProfile(m=2, a=1.0, c_values=constant_rule(1.0), k_max=2)
    with pytest.raises(InputError):
        GrowthProfile(m=1, a=0.0, c_values=power_rule(-3.0),
                      k_max=2 ** 53 + 1)


def test_profile_errors_from_config_are_config_errors():
    with pytest.raises(ConfigError):
        growth_profile_from_config({"m": 0, "A": 1.0, "k_max": 50,
                                    "rule": {"rule": "constant"}})


def test_growth_rate():
    p = GrowthProfile(m=3, a=4.0, c_values=constant_rule(1.0), k_max=10)
    assert p.growth_rate == pytest.approx(math.sqrt(8.0))
    flat = GrowthProfile(m=1, a=7.0, c_values=constant_rule(1.0), k_max=10)
    assert flat.growth_rate == 0.0


def test_constant_profile_inadmissible():
    p = GrowthProfile(m=2, a=1.0, c_values=constant_rule(1.0), k_max=400)
    res = ricci_admissibility(p)
    assert res.verdict == "inadmissible"


def test_gaussian_decay_admissible():
    p = GrowthProfile(m=2, a=1.0, c_values=quadratic_growth_rule(1.0),
                      k_max=200)
    res = ricci_admissibility(p)
    assert res.verdict == "admissible"
    assert res.tail_bound < 1e-9


def test_p_series_desk_scale_undecided():
    p = GrowthProfile(m=1, a=0.0, c_values=power_rule(-3.0), k_max=10_000)
    res = ricci_admissibility(p)
    assert res.verdict == "undecided"
    assert np.all(res.window_ratios < 1.0)   # decaying, just not certified
    assert res.tail_bound > 1e-9


def test_p_series_certifies_at_large_k_max():
    # terms k^{-2}: the geometric tail bound ~ 1/(2k) crosses 1e-9 only
    # past k ~ 5e8
    p = GrowthProfile(m=1, a=0.0, c_values=power_rule(-3.0),
                      k_max=600_000_000)
    res = ricci_admissibility(p)
    assert res.verdict == "admissible"
    assert res.tail_bound < 1e-9
    # series starts at k = 2
    assert res.partial_sum == pytest.approx(math.pi ** 2 / 6 - 1.0, rel=1e-8)


def test_doubling_sum_scales_by_two_to_m():
    p = GrowthProfile(m=3, a=0.5, c_values=quadratic_growth_rule(2.0),
                      k_max=50)
    res = ricci_admissibility(p)
    assert res.doubling_partial_sum == pytest.approx(8 * res.partial_sum,
                                                     rel=1e-15)
    assert res.doubling_scale == 8.0


def test_checkpoints_trace():
    p = GrowthProfile(m=1, a=0.0, c_values=power_rule(-3.0), k_max=1000)
    res = ricci_admissibility(p)
    ks = [k for k, _, _ in res.checkpoints]
    assert ks == [2, 4, 8, 16, 32, 64, 128, 256, 512, 1000]
    partials = [s for _, _, s in res.checkpoints]
    assert all(a <= b for a, b in zip(partials, partials[1:]))
    assert partials[-1] == pytest.approx(res.partial_sum, rel=1e-12)


def test_table_rule_bounds():
    rule = table_rule([1.0, 0.5, 0.25])
    assert np.allclose(rule(np.array([2, 3, 4])), [1.0, 0.5, 0.25])
    with pytest.raises(ValueError):
        rule(np.array([5]))


def test_rows_output():
    p = GrowthProfile(m=2, a=0.0, c_values=power_rule(-4.0), k_max=100)
    res = ricci_admissibility(p)
    rows = list(res.rows())
    assert rows[0][0] == 2
    assert rows[-1][2] == pytest.approx(res.partial_sum, rel=1e-12)
    assert rows[-1][3] == pytest.approx(res.doubling_partial_sum, rel=1e-12)


def test_profile_from_config():
    p = growth_profile_from_config({
        "m": 2, "A": 1.5, "k_max": 50,
        "rule": {"rule": "quadratic-growth", "rate": 0.3}})
    assert p.m == 2 and p.a == 1.5 and p.k_max == 50
    with pytest.raises(ConfigError):
        growth_profile_from_config({"m": 2, "A": 1.0, "k_max": 50,
                                    "rule": {"rule": "mystery"}})
    with pytest.raises(ConfigError):
        growth_profile_from_config({"m": 2})


def test_result_dataclass_fields():
    p = GrowthProfile(m=1, a=0.0, c_values=power_rule(-2.0), k_max=100)
    res = ricci_admissibility(p)
    assert isinstance(res, AdmissibilityResult)
    assert res.k_max == 100
    assert len(res.window_ratios) == len(res.window_terms)


def test_diverging_series_past_one_chunk_is_infinite():
    # the terms k^2 e^{2k} overflow long before the first chunk ends
    p = GrowthProfile(m=2, a=1.0, c_values=constant_rule(1.0),
                      k_max=2 ** 22 + 10)
    res = ricci_admissibility(p)
    assert res.partial_sum == math.inf
    assert res.doubling_partial_sum == math.inf
    assert res.verdict == "inadmissible"
    assert [s for _, _, s in res.checkpoints][-2:] == [math.inf, math.inf]


# ----------------------------------------------------- closed-form p-series


def power_profile(p, k_max):
    """a_k = k^p through the power rule (m = 1) or constant rule (p = m)."""
    if float(p).is_integer() and 1 <= p <= 3:
        return GrowthProfile(m=int(p), a=0.0, c_values=constant_rule(1.0),
                             k_max=k_max)
    return GrowthProfile(m=1, a=0.0, c_values=power_rule(p - 1.0),
                         k_max=k_max)


def direct_partials(p, ks):
    """fsum of k^p, k = 2..K, for each K in ks (increasing)."""
    out, segments, done = [], [], 1
    for k in ks:
        segments.append(math.fsum(np.arange(done + 1, k + 1,
                                            dtype=float) ** p))
        out.append(math.fsum(segments))
        done = k
    return out


@settings(max_examples=60, deadline=None)
@given(p=st.floats(min_value=-6.0, max_value=4.0),
       k_max=st.one_of(st.integers(min_value=3, max_value=100_000),
                       st.sampled_from([_EM_HEAD - 1, _EM_HEAD, _EM_HEAD + 1,
                                        _EM_HEAD + 2])))
def test_property_power_sums_match_direct_sums(p, k_max):
    res = ricci_admissibility(power_profile(p, k_max))
    ks = [k for k, _, _ in res.checkpoints]
    partials = [s for _, _, s in res.checkpoints]
    assert ks[-1] == k_max and res.partial_sum == partials[-1]
    np.testing.assert_allclose(partials, direct_partials(p, ks), rtol=1e-13)
    assert all(a <= b for a, b in zip(partials, partials[1:]))


@pytest.mark.parametrize("s", [1.5, 2.0, 2.5, 3.0])
def test_power_sums_match_hurwitz_zeta(s):
    res = ricci_admissibility(power_profile(-s, 600_000_000))
    ks = np.array([k for k, _, _ in res.checkpoints], dtype=float)
    partials = np.array([v for _, _, v in res.checkpoints])
    np.testing.assert_allclose(partials, zeta(s, 2.0) - zeta(s, ks + 1.0),
                               rtol=1e-13)
    assert np.all(np.diff(partials) >= 0)


@pytest.mark.parametrize("p", np.linspace(-6.0, 4.0, 21).tolist()
                         + [-100.0, 40.0, 100.0])
def test_euler_maclaurin_remainder_bound(p):
    # 2 zeta(2J) / (2 pi)^{2J} |f^{(2J-1)}(K) - f^{(2J-1)}(K0 + 1)| for
    # f(x) = x^p, against the sum it bounds, up to the largest k_max
    order = 2 * _EM_ORDER - 1
    falling = float(np.prod(p - np.arange(order)))
    scale = 2.0 * zeta(2 * _EM_ORDER) / (2.0 * math.pi) ** (2 * _EM_ORDER)
    with np.errstate(over="ignore"):
        res = ricci_admissibility(power_profile(p, 2 ** 53))
    for k, _, partial in res.checkpoints:
        if k > _EM_HEAD and partial < math.inf:
            bound = scale * abs(falling) * abs(
                k ** (p - order) - (_EM_HEAD + 1.0) ** (p - order))
            assert bound <= 1e-15 * partial


@pytest.mark.parametrize("c, p", [(0.5, 2), (1.0, 5), (3.0, 12), (1.0, 20),
                                  (1.0, 30)])
def test_integer_power_sums_are_exact(c, p):
    # c sum k^p in exact integer arithmetic: the Bernoulli corrections past
    # the first are visible here, unlike for the decaying p-series
    profile = GrowthProfile(m=p, a=0.0, c_values=constant_rule(c),
                            k_max=5000)
    assert profile.power_law == (c, float(p))
    for k, _, partial in ricci_admissibility(profile).checkpoints:
        exact = sum(j ** p for j in range(2, k + 1))
        assert partial == pytest.approx(c * exact, rel=2e-15)


def test_power_law_only_without_growth():
    assert GrowthProfile(m=2, a=1.0, c_values=power_rule(-3.0),
                         k_max=10).power_law is None
    assert GrowthProfile(m=1, a=5.0, c_values=power_rule(-3.0),
                         k_max=10).power_law == (1.0, -2.0)
    assert GrowthProfile(m=2, a=0.0, c_values=quadratic_growth_rule(1.0),
                         k_max=10).power_law is None


@pytest.mark.parametrize("p", [150.0, 1000.0])
def test_large_power_overflows_to_inf(p):
    with np.errstate(over="ignore"):
        res = ricci_admissibility(power_profile(p, 10 ** 6))
    partials = [s for _, _, s in res.checkpoints]
    assert not any(math.isnan(s) for s in partials)
    assert res.partial_sum == math.inf
    assert res.doubling_partial_sum == math.inf
    assert all(a <= b for a, b in zip(partials, partials[1:]))
    assert res.verdict == "inadmissible"


def test_overflowing_power_profile_warns_nothing(tmp_path, capsys):
    # a diverging power rule overflows to inf on the L = 0 path, silently
    prof = {"m": 1, "A": 0.0, "k_max": 100000,
            "rule": {"rule": "power", "exponent": 200.0}}
    p = tmp_path / "prof.json"
    p.write_text(json.dumps(prof))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["check-admissibility", str(p),
                         "--out", str(tmp_path)]) == 0
        assert power_profile(201.0, 10).terms(np.array([1e3])) == math.inf
    captured = capsys.readouterr()
    assert "verdict: inadmissible" in captured.out
    assert captured.err == ""


def test_power_window_is_the_last_terms():
    # the certificate reads the terms themselves, not the closed form
    p = power_profile(-2.5, 1_000_123)
    res = ricci_admissibility(p)
    last = p.terms(np.arange(1_000_123 - 16, 1_000_124, dtype=float))
    assert np.array_equal(res.window_terms, last[1:])
    assert res.certified_ratio == float(np.max(last[1:] / last[:-1]))
    terms = p.terms(np.array([k for k, _, _ in res.checkpoints], dtype=float))
    assert [t for _, t, _ in res.checkpoints] == terms.tolist()
