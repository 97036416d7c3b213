import math

import numpy as np
import pytest

from qemine.errors import RangeError
from qemine.stats import histogram_csv, pearson, score_histogram, t_tail, williams_test


def _t_tail_by_quadrature(t, df):
    """Numerical-integration oracle for P(T > t).

    Closed form for df 1 (arctan); otherwise composite Simpson after the
    substitution x = t + u/(1-u), which maps [t, inf) onto [0, 1) and
    sends the integrand to 0 at u=1 for every df >= 2.
    """
    if df == 1:
        return 0.5 - math.atan(t) / math.pi
    if t < 0:
        return 1.0 - _t_tail_by_quadrature(-t, df)
    log_norm = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)

    def integrand(u):
        if u >= 1.0:
            return 0.0
        x = t + u / (1.0 - u)
        log_density = log_norm - ((df + 1) / 2) * math.log1p(x * x / df)
        return math.exp(log_density - 2.0 * math.log1p(-u))

    n = 200_000  # even
    h = 1.0 / n
    total = integrand(0.0) + integrand(1.0)
    for k in range(1, n):
        total += integrand(k * h) * (4 if k % 2 else 2)
    return total * h / 3.0


def _williams_reference(r12, r13, r23, n):
    """Independent scalar re-derivation of the test statistic."""
    det = 1 - r12**2 - r13**2 - r23**2 + 2 * r12 * r13 * r23
    rbar_sq = ((r13 + r23) / 2.0) ** 2
    denominator = 2 * det * (n - 1) / (n - 3) + rbar_sq * (1 - r12) ** 3
    return (r13 - r23) * math.sqrt((n - 1) * (1 + r12) / denominator)


def _random_psd_triple(rng):
    """Correlations of three truly correlated samples are always PSD."""
    data = rng.normal(size=(3, 50)) + rng.normal(size=50) * rng.uniform(0.2, 1.5)
    r12 = pearson(data[0], data[1])
    r13 = pearson(data[0], data[2])
    r23 = pearson(data[1], data[2])
    return r12, r13, r23


class TestPearson:
    def test_perfect_positive_affine(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, [2 * v + 1 for v in x]) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        x = [1.0, 2.0, 3.0]
        assert pearson(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-12)

    def test_known_value(self):
        # Direct formula: centered dot 4, both norms sqrt(5) -> 0.8.
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        base = pearson(x, y)
        for _ in range(20):
            a, b = rng.uniform(0.1, 5, 2)
            c, d = rng.normal(size=2)
            assert pearson(a * x + c, b * y + d) == pytest.approx(base, abs=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0])


class TestTTail:
    def test_zero_is_half(self):
        for df in (1, 2, 5, 30):
            assert t_tail(0.0, df) == 0.5

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            t = float(rng.uniform(-6, 6))
            df = int(rng.integers(1, 40))
            assert t_tail(t, df) + t_tail(-t, df) == pytest.approx(1.0, abs=1e-12)

    def test_known_point_against_quadrature(self):
        oracle = _t_tail_by_quadrature(2.0, 10)
        assert oracle == pytest.approx(0.0367, abs=2e-4)  # sanity on the oracle itself
        assert t_tail(2.0, 10) == pytest.approx(oracle, abs=1e-9)

    def test_matches_quadrature_over_grid(self):
        for df in (1, 2, 3, 7, 20):
            for t in (-3.0, -0.7, 0.4, 1.3, 2.5, 5.0):
                assert t_tail(t, df) == pytest.approx(
                    _t_tail_by_quadrature(t, df), abs=1e-8
                ), (t, df)

    def test_matches_scipy_if_available(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(2)
        for _ in range(200):
            t = float(rng.uniform(-8, 8))
            df = int(rng.integers(1, 100))
            assert t_tail(t, df) == pytest.approx(float(scipy_stats.t.sf(t, df)), rel=1e-9, abs=1e-12)

    def test_monotone_decreasing_in_t(self):
        grid = [-math.inf, *np.linspace(-5, 5, 101), math.inf]
        values = [t_tail(t, 8) for t in grid]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert (values[0], values[-1]) == (1.0, 0.0)

    def test_rejects_bad_df(self):
        with pytest.raises(ValueError):
            t_tail(1.0, 0)


class TestWilliams:
    def test_equal_correlations_give_t_zero_p_half(self):
        result = williams_test(0.4, 0.6, 0.6, 25)
        assert result.t_statistic == 0.0
        assert result.p_value == 0.5
        assert result.degrees_of_freedom == 22

    def test_antisymmetric_in_r13_r23(self):
        a = williams_test(0.3, 0.7, 0.5, 30)
        b = williams_test(0.3, 0.5, 0.7, 30)
        assert a.t_statistic == pytest.approx(-b.t_statistic, abs=1e-12)
        assert a.p_value + b.p_value == pytest.approx(1.0, abs=1e-12)

    def test_matches_independent_reference_on_random_tuples(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            r12, r13, r23 = _random_psd_triple(rng)
            n = int(rng.integers(5, 200))
            result = williams_test(r12, r13, r23, n)
            assert result.t_statistic == pytest.approx(
                _williams_reference(r12, r13, r23, n), abs=1e-6
            )
            assert result.p_value == pytest.approx(
                _t_tail_by_quadrature(result.t_statistic, n - 3), abs=1e-6
            )

    def test_p_monotone_decreasing_in_t(self):
        # Larger r13 advantage -> larger t -> smaller p, fixed df.
        previous = 1.0
        for r13 in (0.30, 0.45, 0.60, 0.75):
            result = williams_test(0.5, r13, 0.3, 40)
            assert result.p_value < previous
            previous = result.p_value

    def test_zero_denominator_gives_infinite_t(self):
        # r13 = -r23 and a singular correlation matrix (K = 0) zero the denominator
        result = williams_test(0.5, 0.5, -0.5, 20)
        assert (result.t_statistic, result.p_value) == (math.inf, 0.0)
        result = williams_test(0.5, -0.5, 0.5, 20)
        assert (result.t_statistic, result.p_value) == (-math.inf, 1.0)

    def test_rejects_non_psd_triple(self):
        with pytest.raises(ValueError):
            williams_test(0.9, 0.9, -0.9, 20)

    def test_rejects_small_n_and_unit_correlations(self):
        with pytest.raises(ValueError):
            williams_test(0.1, 0.2, 0.3, 3)
        with pytest.raises(ValueError):
            williams_test(1.0, 0.2, 0.3, 20)


class TestHistogram:
    def test_boundary_rule(self):
        counts = score_histogram([0.0, 0.5, 1.0], bins=2)
        assert counts.tolist() == [1, 2]

    def test_last_bin_closed(self):
        counts = score_histogram([1.0] * 7, bins=4)
        assert counts.tolist() == [0, 0, 0, 7]

    def test_counts_sum_to_input_size(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(0, 1, 500)
        for bins in (1, 2, 7, 10):
            assert score_histogram(scores, bins).sum() == 500

    def test_uniform_samples_near_uniform_counts(self):
        # Binomial(1000, 1/10): five sigma is ~47.4 around 100.
        rng = np.random.default_rng(5)
        counts = score_histogram(rng.uniform(0, 1, 1000), bins=10)
        sigma = math.sqrt(1000 * 0.1 * 0.9)
        assert np.all(np.abs(counts - 100) <= 5 * sigma)

    def test_out_of_range_score(self):
        with pytest.raises(RangeError):
            score_histogram([0.5, 1.2], bins=2)

    def test_csv_shape(self):
        csv = histogram_csv(score_histogram([0.1, 0.9], bins=2))
        lines = csv.strip().split("\n")
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == 3
        assert lines[1].split(",") == ["0.0", "0.5", "1"]
