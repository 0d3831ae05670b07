"""Property-based tests for the FOCAL core (NCF, classification,
intervals, Pareto)."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.classify import Sustainability, classify, classify_values
from repro.core.design import DesignPoint
from repro.core.ncf import ncf, ncf_band, ncf_from_ratios
from repro.core.pareto import ParetoPoint, pareto_frontier
from repro.core.scenario import E2OWeight, UseScenario
from repro.core.uncertainty import Interval

positive = st.floats(
    min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False
)
alphas = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
scenarios = st.sampled_from(list(UseScenario))


@st.composite
def designs(draw, name: str = "d") -> DesignPoint:
    return DesignPoint(
        name=name,
        area=draw(positive),
        perf=draw(positive),
        power=draw(positive),
    )


class TestNCFProperties:
    @given(designs(), alphas, scenarios)
    def test_self_comparison_is_one(self, design, alpha, scenario):
        assert abs(ncf(design, design, scenario, alpha) - 1.0) < 1e-9

    @given(designs("x"), designs("y"), alphas, scenarios)
    def test_ncf_positive(self, x, y, alpha, scenario):
        assert ncf(x, y, scenario, alpha) > 0.0

    @given(designs("x"), designs("y"), alphas, scenarios)
    def test_affine_in_alpha(self, x, y, alpha, scenario):
        """NCF(alpha) = alpha*A + (1-alpha)*O: interpolation between the
        alpha=0 and alpha=1 endpoints is exact."""
        at0 = ncf(x, y, scenario, 0.0)
        at1 = ncf(x, y, scenario, 1.0)
        expected = alpha * at1 + (1 - alpha) * at0
        assert abs(ncf(x, y, scenario, alpha) - expected) < 1e-9 * max(1.0, expected)

    @given(designs("x"), designs("y"), alphas)
    def test_scenarios_coincide_iff_same_perf_ratio(self, x, y, alpha):
        fw = ncf(x, y, UseScenario.FIXED_WORK, alpha)
        ft = ncf(x, y, UseScenario.FIXED_TIME, alpha)
        if abs(x.perf - y.perf) < 1e-12:
            assert abs(fw - ft) < 1e-9
        # alpha = 1 kills the operational term entirely:
        if alpha == 1.0:
            assert abs(fw - ft) < 1e-12

    @given(positive, positive, alphas)
    def test_ncf_between_its_components(self, area_ratio, op_ratio, alpha):
        value = ncf_from_ratios(area_ratio, op_ratio, alpha)
        assert min(area_ratio, op_ratio) - 1e-12 <= value
        assert value <= max(area_ratio, op_ratio) + 1e-12

    @given(designs("x"), designs("y"), scenarios,
           st.floats(min_value=0.0, max_value=0.5), st.floats(min_value=0.0, max_value=0.4))
    @example(
        x=DesignPoint("x", 1000.0, 1000.0, 7.0),
        y=DesignPoint("y", 384.71594527196487, 4.076123290760299, 3.0),
        scenario=UseScenario.FIXED_TIME,
        alpha_base=0.0,
        spread=2.2e-16,
    )
    def test_band_contains_nominal_and_widens_with_spread(
        self, x, y, scenario, alpha_base, spread
    ):
        narrow = E2OWeight("n", alpha=alpha_base + 0.25, spread=spread / 2)
        wide = E2OWeight("w", alpha=alpha_base + 0.25, spread=spread)
        band_narrow = ncf_band(x, y, scenario, narrow)
        band_wide = ncf_band(x, y, scenario, wide)
        assert band_wide.low <= band_narrow.low + 1e-12
        assert band_wide.high >= band_narrow.high - 1e-12
        assert band_wide.low <= band_wide.nominal <= band_wide.high


class TestClassificationProperties:
    @given(designs("x"), designs("y"), alphas, scenarios)
    def test_jensen_one_direction_below_one(self, x, y, alpha, scenario):
        """Per axis: NCF(X,Y) < 1 implies NCF(Y,X) > 1 (Jensen: 1/t is
        convex, so the affine mix of reciprocals exceeds the reciprocal
        of the mix). The reverse does NOT hold — both directions can be
        above 1 — which is why FOCAL's classification is not
        antisymmetric in general."""
        forward = ncf(x, y, scenario, alpha)
        backward = ncf(y, x, scenario, alpha)
        # Relative slack: at alpha extremes NCF degenerates to a pure
        # ratio, where backward == 1/forward only up to rounding — an
        # absolute epsilon drowns when the ratio is ~1e7.
        assert backward >= (1.0 / forward) * (1.0 - 1e-12)

    @given(designs("x"), designs("y"), alphas)
    def test_strong_forward_implies_less_backward(self, x, y, alpha):
        """A strictly strongly sustainable X makes Y strictly less
        sustainable — the one classification implication that survives
        the affine (non-ratio) structure of NCF."""
        fw = ncf(x, y, UseScenario.FIXED_WORK, alpha)
        ft = ncf(x, y, UseScenario.FIXED_TIME, alpha)
        if fw < 1.0 - 1e-6 and ft < 1.0 - 1e-6:
            backward = classify(y, x, alpha).category
            assert backward is Sustainability.LESS

    @given(
        st.floats(min_value=0.01, max_value=10, allow_nan=False),
        st.floats(min_value=0.01, max_value=10, allow_nan=False),
    )
    def test_classify_values_total(self, fw, ft):
        assert classify_values(fw, ft) in set(Sustainability)

    @given(designs("x"), designs("y"))
    def test_neutral_iff_all_nfcs_one(self, x, y):
        category = classify(x, y, 0.5).category
        if category is Sustainability.NEUTRAL:
            assert abs(ncf(x, y, UseScenario.FIXED_WORK, 0.5) - 1.0) < 1e-6
            assert abs(ncf(x, y, UseScenario.FIXED_TIME, 0.5) - 1.0) < 1e-6


class TestMixProperties:
    shares = st.lists(
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=5,
    )

    @given(st.data(), shares)
    def test_mix_brackets_phase_extremes(self, data, raw_shares):
        from repro.core.mix import time_weighted_mix

        total = sum(raw_shares)
        shares = [s / total for s in raw_shares]
        phases = [
            (
                DesignPoint(
                    f"p{i}",
                    area=1.0,
                    perf=data.draw(positive),
                    power=data.draw(positive),
                ),
                share,
            )
            for i, share in enumerate(shares)
        ]
        mix = time_weighted_mix(phases, share_tolerance=1e-6)
        powers = [d.power for d, _ in phases]
        perfs = [d.perf for d, _ in phases]
        assert min(powers) - 1e-9 <= mix.power <= max(powers) + 1e-9
        assert min(perfs) - 1e-9 <= mix.perf <= max(perfs) + 1e-9

    @given(st.data())
    def test_mix_order_invariance(self, data):
        from repro.core.mix import time_weighted_mix

        a = DesignPoint("a", area=1.0, perf=data.draw(positive), power=data.draw(positive))
        b = DesignPoint("b", area=1.0, perf=data.draw(positive), power=data.draw(positive))
        forward = time_weighted_mix([(a, 0.3), (b, 0.7)], name="m")
        backward = time_weighted_mix([(b, 0.7), (a, 0.3)], name="m")
        assert abs(forward.power - backward.power) < 1e-12 * max(1.0, forward.power)
        assert abs(forward.perf - backward.perf) < 1e-12 * max(1.0, forward.perf)


class TestMetricProperties:
    from repro.core.metrics import ClassicMetric

    metrics = st.sampled_from(list(ClassicMetric))

    @given(designs("x"), designs("y"), metrics)
    def test_ratio_reciprocity(self, x, y, metric):
        """metric_ratio is a true ratio: forward x backward = 1."""
        from repro.core.metrics import metric_ratio

        forward = metric_ratio(x, y, metric)
        backward = metric_ratio(y, x, metric)
        assert abs(forward * backward - 1.0) < 1e-9

    @given(designs("x"), metrics)
    def test_self_ratio_is_one(self, x, metric):
        from repro.core.metrics import metric_ratio

        assert abs(metric_ratio(x, x, metric) - 1.0) < 1e-12

    @given(designs("x"), designs("y"))
    def test_energy_metric_matches_fixed_work_alpha_zero(self, x, y):
        """The ENERGY metric's goodness is exactly 1/NCF at alpha=0
        fixed-work — the two frameworks agree where they overlap."""
        from repro.core.metrics import ClassicMetric, metric_ratio

        goodness = metric_ratio(x, y, ClassicMetric.ENERGY)
        ncf_value = ncf(x, y, UseScenario.FIXED_WORK, 0.0)
        assert abs(goodness * ncf_value - 1.0) < 1e-9


class TestIntervalProperties:
    finite = st.floats(min_value=-100, max_value=100, allow_nan=False)

    @given(finite, finite, finite, finite)
    def test_add_contains_pointwise_sums(self, a, b, c, d):
        left = Interval(min(a, b), max(a, b))
        right = Interval(min(c, d), max(c, d))
        total = left + right
        assert total.contains(left.low + right.low)
        assert total.contains(left.high + right.high)
        assert total.contains(left.midpoint + right.midpoint)

    @given(finite, finite, finite, finite)
    def test_mul_is_tight_hull(self, a, b, c, d):
        left = Interval(min(a, b), max(a, b))
        right = Interval(min(c, d), max(c, d))
        product = left * right
        corners = [
            left.low * right.low,
            left.low * right.high,
            left.high * right.low,
            left.high * right.high,
        ]
        assert product.low == min(corners)
        assert product.high == max(corners)

    @given(finite, finite)
    def test_sub_self_contains_zero(self, a, b):
        iv = Interval(min(a, b), max(a, b))
        assert (iv - iv).contains(0.0)


class TestParetoProperties:
    points = st.lists(
        st.builds(
            ParetoPoint,
            name=st.text(min_size=1, max_size=4),
            perf=st.floats(min_value=0.1, max_value=10, allow_nan=False),
            footprint=st.floats(min_value=0.1, max_value=10, allow_nan=False),
        ),
        min_size=1,
        max_size=30,
    )

    @given(points)
    @settings(max_examples=60)
    def test_frontier_members_not_dominated(self, pts):
        frontier = pareto_frontier(pts)
        for member in frontier:
            assert not any(other.dominates(member) for other in pts)

    @given(points)
    @settings(max_examples=60)
    def test_every_point_dominated_by_or_on_frontier(self, pts):
        frontier = pareto_frontier(pts)
        for point in pts:
            on_frontier = any(
                point.perf == m.perf and point.footprint == m.footprint
                for m in frontier
            )
            dominated = any(m.dominates(point) for m in frontier)
            assert on_frontier or dominated

    @given(points)
    @settings(max_examples=60)
    def test_frontier_sorted_and_monotone(self, pts):
        frontier = pareto_frontier(pts)
        perfs = [p.perf for p in frontier]
        feet = [p.footprint for p in frontier]
        assert perfs == sorted(perfs)
        assert feet == sorted(feet)
