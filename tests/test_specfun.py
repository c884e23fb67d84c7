"""Tests for the special-function layer.

Expected values for the confluent hypergeometric function were frozen from
an independent extended-precision oracle: the plain ascending series
sum_k (a)_k x^k / ((b)_k k!) evaluated with mpmath at 40 decimal digits
(positive terms only, so the sum has no cancellation at any x).  The same
oracle is re-run live for the randomized grids.
"""
import inspect
import math
import sys

import mpmath
import numpy as np
import pytest
from scipy import special as sp

import modkalm.specfun
from modkalm.specfun import _STOP_EVERY, _series_switch, gamma_half_ratio, kummer_m_log
from reference import log_kummer_series

mpmath.mp.dps = 40


def series_oracle_log(a, b, x):
    """Extended-precision ascending series for log M(a;b;x)."""
    a = mpmath.mpf(a)
    b = mpmath.mpf(b)
    x = mpmath.mpf(x)
    term = mpmath.mpf(1)
    total = mpmath.mpf(1)
    k = 0
    while True:
        term = term * (a + k) * x / ((b + k) * (k + 1))
        total += term
        k += 1
        if term < total * mpmath.mpf(10) ** -45 and k > x * 1.2 + 20:
            return float(mpmath.log(total))


# (a, b, x, log M(a;b;x)) frozen from the oracle above, all at the
# package's b = 1
KUMMER_PINS = [
    (0.5, 1.0, 2.0, 1.2359143585071786),
    (2.5, 1.0, 0.7, 1.4601145584730982),
    (0.9, 1.0, 30.0, 29.593844378974429),
    (8.5, 1.0, 45.0, 65.093935935835445),
    (20.0, 1.0, 250.0, 316.91635875037757),
    (49.5, 1.0, 6000.0, 6279.698128763494),
    (3.0, 1.0, 700.0, 712.41471556907482),
]


class TestGammaHalfRatio:
    def test_known_values(self):
        assert gamma_half_ratio(1.0) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-13)
        assert gamma_half_ratio(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)

    def test_within_tight_bounds(self):
        # sqrt(g - 1/4) < ratio < g / sqrt(g + 1/4) over the working range
        g = np.concatenate([np.linspace(0.26, 2, 80), np.logspace(0.31, np.log10(60), 120)])
        r = gamma_half_ratio(g)
        assert np.all(r > np.sqrt(g - 0.25))
        assert np.all(r < g / np.sqrt(g + 0.25))

    def test_bound_interval_example(self):
        r = gamma_half_ratio(10.0)
        lo, hi = math.sqrt(9.75), 10.0 / math.sqrt(10.25)
        assert lo < r < hi

    def test_matches_extended_precision_up_to_the_kummer_box(self):
        # the log-gamma difference is the only form: it must hold its
        # accuracy up to g = 60, and larger shapes are refused, as
        # kummer_m_log refuses a > 60
        for g in [1e-3, 0.3, 2.5, 17.0, 49.0, 59.5, 60.0]:
            want = float(
                mpmath.exp(mpmath.loggamma(g + 0.5) - mpmath.loggamma(g))
            )
            assert gamma_half_ratio(g) == pytest.approx(want, rel=5e-11)
        with pytest.raises(ValueError, match="60"):
            gamma_half_ratio(60.5)
        with pytest.raises(ValueError):
            gamma_half_ratio(1e4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gamma_half_ratio(-2.0)


class TestKummerM:
    def test_trivial_values(self):
        assert math.exp(kummer_m_log(0.7, 0.0)) == pytest.approx(1.0, abs=1e-15)
        assert kummer_m_log(1.0, 3.0) == pytest.approx(3.0, rel=1e-12)
        assert math.exp(kummer_m_log(0.0, 50.0)) == pytest.approx(1.0, abs=1e-14)

    def test_sign_is_positive(self):
        # M(a;1;x) >= 1 > 0 for a, x >= 0, so its log is never negative
        assert kummer_m_log(0.5, 2.0) >= 0.0

    @pytest.mark.parametrize("a,b,x,log_want", KUMMER_PINS)
    def test_frozen_oracle_values(self, a, b, x, log_want):
        assert b == 1.0
        got = kummer_m_log(a, x)
        # |dlog| bounds the relative error of the represented value
        assert abs(got - log_want) < 1e-8 * max(1.0, abs(log_want))

    def test_direct_series_example(self):
        got = math.exp(kummer_m_log(0.5, 2.0))
        want = math.exp(series_oracle_log(0.5, 1.0, 2.0))
        assert got == pytest.approx(want, rel=1e-10)

    def test_accuracy_grid_both_routes(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            a = float(rng.uniform(0.01, 50.0))
            x = float(rng.uniform(0.0, 700.0))
            got = float(kummer_m_log(a, x))
            want = series_oracle_log(a, 1.0, x)
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), (a, x)

    def test_bessel_identity_across_range(self):
        # M(1/2; 1; x) = exp(x/2) I0(x/2), with I0 from an independent library
        # path; covers the series route, the switchover, and the expansion.
        xs = np.array([0.3, 5.0, 29.0, 31.0, 80.0, 700.0, 1e4, 1e6])
        got = kummer_m_log(0.5, xs)
        want = xs / 2.0 + np.log(sp.i0e(xs / 2.0)) + xs / 2.0
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < 1e-9

    def test_contiguous_relation(self):
        # DLMF 13.3.1 at b = 1: a M(a+1) = (2a-1+x) M(a) - (a-1) M(a-1),
        # rearranged so both sides are sums of positive terms
        rng = np.random.default_rng(7)
        for _ in range(40):
            a = float(rng.uniform(1.1, 40.0))
            x = float(rng.uniform(0.01, 500.0))
            lhs = math.log(2.0 * a - 1.0 + x) + float(kummer_m_log(a, x))
            t1 = math.log(a) + float(kummer_m_log(a + 1.0, x))
            t2 = math.log(a - 1.0) + float(kummer_m_log(a - 1.0, x))
            hi = max(t1, t2)
            rhs = hi + math.log(math.exp(t1 - hi) + math.exp(t2 - hi))
            assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(lhs))

    def test_vectorized_matches_scalar(self):
        # each element of a mixed batch (both routes, and a = 0) equals the
        # same argument evaluated as a batch of one
        a = np.array([0.5, 3.3, 12.0, 49.0])
        x = np.array([0.0, 10.0, 200.0, 4000.0])
        vec = kummer_m_log(a, x)
        for i in range(a.size):
            assert vec[i] == pytest.approx(
                kummer_m_log(float(a[i]), float(x[i])), rel=1e-13, abs=1e-13
            )

    def test_lock_step_series_matches_per_element_series_bitwise(self):
        # over the series route at b = 1 (x up to the switch, the rescale at
        # a = 49, x ~ 5000 included), the lock-step sum keeps the bits of
        # the series that stops each element on its own
        rng = np.random.default_rng(2024)
        a = np.concatenate([np.exp(rng.uniform(np.log(1e-3), np.log(49.5), 600)),
                            [1e-3, 0.5, 1.0, 49.0, 49.0, 49.0, 49.5]])
        x = np.concatenate([rng.uniform(0.0, 1.0, 600) * _series_switch(a[:600]),
                            [0.0, 0.0, 30.0, 4990.0, 5000.0, 4000.0, 0.0]])
        x[:600:7] = _series_switch(a[:600:7])
        want = log_kummer_series(a, x)
        assert (want > 250.0 * math.log(10.0)).sum() >= 3  # rescaled sums
        assert np.array_equal(kummer_m_log(a, x), want)

    @staticmethod
    def first_rescale_pass(a, x):
        """The pass on which the series total of M(a;1;x), summed with the
        package's operations, first passes 1e250."""
        term = total = 1.0
        for n in range(100000):
            term = term * (a + n) * x / ((1.0 + n) * (n + 1.0))
            total += term
            if total > 1e250:
                return n + 1
        raise AssertionError("no rescale")

    @pytest.mark.parametrize("x, after_stop", [(3097.975493873468, 4), (3000.0, 1)])
    def test_rescale_gate_keeps_the_reference_bits(self, x, after_stop):
        # the lock-step series tests for overflow only in blocks where a
        # total could pass 1e250 before the next stop test; here the largest
        # total passes it on the fourth pass after a stop test (as far ahead
        # as the gate's bound must reach) or on the first, next to
        # small-x elements, and every element keeps the reference's bits
        assert (self.first_rescale_pass(49.0, x) - after_stop) % _STOP_EVERY == 0
        rng = np.random.default_rng(after_stop)
        a = np.concatenate([[49.0], np.exp(rng.uniform(np.log(1e-3), np.log(49.5), 40))])
        x = np.concatenate([[x], rng.uniform(0.0, 2.0, 40)])
        want = log_kummer_series(a, x)
        assert want[0] > 250.0 * math.log(10.0)  # the rescaled sum
        assert np.array_equal(kummer_m_log(a, x), want)

    def test_batch_independent_bitwise_at_b_one(self):
        # an element of a mixed batch (both routes, a = 0, the rescale) has
        # the bits it has alone
        a = np.array([0.0, 1e-3, 0.5, 3.3, 12.0, 49.0, 49.0, 20.0])
        x = np.array([50.0, 0.2, 0.0, 10.0, 200.0, 5000.0, 6000.0, 1e6])
        vec = kummer_m_log(a, x)
        for i in range(a.size):
            assert np.array_equal(vec[i], kummer_m_log(a[i], x[i]))

    @staticmethod
    def package_rescales(a, x):
        """``kummer_m_log(a, x)`` and the (pass, element) of every rescale
        in ``_log_kummer_series``, seen by a line trace of its rescale
        statement: the pass is the loop's k + 1, the elements its ``big``."""
        code = modkalm.specfun._log_kummer_series.__code__
        lines, first = inspect.getsourcelines(code)
        (line,) = [first + i for i, text in enumerate(lines) if "shift[big] +=" in text]
        seen = []

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno == line:
                k, big = frame.f_locals["k"], frame.f_locals["big"]
                seen.extend((k + 1, int(i)) for i in np.flatnonzero(big))
            return local

        def hook(frame, event, arg):
            return local if frame.f_code is code else None

        previous = sys.gettrace()
        sys.settrace(hook)
        try:
            out = kummer_m_log(a, x)
        finally:
            sys.settrace(previous)
        return out, sorted(seen)

    @pytest.mark.parametrize("seed", range(4))
    def test_rescales_fall_on_the_passes_of_a_test_after_every_pass(self, seed):
        # the overflow test is gated by the batch's largest x, so in a batch
        # where large-x elements sit beside small ones each rescale must
        # still fall on the pass where a test after every pass makes it
        rng = np.random.default_rng(seed)
        n_small = 30
        a_big = rng.uniform(15.0, 49.0, 3)
        x_big = rng.uniform(0.5, 1.0, 3) * _series_switch(a_big)
        a = np.concatenate([a_big, np.exp(rng.uniform(np.log(1e-3), np.log(49.0), n_small))])
        x = np.concatenate([x_big, rng.uniform(0.0, 2.0, n_small)])
        order = rng.permutation(a.size)
        a, x = a[order], x[order]
        want = []
        ref = log_kummer_series(a, x, want)
        got, seen = self.package_rescales(a, x)
        assert seen == sorted(want)
        assert np.array_equal(got, ref)
        rescaled = {i for _, i in want}
        assert rescaled and rescaled <= set(np.flatnonzero(order < 3))
        assert len(want) > len(rescaled)  # some element rescales more than once

    @pytest.mark.parametrize("x, after_stop", [(3097.975493873468, 4), (3000.0, 1)])
    def test_rescale_at_the_gate_boundary_falls_on_its_pass(self, x, after_stop):
        # the cases of test_rescale_gate_keeps_the_reference_bits: the total
        # first passes 1e250 as far after a stop test as the gate must reach
        rng = np.random.default_rng(after_stop)
        a = np.concatenate([[49.0], np.exp(rng.uniform(np.log(1e-3), np.log(49.5), 40))])
        x = np.concatenate([[x], rng.uniform(0.0, 2.0, 40)])
        want = []
        log_kummer_series(a, x, want)
        _, seen = self.package_rescales(a, x)
        assert seen == sorted(want)
        assert seen[0] == (self.first_rescale_pass(49.0, x[0]), 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kummer_m_log(-0.5, 1.0)
        with pytest.raises(ValueError):
            kummer_m_log(0.5, -1.0)
        with pytest.raises(ValueError):
            kummer_m_log(500.0, 1.0)
