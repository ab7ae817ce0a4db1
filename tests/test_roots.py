"""Sturm counting of positive real roots against constructed ground truth."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from _laurent_literal import L

from orderlex.laurent import LaurentPolynomial
from orderlex.ordering import OrderStatus, clay_rolfsen_verdict, theorem2_report
from orderlex.roots import sturm_positive_root_count


def linear_factor(root):
    """t - root with an exact rational root."""
    return LaurentPolynomial({1: Fraction(1), 0: -Fraction(root)})


class TestSturmCounts:
    def test_known_quadratics(self):
        # roots (3 +- sqrt5)/2 both positive
        assert sturm_positive_root_count(L("t^2 - 3*t + 1")) == 2
        # roots (-3 +- sqrt5)/2 both negative
        assert sturm_positive_root_count(L("t^2 + 3*t + 1")) == 0
        # complex conjugate pair
        assert sturm_positive_root_count(L("t^2 - t + 1")) == 0

    def test_mixed_signs(self):
        assert sturm_positive_root_count(L("t^2 - 1")) == 1
        assert sturm_positive_root_count(L("t^3 - t")) == 1

    def test_multiplicity_ignored(self):
        assert sturm_positive_root_count(L("t^2 - 2*t + 1")) == 1
        assert sturm_positive_root_count(L("t^4 - 2*t^2 + 1")) == 1

    def test_constant(self):
        assert sturm_positive_root_count(L("5")) == 0

    def test_zero_raises(self):
        with pytest.raises(ValueError, match="every point as a root"):
            sturm_positive_root_count(LaurentPolynomial.zero())

    def test_laurent_unit_invariance(self):
        p = L("t^2 - 3*t + 1")
        shifted = p * LaurentPolynomial({-4: Fraction(7)})
        assert sturm_positive_root_count(shifted) == 2

    @given(
        st.lists(
            st.fractions(
                min_value=Fraction(-5),
                max_value=Fraction(5),
                max_denominator=6,
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_constructed_rational_roots(self, roots):
        p = LaurentPolynomial.one()
        for r in roots:
            p = p * linear_factor(r)
        expected = len({r for r in roots if r > 0})
        assert sturm_positive_root_count(p) == expected


def test_one_chain_per_query(laurent_calls, fig8_torus, fig8_z2):
    """Root counts build one Sturm chain of the polynomial itself, with no
    square-free step, and theorem 2 takes its shared roots from a division:
    neither takes a gcd."""
    # roots 1 (twice), 2 and +-i
    p = L("t^2 - 2*t + 1") * L("t - 2") * L("t^2 + 1")
    assert sturm_positive_root_count(p) == 2
    assert clay_rolfsen_verdict(p).status is OrderStatus.INCONCLUSIVE
    assert laurent_calls["poly_divmod"] > 0
    theorem2_report(fig8_torus, fig8_z2)
    assert laurent_calls["poly_gcd"] == 0
