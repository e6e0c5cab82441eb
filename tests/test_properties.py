"""Property tests of the Riordan group and its action on series, at depths
1..8, and of compositional inversion, at precisions 1..10, with sparse
small-integer and dense rational parameters.

Every example is derandomized, so the suite draws the same cases on every
run."""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from riordan.reversion import invert_series
from riordan.series import Series
from riordan.triangles import build_triangle, identity

from oracles import coeffs, divide, list_power
from test_triangles import composed_product

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=50)

SPARSE = st.sampled_from((0, 0, 0, -1, 1, 2)).map(F)
DENSE = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def panels(draw, matrices):
    """A depth, ``matrices`` Riordan matrices of that depth and a series
    ``h`` at precision ``depth - 1``, all on one coefficient kind."""
    depth = draw(st.integers(1, 8))
    kind = draw(st.sampled_from((SPARSE, DENSE)))

    def series(nonzero_constant):
        head = draw(kind.filter(bool) if nonzero_constant else kind)
        return Series([head] + draw(st.lists(kind, min_size=depth - 1, max_size=depth - 1)))

    ts = [build_triangle(series(True), series(True), depth) for _ in range(matrices)]
    return ts, series(False)


@PROPERTY
@given(panels(3))
def test_product_is_associative(panel):
    (a, b, c), _ = panel
    assert (a @ b) @ c == a @ (b @ c)


@PROPERTY
@given(panels(1))
def test_identity_on_both_sides(panel):
    (a,), _ = panel
    one = identity(a.depth)
    assert a @ one == a
    assert one @ a == a


@PROPERTY
@given(panels(2))
def test_apply_of_a_product_is_apply_twice(panel):
    (a, b), h = panel
    assert (a @ b).apply(h) == a.apply(b.apply(h))


@PROPERTY
@given(panels(1))
def test_apply_is_a_matrix_vector_product(panel):
    (t,), h = panel
    p = t.depth - 1
    fc, gc, hc = coeffs(t.f), coeffs(t.g), coeffs(h)
    columns = [divide([F(0)] * k + fc, list_power(gc, k + 1, p), p) for k in range(p + 1)]
    expected = [sum((columns[k][n] * hc[k] for k in range(n + 1)), F(0)) for n in range(p + 1)]
    assert coeffs(t.apply(h)) == expected


@PROPERTY
@given(panels(2))
def test_product_parameters_match_the_composition_formulas(panel):
    (a, b), _ = panel
    ab = a @ b
    assert (ab.f, ab.g) == composed_product(a, b)  # coefficients and precision


@st.composite
def order_one(draw):
    """A precision ``p`` in 1..10 and an order-1 ``omega`` at ``p + 1``."""
    p = draw(st.integers(1, 10))
    kind = draw(st.sampled_from((SPARSE, DENSE)))
    tail = draw(st.lists(kind, min_size=p, max_size=p))
    return Series([F(0), draw(kind.filter(bool))] + tail), p


@PROPERTY
@given(order_one())
def test_reversion_is_two_sided(case):
    omega, p = case
    y = invert_series(omega, p)
    assert omega.truncate(p).compose(y) == Series.x(p)
    assert y.compose(omega.truncate(p)) == Series.x(p)
    for k in range(p + 1):
        assert invert_series(omega, k) == y.truncate(k)
