"""Exactness and sanity checks for the fixed quadrature rules."""

import math

import numpy as np
import pytest

from amfem.quadrature import (EDGE_3, EDGE_3_DEG, EDGE_5, EDGE_5_DEG, TRI_6,
                              TRI_6_DEG, TRI_7, TRI_7_DEG, edge_points,
                              tri_points)

REF_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def ref_monomial_integral(a, b):
    # int_T x^a y^b over the unit reference triangle
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("rule,deg", [(TRI_6, TRI_6_DEG), (TRI_7, TRI_7_DEG)])
def test_triangle_monomial_exactness(rule, deg):
    pts = tri_points(rule, REF_TRI[None])
    _, w = rule
    area = 0.5
    for a in range(deg + 1):
        for b in range(deg + 1 - a):
            got = area * float(np.dot(pts[0, :, 0] ** a * pts[0, :, 1] ** b, w))
            assert got == pytest.approx(ref_monomial_integral(a, b), abs=1e-15)


@pytest.mark.parametrize("rule", [TRI_6, TRI_7])
def test_triangle_rule_shape(rule):
    bary, w = rule
    assert np.all(w > 0.0)
    assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-15)
    # barycentric points lie strictly inside the triangle
    assert np.all(bary > 0.0) and np.all(bary < 1.0)
    assert np.allclose(bary.sum(axis=1), 1.0, atol=1e-15)


def test_triangle_rules_agree_on_shared_degrees():
    # both rules are exact through degree 4, so they integrate the same
    # quartic identically on arbitrary triangles
    rng = np.random.default_rng(7)
    for _ in range(20):
        tri = rng.normal(size=(1, 3, 2))
        p6 = tri_points(TRI_6, tri)
        p7 = tri_points(TRI_7, tri)

        def quartic(x, y):
            return 1.3 - x + 0.5 * y + x * y - x ** 2 * y ** 2 + y ** 4

        i6 = float(np.dot(quartic(p6[0, :, 0], p6[0, :, 1]), TRI_6[1]))
        i7 = float(np.dot(quartic(p7[0, :, 0], p7[0, :, 1]), TRI_7[1]))
        assert i6 == pytest.approx(i7, rel=1e-13)


@pytest.mark.parametrize("rule,npts", [(EDGE_3, 3), (EDGE_5, 5)])
def test_edge_monomial_exactness(rule, npts):
    # n-point Gauss is exact through degree 2n-1 on [0, 1]
    deg = {3: EDGE_3_DEG, 5: EDGE_5_DEG}[npts]
    t, w = rule
    assert t.shape == (npts,)
    assert deg == 2 * npts - 1
    for k in range(deg + 1):
        got = float(np.dot(t ** k, w))
        assert got == pytest.approx(1.0 / (k + 1), abs=1e-14)
    assert float(np.dot(t ** (deg + 1), w)) != \
        pytest.approx(1.0 / (deg + 2), abs=1e-14)


def test_edge_points_parametrization():
    a = np.array([[0.0, 1.0], [2.0, 2.0]])
    b = np.array([[1.0, 1.0], [2.0, 4.0]])
    pts = edge_points(EDGE_3, a, b)
    t, _ = EDGE_3
    assert pts.shape == (2, 3, 2)
    # straight-line interpolation between the endpoints
    assert np.allclose(pts[0, :, 0], t)
    assert np.allclose(pts[0, :, 1], 1.0)
    assert np.allclose(pts[1, :, 1], 2.0 + 2.0 * t)


def test_tri_points_affine_map():
    tri = np.array([[[1.0, 2.0], [3.0, 2.0], [1.0, 5.0]]])
    pts = tri_points(TRI_7, tri)
    bary, _ = TRI_7
    want = bary @ tri[0]
    assert np.allclose(pts[0], want, atol=1e-15)
