"""Polygon clipping (the array form against the per-edge Sutherland-Hodgman
loop) and certificate outlines."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_clip
from scert.certificates import Certificate, ClassifierAtPoint, Uniform, s_certificate
from scert.geometry import HalfspaceRegion, LpBall
from scert.render import (
    certificate_outline,
    clip_polygon,
    region_window_polygon,
    render_svg,
    window_polygon,
)


def convex_polygon(rng: np.random.Generator, n: int) -> np.ndarray:
    """n vertices in counterclockwise order on a randomly placed ellipse."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    radii = rng.uniform(0.2, 3.0, 2)
    return rng.uniform(-1.0, 1.0, 2) + np.column_stack(
        [radii[0] * np.cos(angles), radii[1] * np.sin(angles)])


def assert_same_clip(polygon, normal, offset):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # unused crossings must not warn
        actual = clip_polygon(polygon, normal, offset)
    expected = reference_clip(polygon, normal, offset)
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       placement=st.sampled_from(["random", "on_vertex", "inside", "outside"]),
       jitter=st.sampled_from([0.0, 1e-13, -1e-13, 1e-12, -1e-12, 2e-12, -2e-12]))
def test_matches_the_reference_clip(seed, n, placement, jitter):
    rng = np.random.default_rng(seed)
    polygon = convex_polygon(rng, n)
    normal = rng.standard_normal(2)
    values = polygon @ normal
    offset = {"random": rng.uniform(values.min() - 0.5, values.max() + 0.5),
              # a vertex on the line, up to the 1e-12 inside tolerance
              "on_vertex": values[rng.integers(n)] + jitter,
              "inside": values.max() + 1.0,
              "outside": values.min() - 1.0}[placement]
    assert_same_clip(polygon, normal, float(offset))


def test_vertices_on_the_line_within_the_tolerance():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    for jitter in (0.0, 5e-13, 1e-12, -1e-12, 3e-12):
        assert_same_clip(square, np.array([1.0, 0.0]), 1.0 + jitter)
        assert_same_clip(square, np.array([1.0, 1.0]), 1.0 + jitter)


def test_all_inside_all_outside_and_empty():
    rng = np.random.default_rng(3)
    polygon = convex_polygon(rng, 7)
    normal = np.array([0.3, -0.7])
    values = polygon @ normal
    assert np.array_equal(clip_polygon(polygon, normal, values.max() + 1.0), polygon)
    assert clip_polygon(polygon, normal, values.min() - 1.0).shape == (0, 2)
    assert_same_clip(polygon, normal, values.min() - 1.0)
    empty = np.zeros((0, 2))
    assert clip_polygon(empty, normal, 0.0).shape == (0, 2)
    assert_same_clip(empty, normal, 0.0)


@pytest.mark.parametrize("k", [0, 60, 600, 1020])
def test_a_polygon_near_the_float_range_clips_as_at_unit_size(k):
    # the clip scales by a power of two, so scaling the input scales the
    # output exactly, with no overflow, up to 2^1020 times a unit polygon
    rng = np.random.default_rng(4)
    for _ in range(100):
        polygon = convex_polygon(rng, int(rng.integers(3, 12)))
        normal = rng.standard_normal(2)
        values = polygon @ normal
        offset = float(rng.uniform(values.min() - 0.5, values.max() + 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            actual = clip_polygon(np.ldexp(polygon, k), normal, math.ldexp(offset, k))
        assert np.array_equal(actual, np.ldexp(reference_clip(polygon, normal, offset), k))


class TestCertificateOutline:
    """The outline of each certificate kind, and the checks on its input."""

    WINDOW = (-1.0, 1.0, -2.0, 2.0)

    def test_the_whole_space_is_the_dashed_window(self):
        cert = s_certificate(ClassifierAtPoint([1.0, 0.0], Uniform(LpBall(2, 0.0, [0.0, 0.0]))),
                             "u")
        poly, unbounded = certificate_outline(cert, self.WINDOW)
        assert cert.unbounded and unbounded
        assert np.array_equal(poly, window_polygon(self.WINDOW))
        assert "stroke-dasharray" in render_svg([("all", cert)], self.WINDOW)

    def test_a_window_that_misses_the_region_draws_nothing(self):
        # the region is x >= 5 (and y <= 1, y >= -1), right of the window
        region = HalfspaceRegion([[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [-5.0, 1.0, 1.0], 2)
        assert region_window_polygon(region, self.WINDOW).shape == (0, 2)
        cert = Certificate("u", "s", 2, (), region=region)
        assert "<!-- empty region -->" in render_svg([("far", cert)], self.WINDOW)

    def test_a_3d_certificate_is_refused(self):
        cert = s_certificate(
            ClassifierAtPoint([1.0, 0.0], Uniform(LpBall(2, 1.0, [0.0, 0.0, 0.0]))), "u")
        with pytest.raises(ValueError, match="supports two-dimensional certificates only"):
            certificate_outline(cert, self.WINDOW)
