"""SVG rendering of two-dimensional certificates.

Halfspace certificates are drawn as exact polygons (the window rectangle
clipped by every halfspace); ball and support-oracle certificates sample the
boundary at :data:`ANGLE_SAMPLES` directions.  Certificates that extend
beyond the window are clipped visually and drawn with a dashed outline.
"""

from __future__ import annotations

import math

import numpy as np

from . import geometry
from .certificates import Certificate
from .geometry import HalfspaceRegion

ANGLE_SAMPLES = 256
DEFAULT_WINDOW = (-3.0, 3.0, -3.0, 3.0)
SVG_WIDTH = 480  # pixels; the height keeps the window's aspect ratio
CLIP_SLACK = 1e-12  # a vertex this far past a clipping line still counts as inside

_PALETTE = ["#1b6ca8", "#c2571a", "#2a9d4e", "#8a4fae", "#b02e3a", "#6b6461"]


def clip_polygon(polygon: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon by {x : normal.x <= offset}:
    each vertex inside, then the crossing point of its edge if the edge crosses.
    It computes in coordinates scaled by a power of two to the size of the
    polygon and the offset, which is exact and keeps the products finite in
    a window near the float range."""
    if polygon.shape[0] == 0:
        return polygon
    shift = math.frexp(max(float(np.abs(polygon).max()), abs(offset)))[1]
    scaled = np.ldexp(polygon, -shift)
    offset = math.ldexp(offset, -shift)
    values = scaled @ normal
    inside = values <= offset + math.ldexp(CLIP_SLACK, -shift)
    following = np.roll(scaled, -1, axis=0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # edges that do not cross
        t = (offset - values) / (np.roll(values, -1) - values)
        crossings = np.ldexp(scaled + t[:, None] * (following - scaled), shift)
    keep = np.column_stack([inside, inside != np.roll(inside, -1)])
    return np.stack([polygon, crossings], axis=1)[keep]


def window_polygon(window: tuple[float, float, float, float]) -> np.ndarray:
    xmin, xmax, ymin, ymax = window
    return np.array([[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax]])


def region_window_polygon(region: HalfspaceRegion,
                          window: tuple[float, float, float, float]) -> np.ndarray:
    poly = window_polygon(window)
    for normal, offset in zip(region.normals, region.offsets):
        poly = clip_polygon(poly, normal, float(offset))
        if poly.shape[0] == 0:
            break
    return poly


def certificate_outline(cert: Certificate,
                        window: tuple[float, float, float, float]
                        ) -> tuple[np.ndarray, bool]:
    """Boundary polygon of a certificate clipped to the window, plus an
    is-unbounded flag."""
    if cert.dim != 2:
        raise ValueError("rendering supports two-dimensional certificates only")
    if cert.unbounded:
        return window_polygon(window), True
    if cert.region is not None:
        poly = region_window_polygon(cert.region, window)
        return poly, geometry.region_is_unbounded(cert.region)
    angles = np.linspace(0.0, 2.0 * math.pi, ANGLE_SAMPLES, endpoint=False)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    extents = cert.ray_extent(dirs)
    unbounded = bool(np.any(np.isinf(extents)))
    span = max(abs(v) for v in window)
    extents = np.minimum(extents, 4.0 * span)
    poly = dirs * extents[:, None]
    for normal, offset in (((-1.0, 0.0), -window[0]), ((1.0, 0.0), window[1]),
                           ((0.0, -1.0), -window[2]), ((0.0, 1.0), window[3])):
        poly = clip_polygon(poly, np.asarray(normal), float(offset))
    return poly, unbounded


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _polygon_element(poly: np.ndarray, color: str, dashed: bool) -> str:
    if poly.shape[0] == 0:
        return "<!-- empty region -->"
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in poly.tolist())
    dash = ' stroke-dasharray="0.12,0.08"' if dashed else ""
    return (f'<polygon points="{pts}" fill="{color}" fill-opacity="0.15" '
            f'stroke="{color}" stroke-width="0.03"{dash} />')


def render_svg(layers: list[tuple[str, Certificate]],
               window: tuple[float, float, float, float] | None = None) -> str:
    """SVG 1.1 document with one group per named certificate layer."""
    window = window or DEFAULT_WINDOW
    xmin, xmax, ymin, ymax = window
    width, height = xmax - xmin, ymax - ymin
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(xmin)} {_fmt(-ymax)} {_fmt(width)} {_fmt(height)}" '
        f'width="{SVG_WIDTH}" height="{_fmt(SVG_WIDTH * height / width)}">',
        '<g transform="scale(1,-1)">',
        f'<g id="axes" stroke="#999" stroke-width="0.015">'
        f'<line x1="{_fmt(xmin)}" y1="0" x2="{_fmt(xmax)}" y2="0" />'
        f'<line x1="0" y1="{_fmt(ymin)}" x2="0" y2="{_fmt(ymax)}" /></g>',
    ]
    for idx, (name, cert) in enumerate(layers):
        color = _PALETTE[idx % len(_PALETTE)]
        poly, unbounded = certificate_outline(cert, window)
        parts.append(f'<g id="layer-{name}">')
        parts.append(_polygon_element(poly, color, unbounded))
        parts.append("</g>")
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts)
