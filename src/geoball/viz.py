"""Static 2D pictures of a ball space as standalone SVG documents.

Centres are projected onto the top-2 principal axes of the selected
concepts' centres; radii are drawn at their original (unprojected) values,
so containment in the picture is indicative rather than exact. A legend
line states this. Optional projected feature points are drawn as dots
colored by their ground-truth label.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

import numpy as np

from .embedding import BallSpace

_CANVAS = 640
_MARGIN = 60
# fixed qualitative palette; labels cycle through it deterministically
_COLORS = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def principal_projection(centres: np.ndarray) -> np.ndarray:
    """Rank-2 projection matrix (dim, 2) onto the centres' principal axes.

    For 2D input this is the identity. Degenerate spreads (all centres
    identical, or spread confined to one direction) fall back to unit axes
    for the missing components.
    """
    centres = np.asarray(centres, dtype=float)
    if centres.ndim != 2:
        raise ValueError("centres must be a 2-d array of shape (n, dim)")
    dim = centres.shape[1]
    if dim < 2:
        raise ValueError("ball space must have dimension >= 2 to project")
    if dim == 2:
        return np.eye(2)

    deviations = centres - centres.mean(axis=0)
    # SVD of the deviation matrix gives principal axes without forming
    # the covariance; rank tells how many directions actually vary.
    _, singulars, vt = np.linalg.svd(deviations, full_matrices=False)
    tol = max(centres.shape) * np.finfo(float).eps * (singulars[0] if len(singulars) else 0.0)
    rank = int((singulars > tol).sum())
    axes = []
    for i in range(min(rank, 2)):
        axis = vt[i]
        # sign convention: largest-magnitude component positive
        lead = axis[np.argmax(np.abs(axis))]
        axes.append(axis if lead >= 0 else -axis)
    unit = 0
    while len(axes) < 2:
        # unit-axes fallback, skipping directions already spanned
        while unit < dim:
            candidate = np.zeros(dim)
            candidate[unit] = 1.0
            unit += 1
            if not axes:
                axes.append(candidate)
                break
            basis = np.stack(axes)
            residual = candidate - basis.T @ (basis @ candidate)
            norm = np.linalg.norm(residual)
            if norm > 1e-9:
                axes.append(residual / norm)
                break
        else:
            raise RuntimeError("could not complete projection basis")
    return np.stack(axes, axis=1)


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def render_balls_2d(space: BallSpace, concepts, points=None,
                    point_labels=None) -> str:
    """SVG document showing the selected concepts' balls in 2D.

    points: optional (m, dim) array of ball-space vectors (projected
    features); point_labels: matching label sequence used for coloring.
    """
    names = list(concepts)
    if not names:
        raise ValueError("need at least one concept to draw")
    missing = [n for n in names if n not in space.index]
    if missing:
        raise ValueError(f"unknown concepts: {missing} (no ball in the space)")
    centres = np.stack([space.centre_of(n) for n in names])
    radii = np.array([space.radius_of(n) for n in names])

    proj = principal_projection(centres)
    flat = centres @ proj
    pts2 = None
    labels = []
    if points is not None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != space.dim:
            raise ValueError("points must be (m, dim) in ball space")
        pts2 = pts @ proj
        labels = list(point_labels) if point_labels is not None else [""] * len(pts)
        if len(labels) != len(pts):
            raise ValueError("point_labels length must match points")

    stack = [flat] if pts2 is None or not len(pts2) else [flat, pts2]
    all2 = np.vstack(stack)
    low = (all2 - radii.max()).min()
    high = (all2 + radii.max()).max()
    span = high - low
    if span <= 0:
        span = 1.0
    scale = (_CANVAS - 2 * _MARGIN) / span

    def sx(v: float) -> str:
        return _fmt(_MARGIN + (v - low) * scale)

    def sy(v: float) -> str:
        # flip the second axis so larger values are drawn upward
        return _fmt(_CANVAS - _MARGIN - (v - low) * scale)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS}" '
        f'height="{_CANVAS}" viewBox="0 0 {_CANVAS} {_CANVAS}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    # big balls first so small ones stay visible
    order = sorted(range(len(names)), key=lambda i: -radii[i])
    for i in order:
        colour = _COLORS[i % len(_COLORS)]
        lines.append(
            f'<circle cx="{sx(flat[i, 0])}" cy="{sy(flat[i, 1])}" '
            f'r="{_fmt(radii[i] * scale)}" fill="none" '
            f'stroke="{colour}" stroke-width="1.5"/>'
        )
        lines.append(
            f'<text x="{sx(flat[i, 0])}" y="{sy(flat[i, 1])}" '
            f'font-size="11" text-anchor="middle" fill="{colour}">'
            f'{escape(names[i])}</text>'
        )
    if pts2 is not None:
        palette = {lab: _COLORS[j % len(_COLORS)]
                   for j, lab in enumerate(sorted(set(labels)))}
        for k in range(len(pts2)):
            lines.append(
                f'<circle cx="{sx(pts2[k, 0])}" cy="{sy(pts2[k, 1])}" r="2.5" '
                f'fill="{palette[labels[k]]}"/>'
            )
    lines.append(
        f'<text x="{_MARGIN}" y="{_CANVAS - 18}" font-size="11" fill="#444">'
        "radii are unprojected; 2D containment is indicative only</text>"
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
