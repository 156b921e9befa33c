import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from geoball.embedding import BallSpace
from geoball.viz import principal_projection, render_balls_2d


def make_space(centres, radii, names=None):
    centres = np.asarray(centres, dtype=float)
    names = tuple(names or [f"c{i}" for i in range(len(centres))])
    return BallSpace(dim=centres.shape[1], concepts=names,
                     centres=centres, radii=np.asarray(radii, dtype=float))


def pairwise_sq(points):
    d = points[:, None, :] - points[None, :, :]
    return (d ** 2).sum(axis=2)


class TestPrincipalProjection:
    def test_identity_for_2d(self):
        centres = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert np.array_equal(principal_projection(centres), np.eye(2))

    def test_projection_shape_and_orthonormality(self):
        rng = np.random.default_rng(0)
        centres = rng.normal(size=(12, 7))
        proj = principal_projection(centres)
        assert proj.shape == (7, 2)
        assert np.allclose(proj.T @ proj, np.eye(2), atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        centres = rng.normal(size=(9, 5))
        assert np.array_equal(principal_projection(centres),
                              principal_projection(centres))

    def test_degenerate_all_identical_falls_back_to_unit_axes(self):
        centres = np.tile([1.0, 2.0, 3.0, 4.0], (5, 1))
        proj = principal_projection(centres)
        assert np.allclose(proj, np.eye(4)[:, :2])

    def test_rank_one_spread_completes_with_unit_axis(self):
        # centres vary along a single direction; second axis must be filled in
        centres = np.outer(np.arange(4.0), np.array([0.0, 1.0, 0.0]))
        proj = principal_projection(centres)
        assert np.allclose(proj.T @ proj, np.eye(2), atol=1e-12)
        assert np.allclose(proj[:, 0], [0.0, 1.0, 0.0])

    def test_beats_random_rank2_projections_on_distance_preservation(self):
        # PCA is the least-squares-optimal rank-2 linear projection, so no
        # random projection may preserve squared pairwise distances better.
        rng = np.random.default_rng(7)
        centres = rng.normal(size=(15, 6)) * np.array([4.0, 3.0, 2.0, 1.0, 0.5, 0.25])
        proj = principal_projection(centres)
        target = pairwise_sq(centres - centres.mean(axis=0))
        pca_err = np.abs(target - pairwise_sq((centres - centres.mean(axis=0)) @ proj)).sum()
        for seed in range(20):
            q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(6, 2)))
            rand_err = np.abs(target - pairwise_sq((centres - centres.mean(axis=0)) @ q)).sum()
            assert pca_err <= rand_err + 1e-9

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            principal_projection(np.array([[1.0], [2.0]]))


class TestRenderBalls2d:
    def test_well_formed_xml(self):
        space = make_space([[0.0, 0.0, 0.0], [2.0, 1.0, 0.5]], [1.0, 0.4])
        svg = render_balls_2d(space, space.concepts)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_contains_circle_per_concept_and_legend(self):
        space = make_space([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]], [1.0, 0.5, 0.25])
        svg = render_balls_2d(space, space.concepts)
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        circles = root.findall(f"{ns}circle")
        assert len(circles) == 3
        assert "indicative" in svg

    def test_2d_identity_circle_radii_scale_uniformly(self):
        # in 2D the projection is identity, so drawn radii keep their ratio
        space = make_space([[0.0, 0.0], [4.0, 0.0]], [2.0, 1.0])
        svg = render_balls_2d(space, space.concepts)
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        rs = sorted(float(c.get("r")) for c in root.findall(f"{ns}circle"))
        assert rs[1] == pytest.approx(2.0 * rs[0])

    def test_nested_fixture_child_circle_within_parent(self):
        # projected distance + child radius stays below the parent radius
        space = make_space([[0.0, 0.0, 0.0], [0.3, 0.1, 0.0]], [2.0, 0.5],
                           names=("parent", "child"))
        svg = render_balls_2d(space, space.concepts)
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        by_r = {}
        for c in root.findall(f"{ns}circle"):
            by_r[float(c.get("r"))] = (float(c.get("cx")), float(c.get("cy")))
        r_parent, r_child = max(by_r), min(by_r)
        (px, py), (cx, cy) = by_r[r_parent], by_r[r_child]
        dist = ((px - cx) ** 2 + (py - cy) ** 2) ** 0.5
        assert dist + r_child <= r_parent + 1e-6

    def test_single_concept(self):
        space = make_space([[1.0, 2.0, 3.0]], [0.7], names=("only",))
        svg = render_balls_2d(space, ["only"])
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        assert len(root.findall(f"{ns}circle")) == 1

    def test_points_drawn_and_colored_by_label(self):
        space = make_space([[0.0, 0.0], [3.0, 0.0]], [1.0, 1.0], names=("a", "b"))
        pts = np.array([[0.1, 0.2], [2.9, -0.1], [0.0, 0.5]])
        svg = render_balls_2d(space, space.concepts, points=pts,
                              point_labels=["a", "b", "a"])
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        dots = [c for c in root.findall(f"{ns}circle") if c.get("fill") != "none"]
        assert len(dots) == 3
        fills = {d.get("fill") for d in dots}
        assert len(fills) == 2

    def test_deterministic_output(self):
        space = make_space([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]], [0.5, 0.6])
        assert render_balls_2d(space, space.concepts) == \
            render_balls_2d(space, space.concepts)

    def test_escapes_names(self):
        space = make_space([[0.0, 0.0]], [1.0], names=("a<b&c",))
        svg = render_balls_2d(space, space.concepts)
        ET.fromstring(svg)
        assert "a<b&c" not in svg and "a&lt;b&amp;c" in svg

    def test_unknown_concept_rejected(self):
        space = make_space([[0.0, 0.0]], [1.0], names=("a",))
        with pytest.raises(ValueError, match=re.escape(
                "no ball for concepts to draw: ['ghost']")):
            render_balls_2d(space, ["a", "ghost"])

    def test_empty_selection_rejected(self):
        space = make_space([[0.0, 0.0]], [1.0])
        with pytest.raises(ValueError):
            render_balls_2d(space, [])
