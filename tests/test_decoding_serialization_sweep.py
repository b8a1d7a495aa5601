"""Tests for the architecture design-space sweep."""

import pytest

from repro.arch import (
    DesignPoint,
    default_design_space,
    pareto_frontier,
    sweep_designs,
)


class TestDesignSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return sweep_designs(
            space={"bm": (3, 4), "g": (8, 16), "v": (16, 32),
                   "num_arrays": (4, 8)},
            workloads=("AlexNet", "ResNet18"),
        )

    def test_all_points_feasible(self, points):
        from repro.rns import special_moduli_set

        for p in points:
            assert special_moduli_set(p.k).supports_bfp(p.bm, p.g)

    def test_grid_size(self, points):
        assert len(points) == 2 * 2 * 2 * 2

    def test_frontier_nondominated(self, points):
        front = pareto_frontier(points)
        accurate = [p for p in points if p.accurate]
        assert 0 < len(front) <= len(accurate)
        for p in front:
            assert p.accurate
            assert not any(q.dominates(p) for q in accurate)

    def test_inaccurate_points_excluded_by_default(self, points):
        front = pareto_frontier(points)
        assert all(p.bm >= 4 for p in front)
        unfiltered = pareto_frontier(points, require_accurate=False)
        assert any(p.bm == 3 for p in unfiltered)

    def test_paper_point_on_frontier(self):
        """bm=4, g=16 must survive the paper's own grid."""
        pts = sweep_designs(workloads=("ResNet18",))
        front = pareto_frontier(pts)
        assert any(p.bm == 4 and p.g == 16 for p in front)

    def test_dominance_relation(self):
        a = DesignPoint(4, 16, 32, 8, 5, 1e-13, 1e-4, 10.0, 1.0, 1e13)
        b = DesignPoint(4, 16, 32, 8, 5, 2e-13, 2e-4, 10.0, 1.0, 1e13)
        assert a.dominates(b)
        assert not b.dominates(a)
        assert not a.dominates(a)

    def test_default_space_contains_paper_point(self):
        space = default_design_space()
        assert 4 in space["bm"] and 16 in space["g"] and 32 in space["v"]
