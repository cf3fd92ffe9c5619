"""Heterogeneity-degree sweep."""

import pytest

from repro.experiments.sweeps import heterogeneity_sweep


@pytest.fixture(scope="module")
def sweep():
    return heterogeneity_sweep(ratios=(1.01, 2.0, 4.0), scale=0.1,
                               algorithms=("Het", "ODDOML", "BMM"))


class TestHeterogeneitySweep:
    def test_point_per_ratio(self, sweep):
        assert [pt.ratio for pt in sweep.points] == [1.01, 2.0, 4.0]

    def test_all_algorithms_measured(self, sweep):
        for pt in sweep.points:
            assert set(pt.makespans) == {"Het", "ODDOML", "BMM"}

    def test_het_stays_competitive(self, sweep):
        for pt in sweep.points:
            assert pt.relative("Het") <= 1.6

    def test_bound_dominates(self, sweep):
        for pt in sweep.points:
            for mk in pt.makespans.values():
                assert mk >= pt.bound * (1 - 1e-9)

    def test_gain_over(self, sweep):
        pt = sweep.points[-1]
        assert pt.gain_over("Het", "BMM") == pytest.approx(
            1 - pt.makespans["Het"] / pt.makespans["BMM"]
        )

    def test_series_and_table(self, sweep):
        series = sweep.series("Het")
        assert len(series) == 3
        text = sweep.table()
        assert "ratio" in text and "Het/bound" in text


class TestStragglerSweep:
    @pytest.fixture(scope="class")
    def straggler(self):
        from repro.experiments.sweeps import straggler_sweep

        return straggler_sweep(slowdowns=(1.0, 8.0), scale=0.1, p=4,
                               algorithms=("Het", "ORROML"))

    def test_points(self, straggler):
        assert [pt.ratio for pt in straggler.points] == [1.0, 8.0]

    def test_het_absorbs_straggler_better(self, straggler):
        """With an 8x straggler, selection-aware Het degrades less than
        blind round-robin (which keeps feeding the slow worker)."""
        base = straggler.points[0]
        hit = straggler.points[-1]
        het_growth = hit.makespans["Het"] / base.makespans["Het"]
        rr_growth = hit.makespans["ORROML"] / base.makespans["ORROML"]
        assert het_growth <= rr_growth + 1e-9

    def test_blind_algorithms_inherit_straggler_pace(self, straggler):
        hit = straggler.points[-1]
        assert hit.makespans["ORROML"] >= hit.makespans["Het"]


def test_algorithm_names_are_case_insensitive():
    """Sweeps key their results by the registered spelling, so lowercase
    names read back through the sweep's own accessors."""
    from repro.experiments.sweeps import straggler_sweep

    het = heterogeneity_sweep(ratios=(2.0,), scale=0.1, algorithms=("het", "bmm"))
    strag = straggler_sweep(slowdowns=(4.0,), scale=0.1, p=4, algorithms=("het", "orroml"))
    assert het.algorithms == ["Het", "BMM"]
    assert strag.algorithms == ["Het", "ORROML"]
    for sweep in (het, strag):
        pt = sweep.points[0]
        assert [pt.relative(a) for a in sweep.algorithms] == [
            pt.makespans[a] / min(pt.makespans.values()) for a in sweep.algorithms
        ]
        assert "Het/bound" in sweep.table()
