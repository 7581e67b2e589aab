"""Tests for Eq. (3), growth calibration, errors, translator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import (
    final_cumulative_error,
    max_relative_error,
    mean_relative_error,
    relative_errors,
    shape_correlation,
)
from repro.core.growth import (
    GROWTH_RANGE_PAPER,
    calibrate_growth,
    growth_series,
)
from repro.core.part_size import (
    CASE4_PART_SIZE,
    F_RANGE_PAPER,
    fit_correction_factor,
    part_size_model,
)
from repro.core.translator import ProxyModel, command_line, translate
from repro.macsio.miftmpl import json_inflation
from repro.sim.inputs import CastroInputs


class TestEq3:
    def test_paper_case4_value(self):
        """1550000 ~ 23.65 * 512^2 * 8 / 32 (the paper's pinned number)."""
        ps = part_size_model(23.65, 512, 512, 32)
        assert ps == pytest.approx(CASE4_PART_SIZE, rel=0.001)

    def test_scaling(self):
        assert part_size_model(24, 512, 512, 64) == pytest.approx(
            part_size_model(24, 512, 512, 32) / 2
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            part_size_model(0, 512, 512, 32)
        with pytest.raises(ValueError):
            part_size_model(24, 512, 512, 0)
        with pytest.raises(ValueError):
            part_size_model(24, 0, 512, 2)
        for f in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="f must be positive and finite"):
                part_size_model(f, 512, 512, 32)

    def test_fit_inverts_model(self):
        f_true = 24.5
        total = part_size_model(f_true, 256, 256, 16) * 16
        f_fit = fit_correction_factor([total, total * 1.01], 256, 256, 16)
        assert f_fit == pytest.approx(f_true)

    def test_fit_references(self):
        # the fit anchors on dump 0; later (grown) dumps do not move it
        obs = [100.0, 200.0, 300.0]
        f = fit_correction_factor(obs, 8, 8, 1)
        assert f == 100.0 / (8.0 * 8 * 8) == fit_correction_factor(obs[:1], 8, 8, 1)

    def test_fit_empty(self):
        with pytest.raises(ValueError):
            fit_correction_factor([], 8, 8, 1)


class TestGrowthCalibration:
    def test_recovers_exact_growth(self):
        obs = growth_series(1e6, 1.013075, 21)
        cal = calibrate_growth(obs)
        assert cal.growth == pytest.approx(1.013075, abs=1e-5)
        assert cal.base_bytes == pytest.approx(1e6)

    def test_paper_range_constant(self):
        assert GROWTH_RANGE_PAPER == (1.0, 1.02)

    def test_flat_series_gives_unity(self):
        cal = calibrate_growth([5e5] * 10)
        assert cal.growth == pytest.approx(1.0, abs=1e-4)

    def test_iterations_recorded(self):
        obs = growth_series(1e6, 1.01, 10)
        cal = calibrate_growth(obs)
        assert cal.n_iterations > 3
        gs = [g for g, _ in cal.iterations]
        assert min(gs) >= 0.95 and max(gs) <= 1.25

    def test_convergence_curves_shapes(self):
        obs = growth_series(1e6, 1.01, 10)
        cal = calibrate_growth(obs)
        curves = cal.convergence_curves(10)
        assert 2 <= len(curves) <= 9
        assert all(len(c) == 10 for c in curves)
        # last curve is the solution
        assert np.allclose(curves[-1], growth_series(1e6, cal.growth, 10))

    def test_absolute_weighting(self):
        obs = growth_series(1e6, 1.015, 15)
        cal = calibrate_growth(obs, weight="absolute")
        assert cal.growth == pytest.approx(1.015, abs=1e-4)
        with pytest.raises(ValueError):
            calibrate_growth(obs, weight="huber")

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            calibrate_growth([1.0])

    def test_noisy_recovery(self):
        rng = np.random.default_rng(0)
        obs = growth_series(1e6, 1.012, 40) * rng.normal(1.0, 0.02, 40)
        cal = calibrate_growth(obs)
        assert cal.growth == pytest.approx(1.012, abs=2e-3)


class TestErrors:
    def test_relative_errors(self):
        e = relative_errors([110.0, 90.0], [100.0, 100.0])
        assert np.allclose(e, [0.1, 0.1])
        assert max_relative_error([110.0], [100.0]) == pytest.approx(0.1)
        assert mean_relative_error([110.0, 100.0], [100.0, 100.0]) == pytest.approx(0.05)

    def test_final_cumulative(self):
        assert final_cumulative_error([60.0, 60.0], [50.0, 50.0]) == pytest.approx(0.2)

    def test_shape_correlation(self):
        obs = np.array([1.0, 2.0, 3.0])
        assert shape_correlation(2 * obs, obs) == pytest.approx(1.0)
        assert shape_correlation(obs[::-1], obs) == pytest.approx(-1.0)
        assert shape_correlation([5.0, 5.0, 5.0], obs) == 0.0
        assert shape_correlation([5.0, 5.0], [3.0, 3.0]) == 1.0

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            relative_errors([1.0], [1.0, 2.0])

    def test_nonpositive_observed(self):
        with pytest.raises(ValueError):
            relative_errors([1.0], [0.0])


class TestTranslator:
    def _inputs(self):
        return CastroInputs(n_cell=(512, 512), max_step=200, plot_int=10,
                            max_level=3, cfl=0.4, stop_time=1e9)

    def test_listing1_mapping(self):
        model = ProxyModel(f=23.65, dataset_growth=1.013075)
        params = translate(self._inputs(), 32, model)
        assert params.interface == "miftmpl"
        assert params.parallel_file_mode == "MIF"
        assert params.file_count == 32
        assert params.num_dumps == 21  # 200/10 + 1
        assert params.avg_num_parts == 1.0
        assert params.vars_per_part == 1
        assert params.dataset_growth == pytest.approx(1.013075)

    def test_output_anchoring_deflates_json(self):
        m_anchored = ProxyModel(f=24.0, dataset_growth=1.0, anchor_output=True)
        m_raw = ProxyModel(f=24.0, dataset_growth=1.0, anchor_output=False)
        p_a = translate(self._inputs(), 32, m_anchored)
        p_r = translate(self._inputs(), 32, m_raw)
        assert p_a.part_size == pytest.approx(p_r.part_size / json_inflation())

    def test_command_line_render(self):
        cmd = command_line(self._inputs(), 32, ProxyModel(f=24.0, dataset_growth=1.01))
        assert cmd.startswith("jsrun -n 32 macsio")
        assert "--parallel_file_mode MIF 32" in cmd
        assert "--dataset_growth" in cmd

    def test_validation(self):
        with pytest.raises(ValueError):
            ProxyModel(f=-1.0, dataset_growth=1.0)
        for f in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="f must be positive and finite"):
                ProxyModel(f=f, dataset_growth=1.0)
        with pytest.raises(ValueError):
            ProxyModel(f=24.0, dataset_growth=0.0)
        with pytest.raises(ValueError):
            translate(self._inputs(), 0, ProxyModel(f=24.0, dataset_growth=1.0))


@settings(max_examples=30, deadline=None)
@given(st.floats(1.0, 1.05), st.integers(5, 30), st.floats(1e4, 1e8))
def test_growth_roundtrip_property(g_true, n, base):
    obs = growth_series(base, g_true, n)
    cal = calibrate_growth(obs)
    assert cal.growth == pytest.approx(g_true, abs=1e-4)
