"""Tests for the extension modules: predictor, coefficient calibrator,
Hilbert SFC, burstiness analysis, restart-read model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.hilbert import hilbert_key, hilbert_map
from repro.analysis.burstiness import analyze_schedule, interarrival_cv
from repro.campaign.cases import small_solver_case
from repro.campaign.runner import run_case
from repro.core.growth import GROWTH_RANGE_PAPER
from repro.core.interpolation import GrowthTable
from repro.core.predictor import DEFAULT_F, predict_sizes
from repro.core.regression import CaseFeatures, fit_linear_model
from repro.iosim.burst import BurstSchedule
from repro.iosim.darshan import IOTrace
from repro.iosim.readmodel import optimal_check_interval, restart_read_time
from repro.iosim.storage import StorageModel
from repro.parallel.topology import JobTopology
from repro.sim.inputs import CastroInputs
from repro.workload.calibrator import fit_coefficients, measure_level_cells


class TestPredictor:
    def _inputs(self, **kw):
        base = dict(n_cell=(512, 512), max_level=3, max_step=200, plot_int=10,
                    cfl=0.4, stop_time=1e9)
        base.update(kw)
        return CastroInputs(**base)

    def test_guidance_fallback(self):
        pred = predict_sizes(self._inputs(), nprocs=32)
        assert pred.growth_source == "guidance"
        assert len(pred.step_bytes) == 21
        assert pred.total_bytes > 0
        assert (np.diff(pred.cumulative_bytes) > 0).all()

    def test_eq3_anchor(self):
        pred = predict_sizes(self._inputs(), nprocs=32, f=24.0)
        # dump 0 = f * 8 * Nx * Ny (summed over ranks)
        assert pred.step_bytes[0] == pytest.approx(24.0 * 8 * 512 * 512)

    def test_table_takes_priority(self):
        table = GrowthTable()
        table.add(0.4, 3, 1.015)
        pred = predict_sizes(self._inputs(), 32, growth_table=table)
        assert pred.growth_source == "table"
        assert pred.growth == pytest.approx(1.015)

    def test_regression_source(self):
        cases = [CaseFeatures(c, l, 512**2, 32)
                 for c in (0.3, 0.6) for l in (1, 3)]
        model = fit_linear_model(cases, [1.003, 1.014, 1.008, 1.02])
        pred = predict_sizes(self._inputs(cfl=0.45), 32, regression=model)
        assert pred.growth_source == "regression"
        assert 1.0 < pred.growth < 1.03

    def test_burst_prediction(self):
        pred = predict_sizes(
            self._inputs(max_step=40), 8,
            storage=StorageModel.ideal(),
            topology=JobTopology(8, 2),
        )
        assert pred.burst_seconds is not None
        assert len(pred.burst_seconds) == 5
        assert (pred.burst_seconds > 0).all()

    def test_macsio_roundtrip(self):
        """The predicted series must equal what MACSio then produces."""
        from repro.macsio.dump import run_macsio

        pred = predict_sizes(self._inputs(max_step=50), 16)
        run = run_macsio(pred.macsio_params(), 16)
        proxy = np.asarray(run.bytes_per_dump, dtype=float)
        rel = np.abs(proxy - pred.step_bytes) / pred.step_bytes
        assert rel.mean() < 0.02  # json rounding + root metadata only

    def test_validation(self):
        with pytest.raises(ValueError):
            predict_sizes(self._inputs(), 0)

    @pytest.mark.parametrize("f", [float("nan"), float("inf")])
    def test_non_finite_f_rejected(self, f):
        """NaN slips through ``f <= 0``; it must not become a NaN series."""
        with pytest.raises(ValueError, match="f must be positive and finite"):
            predict_sizes(self._inputs(), 32, f=f)

    def test_summary(self):
        s = predict_sizes(self._inputs(), 32).summary()
        assert "512x512" in s and "guidance" in s


class TestCoefficientCalibrator:
    @pytest.fixture(scope="class")
    def solver_result(self):
        case = small_solver_case(n=64, max_level=1)
        from dataclasses import replace
        case = replace(case, inputs=replace(case.inputs, max_step=12, plot_int=4))
        return run_case(case)

    def test_measure_level_cells(self, solver_result):
        cells = measure_level_cells(solver_result)
        assert 0 in cells and 1 in cells
        assert all(c == cells[0][0] for c in cells[0])  # L0 constant
        assert len(cells[1]) == solver_result.n_outputs

    def test_fit_improves_or_matches(self, solver_result):
        from repro.workload.annulus import AnnulusCoefficients
        from repro.workload.calibrator import _generator_cells, _residual

        start = AnnulusCoefficients()
        fit = fit_coefficients(solver_result, start=start, max_evals=25)
        target = measure_level_cells(solver_result)
        start_resid = _residual(
            target,
            _generator_cells(solver_result.inputs, solver_result.nprocs, start, None),
        )
        assert fit.residual <= start_resid + 1e-9
        assert fit.evaluations > 0
        assert 0.005 < fit.coefficients.rel_width <= 0.5


class TestHilbert:
    def test_key_bijective_on_grid(self):
        keys = {hilbert_key(x, y, order=4) for x in range(16) for y in range(16)}
        assert len(keys) == 256
        assert min(keys) == 0 and max(keys) == 255

    def test_adjacency(self):
        """Consecutive Hilbert points are grid neighbours — the locality
        property Morton lacks."""
        inv = {}
        for x in range(16):
            for y in range(16):
                inv[hilbert_key(x, y, order=4)] = (x, y)
        for d in range(255):
            (x1, y1), (x2, y2) = inv[d], inv[d + 1]
            assert abs(x1 - x2) + abs(y1 - y2) == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            hilbert_key(-1, 0)
        with pytest.raises(ValueError):
            hilbert_key(16, 0, order=4)

    def test_map_balances_equal_boxes(self):
        ba = BoxArray([Box((i * 8, j * 8), (i * 8 + 7, j * 8 + 7))
                       for i in range(4) for j in range(4)])
        dm = hilbert_map(ba, 4)
        counts = [len(dm.boxes_of_rank(r)) for r in range(4)]
        assert counts == [4, 4, 4, 4]


class TestBurstiness:
    def _schedule(self, compute=1.0, variability=0.0):
        sched = BurstSchedule(
            StorageModel(stream_bandwidth=1e9, node_bandwidth=1e12,
                         metadata_latency=0.0, variability=variability),
            JobTopology(4, 2), compute,
        )
        for k in range(6):
            sched.add_step(k, [5e8] * 4)
        return sched

    def test_stats(self):
        stats = analyze_schedule(self._schedule())
        assert stats.n_bursts == 6
        assert stats.duty_cycle == pytest.approx(0.5 / 1.5)
        assert stats.mean_burst_seconds == pytest.approx(0.5)
        assert stats.interarrival_cv == pytest.approx(0.0, abs=1e-9)
        assert not stats.is_io_bound()

    def test_io_bound_detection(self):
        stats = analyze_schedule(self._schedule(compute=0.1))
        assert stats.is_io_bound()

    def test_variability_raises_cv(self):
        cv0 = interarrival_cv(self._schedule(variability=0.0))
        cv1 = interarrival_cv(self._schedule(variability=0.5))
        assert cv1 > cv0

    def test_empty_raises(self):
        sched = BurstSchedule(StorageModel.ideal(), JobTopology(1, 1))
        with pytest.raises(ValueError):
            analyze_schedule(sched)


class TestRestartModel:
    def _trace(self):
        tr = IOTrace()
        for r in range(4):
            tr.record(20, 0, r, 250_000_000, f"chk/L0/Cell_D_{r:05d}")
        tr.record(20, -1, 0, 5000, "chk/Header", kind="metadata")
        return tr

    def test_restart_cost(self):
        cost = restart_read_time(
            self._trace(), step=20, nprocs=4,
            storage=StorageModel(stream_bandwidth=1e9, node_bandwidth=1e12,
                                 metadata_latency=1e-3, variability=0.0),
            topology=JobTopology(4, 2),
        )
        assert cost.data_bytes == 1_000_000_000
        assert cost.metadata_bytes == 5000
        # 250 MB/rank at 1 GB/s / 1.2 speedup ~ 0.21 s
        assert cost.read_seconds == pytest.approx(0.25 / 1.2, rel=0.05)
        assert cost.total_seconds > cost.read_seconds

    def test_reads_faster_than_writes(self):
        storage = StorageModel.ideal()
        c1 = restart_read_time(self._trace(), 20, 4, storage,
                               JobTopology(4, 2), read_bandwidth_factor=1.0)
        c2 = restart_read_time(self._trace(), 20, 4, storage,
                               JobTopology(4, 2), read_bandwidth_factor=2.0)
        assert c2.read_seconds == pytest.approx(c1.read_seconds / 2)

    def test_youngs_formula(self):
        # C = 50 s, MTBF = 1 day -> ~ 2939 s
        t = optimal_check_interval(50.0, 86400.0)
        assert t == pytest.approx(np.sqrt(2 * 50 * 86400))
        with pytest.raises(ValueError):
            optimal_check_interval(0.0, 1.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255))
def test_hilbert_key_deterministic_and_bounded(x, y):
    k = hilbert_key(x, y, order=8)
    assert 0 <= k < 256 * 256
    assert k == hilbert_key(x, y, order=8)
