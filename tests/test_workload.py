"""Tests for the analytic Sedov workload generator."""

import tracemalloc

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.geometry import Geometry
from repro.amr.grid import GridParams
from repro.hydro.eos import GammaLawEOS
from repro.hydro.sedov import SedovProblem
from repro.sim.inputs import CastroInputs
from repro.workload.annulus import (
    AnnulusCoefficients,
    annulus_boxarray,
    refined_region_mask,
)
from repro.workload.generator import SedovWorkloadGenerator
from repro.workload.timebase import SedovTimebase

EOS = GammaLawEOS()


class TestTimebase:
    def _tb(self, cfl=0.5, dx0=1.0 / 512):
        return SedovTimebase(SedovProblem(), EOS, dx0, cfl)

    def test_ramp_up(self):
        tb = self._tb()
        seq = tb.run(max_step=10)
        dts = [r.dt for r in seq]
        # init_shrink makes the first step tiny; change_max ramps it.
        assert dts[1] / dts[0] == pytest.approx(1.1, rel=1e-6)

    def test_times_monotone(self):
        seq = self._tb().run(max_step=50)
        times = [r.time for r in seq]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_higher_cfl_reaches_farther(self):
        t_lo = self._tb(cfl=0.3).run(max_step=100)[-1].time
        t_hi = self._tb(cfl=0.6).run(max_step=100)[-1].time
        assert t_hi > t_lo

    def test_output_times_include_step0(self):
        out = self._tb().output_times(max_step=40, plot_int=10)
        assert [s for s, _ in out] == [0, 10, 20, 30, 40]
        assert out[0][1] == 0.0

    def test_stop_time_respected(self):
        seq = self._tb().run(max_step=100000, stop_time=1e-6)
        assert seq[-1].time >= 1e-6
        # at most one step past the stop time
        assert seq[-2].time < 1e-6

    def test_wave_speed_decays_at_late_times(self):
        tb = self._tb()
        assert tb.max_wave_speed(1.0) < tb.max_wave_speed(1e-3)


class TestAnnulusMask:
    def _geom(self, n=256):
        from repro.amr.box import Box
        from repro.amr.geometry import Geometry

        return Geometry(Box.cell_centered(n, n))

    def test_band_tiles_near_radius(self):
        geom = self._geom()
        mask = refined_region_mask(geom, tile=8, radius=0.3, half_width=0.02,
                                   core_radius=0.05, center=(0.5, 0.5))
        tnx = 256 // 8
        xs = (np.arange(tnx) + 0.5) * 8 / 256
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        r = np.sqrt((X - 0.5) ** 2 + (Y - 0.5) ** 2)
        # tiles well inside the band must be tagged
        assert mask[(np.abs(r - 0.3) < 0.01)].all()
        # tiles far outside must not be
        assert not mask[r > 0.45].any()

    def test_core_disk_tagged(self):
        geom = self._geom()
        mask = refined_region_mask(geom, tile=8, radius=0.4, half_width=0.01,
                                   core_radius=0.1, center=(0.5, 0.5))
        tnx = 256 // 8
        c = tnx // 2
        assert mask[c, c]

    def test_indivisible_tile_rejected(self):
        with pytest.raises(ValueError):
            refined_region_mask(self._geom(100), tile=8, radius=0.2,
                                half_width=0.01, core_radius=0.0)

    def test_mask_area_scales_with_radius(self):
        geom = self._geom()
        small = refined_region_mask(geom, 8, 0.1, 0.02, 0.0, (0.5, 0.5)).sum()
        large = refined_region_mask(geom, 8, 0.4, 0.02, 0.0, (0.5, 0.5)).sum()
        assert large > 2 * small  # circumference grows with R

    @pytest.mark.parametrize("geom,tile,radius,half_width,core_radius,center", [
        # non-square domain
        (Geometry(Box.cell_centered(512, 256)), 8, 0.3, 0.02, 0.05, (0.5, 0.5)),
        # prob_lo != 0, off-center blast
        (Geometry(Box.cell_centered(384, 384), prob_lo=(-0.5, 0.25),
                  prob_hi=(1.5, 1.25)), 16, 0.4, 0.03, 0.1, (0.2, 0.6)),
        # center exactly on a tile edge (tile 16 of 32 starts at 0.5)
        (Geometry(Box.cell_centered(256, 256)), 8, 0.25, 0.01, 0.05, (0.5, 0.5)),
        # center outside the domain
        (Geometry(Box.cell_centered(256, 256)), 8, 3.6, 0.05, 0.2, (3.0, -2.0)),
        # half_width=0
        (Geometry(Box.cell_centered(256, 256)), 16, 0.3, 0.0, 0.05, (0.5, 0.5)),
        # core_radius=0, center on the domain corner
        (Geometry(Box.cell_centered(256, 256)), 16, 0.3, 0.02, 0.0, (0.0, 0.0)),
        # tile 64
        (Geometry(Box.cell_centered(1024, 512)), 64, 0.6, 0.05, 0.1, (0.4, 0.7)),
    ])
    def test_matches_meshgrid_reference(self, geom, tile, radius, half_width,
                                        core_radius, center):
        got = refined_region_mask(geom, tile, radius, half_width, core_radius,
                                  center)
        want = _mask_reference(geom, tile, radius, half_width, core_radius,
                               center)
        assert got.dtype == bool and got.shape == want.shape
        assert want.any()
        assert np.array_equal(got, want)

    def test_peak_memory_per_tile(self):
        """One float buffer plus bool masks per tile, not full meshgrids."""
        n = 512
        geom = Geometry(Box.cell_centered(n * 8, n * 8))
        tracemalloc.start()
        try:
            refined_region_mask(geom, 8, 0.3, 0.01, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (n * n) <= 16.0


def _mask_reference(geom, tile, radius, half_width, core_radius, center):
    """The meshgrid form of :func:`refined_region_mask`: every tile's
    bounds as full 2-D arrays, then the same distance expressions."""
    nx, ny = geom.domain.shape
    tnx, tny = nx // tile, ny // tile
    dx, dy = geom.cell_size
    x_lo = geom.prob_lo[0] + np.arange(tnx) * tile * dx
    x_hi = x_lo + tile * dx
    y_lo = geom.prob_lo[1] + np.arange(tny) * tile * dy
    y_hi = y_lo + tile * dy
    XLO, YLO = np.meshgrid(x_lo, y_lo, indexing="ij")
    XHI, YHI = np.meshgrid(x_hi, y_hi, indexing="ij")
    cx, cy = center
    nearest_dx = np.maximum(np.maximum(XLO - cx, cx - XHI), 0.0)
    nearest_dy = np.maximum(np.maximum(YLO - cy, cy - YHI), 0.0)
    r_min = np.sqrt(nearest_dx**2 + nearest_dy**2)
    far_dx = np.maximum(np.abs(XLO - cx), np.abs(XHI - cx))
    far_dy = np.maximum(np.abs(YLO - cy), np.abs(YHI - cy))
    r_max = np.sqrt(far_dx**2 + far_dy**2)
    in_band = (r_min <= radius + half_width) & (r_max >= radius - half_width)
    in_core = r_min <= core_radius
    return in_band | in_core


class TestAnnulusBoxArray:
    def test_boxes_cover_band_and_respect_limits(self):
        geom = self._geom()
        gp = GridParams(8, 32)
        ba = annulus_boxarray(geom, 0.3, 0.02, 0.05, gp, center=(0.5, 0.5))
        assert len(ba) > 0
        ba.validate_disjoint()
        ba.validate_inside(geom.domain)
        for b in ba:
            assert b.shape[0] <= 32 and b.shape[1] <= 32

    def test_empty_when_out_of_domain(self):
        geom = self._geom()
        ba = annulus_boxarray(geom, 10.0, 0.001, 0.0, GridParams(8, 32),
                              center=(100.0, 100.0))
        assert len(ba) == 0

    def test_default_tile_divides_the_domain(self):
        """32784 = 16 * 2049: the tile stops doubling at 16, although
        the mask is then just over 2048^2 tiles."""
        geom = Geometry(Box.cell_centered(32784, 32784))
        ba = annulus_boxarray(geom, 0.3, 0.01, 0.05, GridParams(8, 256))
        assert len(ba) > 0
        ba.validate_disjoint()
        ba.validate_inside(geom.domain)

    def test_oversized_tile_mask_refused_before_it_is_built(self):
        """131064 = 8 * 16383: the default tile stays 8, whose 16383^2
        mask would take ~2.9 GB; refused by name, allocating nothing."""
        geom = Geometry(Box.cell_centered(131064, 131064))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"\(131064, 131064\) at tile 8 "
                               r"has 16383x16383 entries, over the limit of 4096\^2"):
                annulus_boxarray(geom, 0.3, 0.01, 0.05, GridParams(8, 256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_largest_shipped_tile_mask_is_allowed(self, monkeypatch):
        """The 131072^2 sweep mesh's level 3 (1048576^2 cells, tile 256)
        builds a 4096^2 mask, the limit itself."""
        import repro.workload.annulus as annulus

        shapes = []

        def no_tags(geom, tile, *args):
            shapes.append((geom.domain.shape[0] // tile, tile))
            return np.zeros((1, 1), dtype=bool)

        monkeypatch.setattr(annulus, "refined_region_mask", no_tags)
        geom = Geometry(Box.cell_centered(1048576, 1048576))
        assert len(annulus_boxarray(geom, 0.3, 0.01, 0.05, GridParams(8, 256))) == 0
        assert shapes == [(4096, 256)]

    _geom = TestAnnulusMask._geom


class TestGenerator:
    def _inputs(self, **kw):
        base = dict(n_cell=(256, 256), max_level=2, max_step=40, plot_int=10,
                    stop_time=1e9, max_grid_size=64, blocking_factor=8, cfl=0.5)
        base.update(kw)
        return CastroInputs(**base)

    def test_run_structure(self):
        gen = SedovWorkloadGenerator(self._inputs(), nprocs=8)
        result = gen.run()
        assert [ev.step for ev in result.outputs] == [0, 10, 20, 30, 40]
        assert result.final_time > 0
        assert result.trace.total_bytes() > 0

    def test_levels_nested(self):
        gen = SedovWorkloadGenerator(self._inputs(), nprocs=4)
        t = gen.timebase.run(40)[-1].time
        bas = gen.level_layout(t)
        for lev in range(1, len(bas)):
            parent = bas[lev - 1].refine(gen.inputs.ref_ratio)
            for b in bas[lev]:
                assert parent.covered_cells(b) == b.numpts

    def test_l0_constant_fine_grow(self):
        """Fig. 7's shape: L0 flat, refined levels grow with time."""
        gen = SedovWorkloadGenerator(self._inputs(max_step=100, plot_int=25), nprocs=4)
        result = gen.run()
        l0 = [ev.cells_per_level[0] for ev in result.outputs]
        assert len(set(l0)) == 1
        finest = [
            ev.cells_per_level[-1] if len(ev.cells_per_level) > 2 else 0
            for ev in result.outputs
        ]
        assert finest[-1] >= finest[1]

    def test_paper_scale_large_mesh_fast(self):
        """The Fig. 11 mesh (8192^2) must generate in seconds."""
        import time

        inputs = self._inputs(n_cell=(8192, 8192), max_level=2, max_step=20,
                              plot_int=10, max_grid_size=256)
        t0 = time.perf_counter()
        gen = SedovWorkloadGenerator(inputs, nprocs=64)
        result = gen.run()
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        # L0 alone: 8192^2 * 24 * 8 bytes per dump
        assert result.trace.total_bytes() > 8192**2 * 24 * 8 * 3

    def test_domain_not_a_power_of_two(self):
        """16392 = 8 * 2049 cells is valid Castro input; its L1 tile
        mask must not pick a tile that does not divide the level."""
        inputs = self._inputs(n_cell=(16392, 16392), max_level=1, max_step=2,
                              plot_int=1, max_grid_size=256)
        result = SedovWorkloadGenerator(inputs, nprocs=16).run()
        assert [ev.step for ev in result.outputs] == [0, 1, 2]
        assert all(ev.cells_per_level[1] > 0 for ev in result.outputs)

    def test_solver_vs_workload_same_accounting_shape(self):
        """The two engines must produce comparable L0 output (identical
        mesh => identical L0 bytes) and refined levels within 3x."""
        from repro.sim.castro import CastroSim

        inputs = CastroInputs(
            n_cell=(64, 64), max_level=1, max_step=8, plot_int=4,
            stop_time=1e9, max_grid_size=32, blocking_factor=8, cfl=0.5,
        )
        prob = SedovProblem(r_init=0.1)
        solver_res = CastroSim(inputs, nprocs=2, problem=prob).run()
        wl_res = SedovWorkloadGenerator(inputs, nprocs=2, problem=prob).run()
        s_l0 = solver_res.trace.bytes_per_level(step=0)[0]
        w_l0 = wl_res.trace.bytes_per_level(step=0)[0]
        assert s_l0 == w_l0
        s_total = solver_res.trace.total_bytes()
        w_total = wl_res.trace.total_bytes()
        assert 1 / 3 < s_total / w_total < 3
