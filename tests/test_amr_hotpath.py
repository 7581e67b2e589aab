"""Equivalence suite for the AMR hot path.

Every optimization in the hot path (vectorized ``buffer_tags``,
amortized ``AmrHierarchy.regrid``) is pinned *bit-identical* against the
seed implementations, which are kept here verbatim as the reference.
The final test replays a whole solver-engine ``CastroSim`` run with the
seed paths monkeypatched back in and demands an identical ``SimResult``.
"""

import numpy as np
import pytest

import repro.amr.hierarchy as hierarchy_mod
from repro.amr.cluster import ClusterParams, berger_rigoutsos
from repro.amr.distribution import make_distribution
from repro.amr.grid import make_level_grids
from repro.amr.hierarchy import AmrHierarchy, AmrParams, LevelState
from repro.amr.interp import restrict_average
from repro.amr.tagging import buffer_tags, tag_gradient
from repro.hydro.state import QP, URHO, cons_to_prim
from repro.sim.castro import CastroSim
from repro.sim.inputs import CastroInputs


# ----------------------------------------------------------------------
# Seed reference implementations (verbatim from the pre-PR code)
# ----------------------------------------------------------------------
def seed_buffer_tags(tags: np.ndarray, n_buf: int) -> np.ndarray:
    if n_buf <= 0:
        return tags.copy()
    out = tags.copy()
    for _ in range(n_buf):
        grown = out.copy()
        grown[:-1, :] |= out[1:, :]
        grown[1:, :] |= out[:-1, :]
        grown[:, :-1] |= out[:, 1:]
        grown[:, 1:] |= out[:, :-1]
        out = grown
    return out


def seed_regrid(self, tag_fn) -> None:
    """The seed AmrHierarchy.regrid: full rebuild of every level."""
    p = self.params
    new_levels = [self.levels[0]]
    for lev in range(p.max_level):
        coarse = new_levels[lev]
        tags = np.asarray(tag_fn(lev, coarse.geom), dtype=bool)
        expect = coarse.geom.domain.shape
        if tags.shape != expect:
            raise ValueError(
                f"tag array for level {lev} has shape {tags.shape}, "
                f"expected domain shape {expect}"
            )
        tags = seed_buffer_tags(tags, p.n_error_buf)
        if lev > 0:
            mask = np.zeros(expect, dtype=bool)
            for b in coarse.boxarray:
                mask[b.slices()] = True
            tags &= mask
        if not tags.any():
            break
        clustered = berger_rigoutsos(
            tags, origin=(0, 0), params=ClusterParams(grid_eff=p.grid_eff)
        )
        fine_boxes = [b.refine(p.ref_ratio) for b in clustered]
        fine_domain = coarse.geom.domain.refine(p.ref_ratio)
        fine_geom = coarse.geom.refine(p.ref_ratio)
        ba = make_level_grids(
            fine_boxes, fine_domain, p.grid_params(), min_grids=self.nprocs
        )
        if lev > 0:
            from repro.amr.grid import clip_boxarray

            ba = clip_boxarray(
                ba, coarse.boxarray.refine(p.ref_ratio), p.max_grid_size
            )
        if len(ba) == 0:
            break
        dm = make_distribution(ba, self.nprocs, self.distribution_strategy)
        new_levels.append(LevelState(lev + 1, fine_geom, ba, dm))
    self.levels = new_levels


def seed_castro_regrid(sim: CastroSim) -> None:
    """The seed CastroSim.regrid: density *or* pressure gradient tags,
    with one full-mesh ``cons_to_prim`` per level."""
    g = sim._g

    def at_level(field, level):
        factor = sim.inputs.ref_ratio ** (sim.inputs.max_level - level)
        if factor == 1:
            return field
        return restrict_average(field, factor)

    def tag_fn(level, geom):
        rho = at_level(sim._U[URHO, g:-g, g:-g], level)
        W = cons_to_prim(sim._U[:, g:-g, g:-g], sim.eos)
        pressure = at_level(W[QP], level)
        return tag_gradient(rho, sim.tag_criteria) | tag_gradient(
            pressure, sim.tag_criteria
        )

    sim.hierarchy.regrid(tag_fn)


def annulus_tagger(radius, width):
    def tag_fn(level, geom):
        X, Y = geom.cell_centers(geom.domain)
        r = np.sqrt(X**2 + Y**2)
        return np.abs(r - radius) < width

    return tag_fn


# ----------------------------------------------------------------------
# buffer_tags
# ----------------------------------------------------------------------
class TestBufferTagsVectorized:
    @pytest.mark.parametrize("n_buf", [0, 1, 2, 3, 5])
    @pytest.mark.parametrize("shape", [(16, 16), (7, 13), (1, 9), (33, 2)])
    def test_matches_seed_dilation(self, n_buf, shape):
        rng = np.random.default_rng(n_buf * 101 + shape[0])
        tags = rng.random(shape) < 0.1
        assert np.array_equal(buffer_tags(tags, n_buf), seed_buffer_tags(tags, n_buf))

    def test_single_tag_diamond(self):
        tags = np.zeros((9, 9), bool)
        tags[4, 4] = True
        out = buffer_tags(tags, 2)
        ii, jj = np.nonzero(out)
        assert (np.abs(ii - 4) + np.abs(jj - 4) <= 2).all()
        assert out.sum() == 13  # |L1 ball of radius 2|

    def test_input_not_mutated(self):
        tags = np.zeros((8, 8), bool)
        tags[3, 3] = True
        buffer_tags(tags, 2)
        assert tags.sum() == 1


# ----------------------------------------------------------------------
# regrid amortization
# ----------------------------------------------------------------------
class TestAmortizedRegrid:
    def params(self):
        return AmrParams(n_cell=(64, 64), max_level=2, max_grid_size=16)

    def test_static_tags_reuse_level_states(self):
        h = AmrHierarchy(self.params(), nprocs=4)
        tagger = annulus_tagger(0.4, 0.08)
        h.regrid(tagger)
        before = list(h.levels)
        h.regrid(tagger)
        for lev in range(1, len(h.levels)):
            assert h.levels[lev] is before[lev]  # reused, not rebuilt
        assert h.regrid_stats["regrids"] == 2
        assert h.regrid_stats["levels_reused"] == len(h.levels) - 1

    def test_moved_tags_rebuild_and_match_seed(self):
        tagger_a = annulus_tagger(0.3, 0.08)
        tagger_b = annulus_tagger(0.55, 0.08)
        h = AmrHierarchy(self.params(), nprocs=4)
        h.regrid(tagger_a)
        h.regrid(tagger_b)
        reference = AmrHierarchy(self.params(), nprocs=4)
        seed_regrid(reference, tagger_a)
        seed_regrid(reference, tagger_b)
        assert len(h.levels) == len(reference.levels)
        for mine, ref in zip(h.levels, reference.levels):
            assert list(mine.boxarray.boxes) == list(ref.boxarray.boxes)
            assert mine.distribution.ranks == ref.distribution.ranks
        assert h.regrid_stats["levels_rebuilt"] >= 1


# ----------------------------------------------------------------------
# whole-run equivalence
# ----------------------------------------------------------------------
class TestSimResultEquivalence:
    def small_inputs(self):
        return CastroInputs(
            n_cell=(32, 32),
            max_level=2,
            max_step=6,
            plot_int=3,
            regrid_int=2,
            cfl=0.5,
            stop_time=1e9,
            max_grid_size=16,
            blocking_factor=8,
        )

    def test_castro_run_bit_identical_to_seed_paths(self, monkeypatch):
        """Full solver-engine run vs. the seed hot path, bit for bit."""
        fast = CastroSim(self.small_inputs(), nprocs=4).run()

        monkeypatch.setattr(hierarchy_mod.AmrHierarchy, "regrid", seed_regrid)
        monkeypatch.setattr(CastroSim, "regrid", seed_castro_regrid)
        seed = CastroSim(self.small_inputs(), nprocs=4).run()

        assert fast.steps_taken == seed.steps_taken
        assert fast.final_time == seed.final_time
        assert fast.mass_history == seed.mass_history
        assert fast.outputs == seed.outputs
        assert len(fast.trace) == len(seed.trace)
        assert fast.trace.bytes_step_level_rank() == seed.trace.bytes_step_level_rank()
