"""Pinned equivalence: the service must be bit-identical to one-shot.

``PredictionService.predict_many`` takes paths the per-call predictor
does not — cached platform plans, the prediction LRU — and every one of
them must be invisible: for each registered platform, the batched answer
equals :func:`repro.core.predictor.predict_sizes` float for float
(``np.array_equal``, no tolerance).  Both time bursts with the storage
model's even-split law (:class:`repro.iosim.storage.EvenSplitLaw`),
which must equal one ``burst_time`` call per dump bit for bit: the
per-dump loop it replaced, :func:`loop_burst_series`, is the oracle.
Likewise ``lookup_many`` must return exactly what
:meth:`ResultStore.get_for` returns."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.cases import CASE_REGISTRY, cases_on_machines
from repro.campaign.runner import run_campaign
from repro.campaign.store import ResultStore
from repro.campaign.sweep import sweep_cases
from repro.core.interpolation import GrowthTable
from repro.core.predictor import predict_sizes
from repro.core.regression import CaseFeatures, fit_linear_model
from repro.iosim.storage import (
    BurstBufferStorageModel,
    EvenSplitLaw,
    LustreStorageModel,
    StorageModel,
)
from repro.parallel.topology import JobTopology
from repro.platform import available_platforms, get_platform
from repro.service import PredictionService, PredictRequest
from repro.service.plans import PlatformPlan

SCENARIOS = ("case4", "case27", "large")


def loop_burst_series(storage, step_bytes, nprocs, node_map):
    """The oracle: the per-dump loop the even-split law replaced,
    verbatim.  Each dump's total is divided evenly over the ranks
    (truncating) and timed by one ``burst_time`` call."""
    per_rank = np.empty(nprocs, dtype=np.int64)
    bursts = []
    for k in range(len(step_bytes)):
        per_rank[:] = int(step_bytes[k] / nprocs)
        bursts.append(storage.burst_time(per_rank, node_map))
    return np.asarray(bursts)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def reference(req: PredictRequest, **calibrations):
    """The one-shot answer the service must reproduce exactly."""
    inputs, nprocs, machine = req.resolve()
    return predict_sizes(inputs, nprocs, f=req.f, platform=machine,
                         **calibrations)


def assert_identical(got, ref):
    assert np.array_equal(got.step_bytes, ref.step_bytes)
    assert np.array_equal(got.cumulative_bytes, ref.cumulative_bytes)
    assert np.array_equal(got.burst_seconds, ref.burst_seconds)
    assert got.growth == ref.growth
    assert got.growth_source == ref.growth_source
    assert got.machine == ref.machine
    assert got.nprocs == ref.nprocs and got.f == ref.f


@pytest.mark.parametrize("machine", available_platforms())
class TestEveryPlatform:
    def test_predict_many_bit_identical(self, machine):
        service = PredictionService()
        reqs = [PredictRequest(scenario=s, machine=machine, steps=steps)
                for s in SCENARIOS for steps in (None, 40)]
        responses = service.predict_many(reqs)
        assert all(r.ok for r in responses)
        for req, resp in zip(reqs, responses):
            assert_identical(resp.prediction, reference(req))

    def test_warm_cache_returns_the_same_object(self, machine):
        """A cache hit is the same prediction, not a recomputation."""
        service = PredictionService()
        req = PredictRequest(machine=machine, nprocs=16, steps=30)
        cold = service.predict_one(req)
        warm = service.predict_one(req)
        assert warm.cached and warm.prediction is cold.prediction

    def test_plan_burst_series_matches_per_dump_loop(self, machine):
        """The plan's law equals looping ``storage.burst_time`` dump by
        dump — the exact seed-path op."""
        nprocs = 96
        plan = PlatformPlan(machine, nprocs)
        steps = np.asarray([0, 1, 10_000, 123_456_789, 2**40], dtype=np.float64)
        expected = loop_burst_series(plan.law.storage, steps, nprocs,
                                     plan.node_map)
        assert_same_bits(plan.burst_series(steps), expected)

    @pytest.mark.parametrize("f", [1e20, 1e308])
    def test_unfit_series_fails_like_predict_sizes(self, machine, f):
        """``f=1e20`` puts far over 2**53 bytes on a node and ``f=1e308``
        makes the series infinite: both answer ``ok: false`` with the
        named error ``predict_sizes`` raises, never zero burst times."""
        req = PredictRequest(machine=machine, nprocs=16, steps=30, f=f)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="even-split burst law") as exc:
                reference(req)
            resp = PredictionService().predict_one(req)
        assert not resp.ok
        assert resp.error == f"ValueError: {exc.value}"


# Every registered flavor, plus two corners the registry never reaches.
FLAVORS = {m: get_platform(m).storage_model(variability=0.0)
           for m in available_platforms()}
# small enough that one series mixes overflowing and fitting dumps
FLAVORS["small-buffer"] = BurstBufferStorageModel(bb_capacity_bytes=4e9,
                                                  drain_bandwidth=1e9)
# 2 stripes per writer over 5 OSTs: more writers than OSTs from 3 ranks
FLAVORS["few-osts"] = LustreStorageModel(ost_count=5, stripe_count=2)


def max_occupancy(node_map):
    return int(np.bincount(np.unique(node_map, return_inverse=True)[1]).max())


@st.composite
def layouts(draw):
    """``(nprocs, node_map)``: block packing (often with a partial last
    node) or arbitrary node ids."""
    nprocs = draw(st.integers(1, 48))
    if draw(st.booleans()):
        nnodes = draw(st.integers(1, nprocs))
        return nprocs, JobTopology(nprocs, nnodes).node_map()
    ids = draw(st.lists(st.integers(0, 6), min_size=nprocs, max_size=nprocs))
    return nprocs, np.asarray(ids)


class TestEvenSplitLaw:
    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(sorted(FLAVORS)), layout=layouts(),
           data=st.data())
    def test_law_is_the_per_dump_loop_bit_for_bit(self, name, layout, data):
        nprocs, nodes = layout
        limit = 2.0**52 / max_occupancy(nodes) * nprocs
        dump = st.one_of(st.integers(0, 3 * nprocs).map(float),
                         st.floats(0, limit))
        steps = np.asarray(data.draw(st.lists(dump, max_size=12)),
                           dtype=np.float64)
        storage = FLAVORS[name]
        got = EvenSplitLaw(storage, nprocs, nodes).burst_seconds(steps)
        assert_same_bits(got, loop_burst_series(storage, steps, nprocs, nodes))

    @pytest.mark.parametrize("name, nprocs, nnodes, steps", [
        # a 4-rank node overflows 4e9 from 1e10 bytes, the 2-rank node later
        ("small-buffer", 10, 3, np.geomspace(1e9, 1e11, 9)),
        ("burst-buffer", 10, 3, np.geomspace(1e9, 1e16, 8)),
        ("summit", 10, 3, np.geomspace(1.0, 1e15, 16)),  # partial last node
        ("frontier", 1, 1, np.geomspace(1.0, 1e15, 16)),  # one rank
        ("small-buffer", 1, 1, np.geomspace(1e8, 1e11, 7)),
        ("workstation", 24, 1, np.asarray([0.0, 1.0, 23.0, 0.0])),  # idle
        ("few-osts", 24, 3, np.geomspace(1e3, 1e14, 12)),
        ("summit", 8, 4, np.zeros(0)),  # no dumps at all
    ])
    def test_corner(self, name, nprocs, nnodes, steps):
        storage, nodes = FLAVORS[name], JobTopology(nprocs, nnodes).node_map()
        law = EvenSplitLaw(storage, nprocs, nodes)
        got = law.burst_seconds(steps)
        assert_same_bits(got, loop_burst_series(storage, steps, nprocs, nodes))
        assert (got[steps < nprocs] == 0.0).all()

    def test_corners_reach_what_they_claim(self):
        """The buffer series mixes overflowing and fitting dumps, and the
        contended Lustre layout has more than one bandwidth class."""
        nodes = JobTopology(10, 3).node_map()
        law = EvenSplitLaw(FLAVORS["small-buffer"], 10, nodes)
        per_rank = np.trunc(np.geomspace(1e9, 1e11, 9) / 10)
        overflow = per_rank[:, None] * law.occupancy > 4e9
        assert overflow.any() and not overflow.all()
        nodes = JobTopology(24, 3).node_map()
        assert len(EvenSplitLaw(FLAVORS["few-osts"], 24, nodes).bandwidth) > 1

    def test_largest_exact_dump_is_timed_and_the_next_refused(self):
        """2 ranks per node: 2**52 - 1 bytes per rank is 2**53 - 2 on a
        node, still exact; 2**52 per rank reaches 2**53 and is refused."""
        nodes = np.asarray([0, 0, 1, 1])
        law = EvenSplitLaw(FLAVORS["small-buffer"], 4, nodes)
        steps = np.asarray([4.0 * (2**52 - 1)])
        assert_same_bits(law.burst_seconds(steps),
                         loop_burst_series(law.storage, steps, 4, nodes))
        with pytest.raises(ValueError, match="under 2\\*\\*53 bytes per node"):
            law.burst_seconds([4.0 * 2**52])

    @pytest.mark.parametrize("dump", [np.nan, np.inf, -np.inf, -8.0])
    def test_non_finite_or_negative_dump_is_refused(self, dump):
        law = EvenSplitLaw(StorageModel(), 4, [0, 0, 1, 1])
        with pytest.raises(ValueError, match="step_bytes\\[1\\] = "):
            law.burst_seconds([1e6, dump])

    def test_noisy_model_is_refused(self):
        with pytest.raises(ValueError, match="variability == 0, got 0.2"):
            EvenSplitLaw(StorageModel(variability=0.2), 4, [0, 0, 1, 1])

    def test_node_map_of_another_length_is_refused(self):
        with pytest.raises(ValueError, match="one node id per rank"):
            EvenSplitLaw(StorageModel(), 4, [0, 0, 1])

    def test_predict_sizes_refuses_a_topology_of_another_rank_count(self):
        inputs = CASE_REGISTRY["case4"].inputs
        with pytest.raises(ValueError, match="one node id per rank"):
            predict_sizes(inputs, 8, storage=StorageModel.ideal(),
                          topology=JobTopology(16, 2))

    def test_predict_sizes_refuses_a_noisy_storage(self):
        inputs = CASE_REGISTRY["case4"].inputs
        with pytest.raises(ValueError, match="variability == 0"):
            predict_sizes(inputs, 8, storage=StorageModel(variability=0.1))


class TestCalibrations:
    """Growth resolution order parity: table, regression, guidance."""

    def _table(self):
        table = GrowthTable()
        table.add(0.3, 3, 1.10)
        table.add(0.7, 3, 1.22)
        return table

    def test_growth_table_parity(self):
        table = self._table()
        service = PredictionService(growth_table=table)
        req = PredictRequest(nprocs=32, steps=40)
        resp = service.predict_one(req)
        ref = reference(req, growth_table=table)
        assert resp.prediction.growth_source == "table"
        assert_identical(resp.prediction, ref)

    def test_regression_parity(self):
        features = [CaseFeatures(cfl, maxl, 512 * 512, 32)
                    for cfl in (0.3, 0.5, 0.7) for maxl in (1, 3)]
        targets = [1.05, 1.08, 1.10, 1.14, 1.16, 1.20]
        model = fit_linear_model(features, targets)
        service = PredictionService(regression=model)
        req = PredictRequest(nprocs=32, steps=40)
        resp = service.predict_one(req)
        ref = reference(req, regression=model)
        assert resp.prediction.growth_source == "regression"
        assert_identical(resp.prediction, ref)

    def test_guidance_fallback_parity(self):
        req = PredictRequest(scenario="case27", steps=25)
        resp = PredictionService().predict_one(req)
        ref = reference(req)
        assert resp.prediction.growth_source == "guidance"
        assert_identical(resp.prediction, ref)

    def test_empty_table_falls_through_like_predict_sizes(self):
        table = GrowthTable()  # len 0: predict_sizes ignores it too
        req = PredictRequest(nprocs=8, steps=20)
        resp = PredictionService(growth_table=table).predict_one(req)
        assert resp.prediction.growth_source == "guidance"
        assert_identical(resp.prediction, reference(req))


class TestMixedMachineBatches:
    def test_elementwise_matches_per_machine_scalar_calls(self):
        """One interleaved batch over every machine == the per-machine
        scalar answers, element for element (satellite #3)."""
        machines = available_platforms()
        reqs = [PredictRequest(scenario=s, machine=m, nprocs=n, steps=30)
                for s in ("case4", "case27")
                for m in machines
                for n in (8, 64)]
        rng = np.random.default_rng(7)
        order = rng.permutation(len(reqs))
        batch = [reqs[i] for i in order]
        responses = PredictionService().predict_many(batch)
        assert all(r.ok for r in responses)
        for req, resp in zip(batch, responses):
            assert_identical(resp.prediction, reference(req))
            assert resp.prediction.machine == get_platform(req.machine).name


class TestLookupEquivalence:
    def test_lookup_many_matches_store_get_for(self):
        machines = available_platforms()
        store = ResultStore()
        base = CASE_REGISTRY["case4"]
        cases = cases_on_machines([base.with_cfl(0.3), base.with_cfl(0.6)],
                                  machines)
        run_campaign(cases, store=store)
        service = PredictionService(store=store)
        responses = service.lookup_many(cases)
        assert all(r.ok and r.hit for r in responses)
        for case, resp in zip(cases, responses):
            assert resp.record == store.get_for(case)

    def test_lookup_respects_extra_execution_options(self):
        store = ResultStore()
        case = sweep_cases(mesh_ladder=[(64, 2, 1)], cfls=(0.4,),
                           max_levels=(1,), max_step=20, plot_int=10)[0]
        extra = {"distribution_strategy": "round_robin"}
        result = run_campaign([case], store=store,
                              distribution_strategy="round_robin")
        assert not result.failures
        service = PredictionService(store=store)
        assert service.lookup_many([case], extra=extra)[0].hit
        # extra is part of the key, exactly as in store.get_for
        assert service.lookup_many([case])[0].hit == (
            store.get_for(case) is not None)

    def test_memoized_digest_equals_direct_key(self):
        store = ResultStore()
        case = CASE_REGISTRY["case4"]
        service = PredictionService(store=store)
        run_campaign([case], store=store)
        service.lookup_many([case])
        service.lookup_many([case])  # second pass goes through the memo
        assert service.lookup_many([case])[0].record == store.get_for(case)
