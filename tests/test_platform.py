"""Tests for the platform subsystem: registry, storage-model hierarchy,
machine threading through campaign/predictor/CLI, and the pinned
summit-equivalence guarantee (default behavior bit-identical to the
seed's Summit/Alpine constants)."""

import json

import numpy as np
import pytest

from repro.analysis.compare import (
    compare_machines,
    format_machine_comparison,
    record_burst_seconds,
)
from repro.campaign.cases import Case, case4, cases_on_machines
from repro.campaign.records import record_from_result
from repro.campaign.runner import run_case
from repro.campaign.store import ResultStore, case_key
from repro.campaign.sweep import sweep_cases
from repro.core.predictor import predict_sizes
from repro.iosim.storage import (
    BurstBufferStorageModel,
    LustreStorageModel,
    StorageModel,
)
from repro.parallel.topology import JobTopology
from repro.platform import (
    PLATFORM_REGISTRY,
    FilesystemSpec,
    Platform,
    available_platforms,
    get_platform,
    register_platform,
)
from repro.sim.inputs import CastroInputs


class TestRegistry:
    def test_ships_four_machines(self):
        assert set(available_platforms()) >= {
            "summit", "frontier", "burst-buffer", "workstation",
        }

    def test_flavors_cover_the_hierarchy(self):
        flavors = {get_platform(m).filesystem.flavor for m in available_platforms()}
        assert {"gpfs", "lustre", "burst-buffer", "nvme"} <= flavors

    def test_get_platform_default_and_passthrough(self):
        summit = get_platform("summit")
        assert get_platform() is summit  # None -> default machine
        assert get_platform(summit) is summit  # Platform passes through

    def test_unknown_machine_raises_with_names(self):
        with pytest.raises(KeyError, match="summit"):
            get_platform("does-not-exist")

    def test_register_and_overwrite(self):
        p = Platform(
            name="_test_cluster", description="test", total_nodes=4,
            cores_per_node=8, gpus_per_node=0, node_memory_gb=32,
            default_ranks_per_node=2,
            filesystem=FilesystemSpec(
                flavor="gpfs", stream_bandwidth=1e9, node_bandwidth=4e9,
                metadata_latency=1e-3,
            ),
        )
        try:
            register_platform(p)
            assert get_platform("_test_cluster") is p
            with pytest.raises(ValueError, match="already registered"):
                register_platform(p)
            register_platform(p, overwrite=True)
        finally:
            PLATFORM_REGISTRY.pop("_test_cluster", None)

    def test_bad_flavor_rejected(self):
        with pytest.raises(ValueError, match="flavor"):
            FilesystemSpec(flavor="tape", stream_bandwidth=1e9,
                           node_bandwidth=1e9, metadata_latency=0.0)

    def test_flavor_fields_validated_at_construction(self):
        # a lustre spec without its OST fields must fail when written,
        # not at the first storage_model() call deep in a campaign
        with pytest.raises(ValueError, match="ost_count"):
            FilesystemSpec(flavor="lustre", stream_bandwidth=2e9,
                           node_bandwidth=12e9, metadata_latency=1e-3)
        with pytest.raises(ValueError, match="drain_bandwidth"):
            FilesystemSpec(flavor="burst-buffer", stream_bandwidth=2e9,
                           node_bandwidth=6e9, metadata_latency=1e-3)

    def test_storage_model_dispatch(self):
        assert type(get_platform("summit").storage_model()) is StorageModel
        assert isinstance(get_platform("frontier").storage_model(), LustreStorageModel)
        assert isinstance(
            get_platform("burst-buffer").storage_model(), BurstBufferStorageModel
        )
        assert type(get_platform("workstation").storage_model()) is StorageModel


def seed_alpine_storage(variability: float = 0.15, seed: int = 12345) -> StorageModel:
    """The seed's Alpine storage model, verbatim: the reference the
    ``summit`` registry entry is pinned against."""
    return StorageModel(
        stream_bandwidth=1.5e9,
        node_bandwidth=12.5e9,
        metadata_latency=2.0e-3,
        variability=variability,
        seed=seed,
    )


class TestSummitEquivalence:
    """The acceptance pin: the summit registry entry reproduces the seed
    Summit/Alpine behavior bit-for-bit."""

    def test_storage_model_fields_identical(self):
        a = get_platform("summit").storage_model(variability=0.15, seed=7)
        b = seed_alpine_storage(variability=0.15, seed=7)
        assert a == b
        assert type(a) is type(b)

    def test_burst_times_bit_identical_with_noise(self):
        a = get_platform("summit").storage_model(variability=0.15, seed=99)
        b = seed_alpine_storage(variability=0.15, seed=99)
        rng = np.random.default_rng(3)
        for nprocs in (1, 32, 1024):
            nodes = JobTopology.summit_default(nprocs).node_map()
            for _ in range(3):  # sequential bursts share one RNG stream
                nb = rng.integers(0, 5 * 10**7, size=nprocs)
                assert a.burst_time(nb, nodes) == b.burst_time(nb, nodes)

    def test_machine_constants_match_shim(self):
        # the seed's Summit machine constants
        p = get_platform("summit")
        assert p.total_nodes == 4608
        assert p.cores_per_node == 42
        assert p.filesystem.aggregate_bandwidth == 2.5e12

    def test_default_topology_matches_summit_default(self):
        for nprocs in (1, 2, 3, 32, 1024):
            assert (
                get_platform("summit").default_topology(nprocs)
                == JobTopology.summit_default(nprocs)
                == JobTopology.for_machine(nprocs)
            )

    def test_predictor_default_matches_platform_summit(self):
        inputs = CastroInputs(n_cell=(512, 512), max_level=3, max_step=100,
                              plot_int=10, cfl=0.4, stop_time=1e9,
                              max_grid_size=256, blocking_factor=8)
        legacy = predict_sizes(
            inputs, 32, storage=seed_alpine_storage(variability=0.0)
        )
        via_platform = predict_sizes(inputs, 32, platform="summit")
        assert np.array_equal(legacy.step_bytes, via_platform.step_bytes)
        assert np.array_equal(legacy.burst_seconds, via_platform.burst_seconds)
        assert via_platform.machine == "summit"
        assert legacy.machine is None


class TestMaxFractionNodes:
    def test_tiny_fraction_clamps_to_one_node(self):
        # regression: 1/5000 of Summit used to floor to 0 nodes
        assert get_platform("summit").max_fraction_nodes(1 / 5000) == 1

    def test_paper_fraction_unchanged(self):
        assert get_platform("summit").max_fraction_nodes(1 / 9) == 512

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            get_platform("summit").max_fraction_nodes(0)
        with pytest.raises(ValueError):
            get_platform("summit").max_fraction_nodes(1.5)


class TestStorageValidation:
    """Named ValueError per offending parameter (satellite)."""

    def test_each_parameter_named(self):
        with pytest.raises(ValueError, match="stream_bandwidth"):
            StorageModel(stream_bandwidth=0)
        with pytest.raises(ValueError, match="node_bandwidth"):
            StorageModel(node_bandwidth=-1)
        with pytest.raises(ValueError, match="metadata_latency"):
            StorageModel(metadata_latency=-1e-3)
        with pytest.raises(ValueError, match="variability"):
            StorageModel(variability=-0.1)

    def test_lustre_parameters_named(self):
        with pytest.raises(ValueError, match="ost_count"):
            LustreStorageModel(ost_count=0)
        with pytest.raises(ValueError, match="stripe_count"):
            LustreStorageModel(ost_count=4, stripe_count=5)
        with pytest.raises(ValueError, match="ost_bandwidth"):
            LustreStorageModel(ost_bandwidth=0)

    def test_burst_buffer_parameters_named(self):
        with pytest.raises(ValueError, match="drain_bandwidth"):
            BurstBufferStorageModel(drain_bandwidth=0)
        with pytest.raises(ValueError, match="bb_capacity_bytes"):
            BurstBufferStorageModel(bb_capacity_bytes=-1)
        with pytest.raises(ValueError, match="drain_overlap"):
            BurstBufferStorageModel(drain_overlap=1.5)


class TestLustreModel:
    def _model(self, **kw):
        base = dict(stream_bandwidth=2e9, node_bandwidth=1e12,
                    metadata_latency=0.0, variability=0.0,
                    ost_count=8, stripe_count=2, ost_bandwidth=1e9)
        base.update(kw)
        return LustreStorageModel(**base)

    def test_monotonic_in_bytes(self):
        m = self._model()
        nodes = [0, 0, 1, 1]
        t1 = m.burst_time([10**8] * 4, nodes)
        t2 = m.burst_time([10**9] * 4, nodes)
        t3 = m.burst_time([10**10] * 4, nodes)
        assert t1 < t2 < t3

    def test_stripe_count_scaling_uncontended(self):
        # a single writer's bandwidth is stripe_count * ost_bandwidth
        # (ost < stream here), so time scales ~1/stripes until caps bite
        t1 = self._model(stripe_count=1).burst_time([10**9])
        t4 = self._model(stripe_count=4).burst_time([10**9])
        assert t1 == pytest.approx(4 * t4)

    def test_contention_beyond_osts_slows(self):
        # 16 writers on 8 OSTs contend 2x vs 8 writers spread 1-per-OST
        few = self._model(stripe_count=1).burst_time([10**9] * 8, list(range(8)))
        many = self._model(stripe_count=1).burst_time([10**9] * 16, list(range(16)))
        assert many == pytest.approx(2 * few)

    def test_single_writer_hand_computed(self):
        # 2 stripes x min(2e9 stream, 1e9 ost) = 2e9 B/s for 2e9 B
        m = self._model()
        assert m.burst_time([2 * 10**9]) == pytest.approx(1.0)
        cost = m.write_time(2 * 10**9)
        assert cost.seconds == pytest.approx(1.0)

    def test_node_injection_still_caps(self):
        # 4 ranks on one node share 2e9 injection: 0.5e9 each, below
        # the 2e9 striped bandwidth
        m = self._model(node_bandwidth=2e9, stripe_count=4, ost_bandwidth=1e9)
        t = m.burst_time([10**9] * 4, [0, 0, 0, 0])
        assert t == pytest.approx(2.0)

    def test_noise_stability_protocol_shared(self):
        # appending an idle rank never changes existing ranks' times
        a = self._model(variability=0.2, seed=5).burst_time([10**8, 10**8], [0, 1])
        b = self._model(variability=0.2, seed=5).burst_time([10**8, 10**8, 0], [0, 1, 1])
        assert a == b


class TestBurstBufferModel:
    def _model(self, **kw):
        base = dict(stream_bandwidth=2e9, node_bandwidth=4e9,
                    metadata_latency=0.0, variability=0.0,
                    drain_bandwidth=1e9, bb_capacity_bytes=8e9)
        base.update(kw)
        return BurstBufferStorageModel(**base)

    def test_absorbs_at_ssd_speed(self):
        # 2 ranks/node split 4e9 SSD bandwidth: 2e9 each
        t = self._model().burst_time([2 * 10**9, 2 * 10**9], [0, 0])
        assert t == pytest.approx(1.0)

    def test_overflow_pays_drain_rate(self):
        m = self._model()
        within = m.burst_time([8 * 10**9], [0])  # fills the buffer exactly
        over = m.burst_time([10 * 10**9], [0])  # 2 GB beyond capacity
        assert within == pytest.approx(4.0)  # 8e9 / 2e9 stream
        assert over == pytest.approx(5.0 + 2.0)  # absorb + 2e9/1e9 drain

    def test_drain_seconds_slowest_node(self):
        m = self._model()
        t = m.drain_seconds([4 * 10**9, 2 * 10**9], [0, 1])
        assert t == pytest.approx(4.0)  # node 0: 4e9 / 1e9
        # overflow never drains more than the buffered capacity
        assert m.drain_seconds([10**12], [0]) == pytest.approx(8.0)

    def test_drain_overlap_bounds(self):
        nb = [6 * 10**9, 3 * 10**9]
        nodes = [0, 1]
        absorb = self._model().burst_time(nb, nodes)
        drain = self._model().drain_seconds(nb, nodes)
        for overlap in (0.0, 0.25, 0.5, 1.0):
            t = self._model(drain_overlap=overlap).time_to_pfs(nb, nodes)
            assert max(absorb, drain) <= t <= absorb + drain
        assert self._model(drain_overlap=1.0).time_to_pfs(nb, nodes) == (
            pytest.approx(max(absorb, drain))
        )
        assert self._model(drain_overlap=0.0).time_to_pfs(nb, nodes) == (
            pytest.approx(absorb + drain)
        )


class TestCaseMachineAxis:
    def test_default_machine_is_summit(self):
        assert case4().machine == "summit"

    def test_unknown_machine_fails_at_construction(self):
        # ValueError, like every other Case validation
        with pytest.raises(ValueError, match="registered"):
            Case("x", case4().inputs, 1, 1, machine="nope")

    def test_on_machine_renames_and_clamps(self):
        c = case4()  # 32 ranks / 2 nodes
        w = c.on_machine("workstation")
        assert w.name == "case4@workstation"
        assert w.machine == "workstation"
        assert w.nnodes == 1  # clamped to the single node
        assert c.on_machine("summit") is c  # same machine: unchanged

    def test_cases_on_machines_blocks(self):
        base = [case4()]
        out = cases_on_machines(base, ["summit", "frontier"])
        assert [c.name for c in out] == ["case4", "case4@frontier"]
        with pytest.raises(ValueError):
            cases_on_machines(base, [])

    def test_sweep_machines_axis(self):
        ladder = [(64, 2, 1)]
        single = sweep_cases(mesh_ladder=ladder, cfls=(0.5,), max_levels=(1,))
        multi = sweep_cases(mesh_ladder=ladder, cfls=(0.5,), max_levels=(1,),
                            machines=("summit", "workstation"))
        assert len(multi) == 2 * len(single)
        assert multi[0].name == single[0].name  # summit block unchanged
        assert multi[1].machine == "workstation"

    def test_store_key_includes_machine(self):
        c = case4()
        assert case_key(c) != case_key(c.on_machine("frontier"))
        store = ResultStore()
        assert store.key_for(c) != store.key_for(c.on_machine("workstation"))


class TestMachineThreading:
    @pytest.fixture(scope="class")
    def tiny(self):
        return sweep_cases(mesh_ladder=[(64, 2, 1)], cfls=(0.5,),
                           max_levels=(1,), max_step=10, plot_int=5)[0]

    def test_result_and_record_carry_machine(self, tiny):
        frontier = tiny.on_machine("frontier")
        result = run_case(frontier)
        assert result.machine == "frontier"
        rec = record_from_result(frontier.name, result, frontier.nnodes,
                                 frontier.engine)
        assert rec.machine == "frontier"

    def test_byte_series_machine_independent(self, tiny):
        # the workload is the same physics everywhere; only timing differs
        a = run_case(tiny)
        b = run_case(tiny.on_machine("workstation"))
        assert a.trace.bytes_per_step() == b.trace.bytes_per_step()

    def test_record_burst_seconds_cross_machine(self, tiny):
        rec = record_from_result(tiny.name, run_case(tiny), tiny.nnodes,
                                 tiny.engine)
        on_summit = record_burst_seconds(rec)
        on_ws = record_burst_seconds(rec, machine="workstation")
        assert on_summit.shape == on_ws.shape
        assert (on_summit > 0).all()

    def test_compare_machines_replay_mode(self, tiny):
        rec = record_from_result(tiny.name, run_case(tiny), tiny.nnodes,
                                 tiny.engine)
        rows = compare_machines([rec], machines=["summit", "workstation"])
        assert [r.machine for r in rows] == ["summit", "workstation"]
        assert all(r.n_runs == 1 and r.burst_seconds > 0 for r in rows)
        text = format_machine_comparison(rows)
        assert "workstation" in text and "burst total" in text

    def test_solver_engine_validates_machine(self):
        from repro.sim.castro import CastroSim
        inputs = CastroInputs(n_cell=(32, 32), max_level=1, max_step=2,
                              plot_int=1, cfl=0.5, stop_time=1e9,
                              max_grid_size=32, blocking_factor=8)
        sim = CastroSim(inputs, nprocs=2, nnodes=1, machine="workstation")
        assert sim.machine == "workstation"
        with pytest.raises(ValueError, match="workstation has 1 nodes"):
            CastroSim(inputs, nprocs=4, nnodes=2, machine="workstation")
        # only the machine's node count is gated — nnodes > nprocs was
        # legal before the platform refactor and must stay legal
        CastroSim(inputs, nprocs=1, nnodes=2)

    def test_sedov_nprocs_override_below_node_count(self, capsys):
        # regression: --nprocs 1 on the 2-node case4 must keep working
        from repro.cli import sedov_main
        assert sedov_main(["--case", "case4", "--nprocs", "1"]) == 0
        assert "np=1" in capsys.readouterr().out


class TestPredictorPlatformAxis:
    def _inputs(self):
        return CastroInputs(n_cell=(512, 512), max_level=3, max_step=100,
                            plot_int=10, cfl=0.4, stop_time=1e9,
                            max_grid_size=256, blocking_factor=8)

    def test_zero_run_machine_comparison(self):
        preds = {
            m: predict_sizes(self._inputs(), 128, platform=m)
            for m in ("summit", "frontier", "workstation")
        }
        # same bytes everywhere, different burst timing
        for p in preds.values():
            assert np.array_equal(p.step_bytes, preds["summit"].step_bytes)
            assert p.burst_seconds is not None
        ws = preds["workstation"].burst_seconds.sum()
        summit = preds["summit"].burst_seconds.sum()
        assert ws > summit  # one NVMe device vs 64 nodes of injection

    def test_summary_names_machine(self):
        p = predict_sizes(self._inputs(), 32, platform="frontier")
        assert "on frontier" in p.summary()

    def test_explicit_storage_still_wins(self):
        storage = StorageModel.ideal()
        p = predict_sizes(self._inputs(), 8, storage=storage, platform="frontier")
        # ideal() is deterministic and latency-free: frontier's model
        # would give different numbers, so equality proves storage won —
        # and the result must not be labeled with the unused machine
        q = predict_sizes(self._inputs(), 8, storage=StorageModel.ideal())
        assert np.array_equal(p.burst_seconds, q.burst_seconds)
        assert p.machine is None


class TestCLIMachine:
    def test_sedov_machine_flag(self, capsys):
        from repro.cli import sedov_main
        assert sedov_main(["--case", "solver64", "--machine", "workstation"]) == 0
        out = capsys.readouterr().out
        assert "machine=workstation" in out

    def test_sedov_default_output_has_no_machine(self, capsys):
        from repro.cli import sedov_main
        assert sedov_main(["--case", "solver64"]) == 0
        assert "machine=" not in capsys.readouterr().out

    def test_unknown_machine_rejected(self):
        from repro.cli import sedov_main
        with pytest.raises(SystemExit, match="unknown machine"):
            sedov_main(["--case", "solver64", "--machine", "nope"])

    def test_single_run_commands_reject_machine_lists(self):
        from repro.cli import model_main, sedov_main
        with pytest.raises(SystemExit, match="single platform"):
            sedov_main(["--case", "solver64", "--machine", "summit,frontier"])
        with pytest.raises(SystemExit, match="single platform"):
            model_main(["--case", "case4", "--machine", "summit,frontier"])

    def test_campaign_rejects_duplicate_machines(self):
        from repro.cli import campaign_main
        with pytest.raises(SystemExit, match="unique"):
            campaign_main(["--limit", "1", "--machine", "summit,summit"])

    def test_macsio_machine_missing_value_is_clean_error(self, capsys):
        from repro.cli import macsio_main
        assert macsio_main(["-n", "2", "--machine"]) == 2
        assert "argument error" in capsys.readouterr().err

    def test_campaign_machine_list(self, tmp_path, capsys):
        from repro.cli import campaign_main
        out_path = str(tmp_path / "recs.json")
        rc = campaign_main([
            "--out", out_path, "--limit", "2", "--jobs", "2",
            "--machine", "summit,frontier,workstation",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "campaign: 6 runs" in out  # 2 cases x 3 machines
        assert "per-machine burst totals" in out
        for m in ("summit", "frontier", "workstation"):
            assert m in out
        with open(out_path) as fh:
            records = json.load(fh)
        assert {r["machine"] for r in records} == {
            "summit", "frontier", "workstation",
        }

    def test_campaign_store_not_shared_across_machines(self, tmp_path, capsys):
        from repro.cli import campaign_main
        store_path = str(tmp_path / "store.jsonl")
        out_path = str(tmp_path / "recs.json")
        # warm the store with summit results
        assert campaign_main(["--out", out_path, "--limit", "2",
                              "--store", store_path]) == 0
        capsys.readouterr()
        # resuming a multi-machine sweep reuses only the summit block
        rc = campaign_main([
            "--out", out_path, "--limit", "2", "--store", store_path,
            "--resume", "--machine", "summit,workstation",
        ])
        assert rc == 0
        assert "(2 cached)" in capsys.readouterr().out

    def test_macsio_machine_timing(self, capsys):
        from repro.cli import macsio_main
        rc = macsio_main(["-n", "2", "--num_dumps", "2", "--part_size", "1000",
                          "--timing", "--machine", "workstation"])
        assert rc == 0
        assert "io_fraction" in capsys.readouterr().out
