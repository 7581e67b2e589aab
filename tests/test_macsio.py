"""Tests for the MACSio proxy reimplementation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iosim.filesystem import VirtualFileSystem
from repro.iosim.storage import StorageModel
from repro.macsio.dump import run_macsio
from repro.macsio.mesh import MeshPart, build_part, parts_per_rank
from repro.macsio.miftmpl import (
    data_filename,
    json_inflation,
    part_json_bytes,
    render_part_json,
    root_filename,
    root_json_text,
)
from repro.macsio.params import MacsioParams, format_argv, parse_argv, parse_size
from repro.parallel.topology import JobTopology


class TestParams:
    def test_defaults_valid(self):
        p = MacsioParams()
        assert p.interface == "miftmpl"
        assert p.files_per_dump(8) == 8  # N-to-N default

    def test_validation(self):
        with pytest.raises(ValueError):
            MacsioParams(interface="netcdf")
        with pytest.raises(ValueError):
            MacsioParams(parallel_file_mode="MIFF")
        with pytest.raises(ValueError):
            MacsioParams(num_dumps=0)
        with pytest.raises(ValueError):
            MacsioParams(part_size=0)
        with pytest.raises(ValueError):
            MacsioParams(dataset_growth=0.0)
        for name, value in [
            ("file_count", 0), ("file_count", -2),
            ("part_size", float("inf")), ("part_size", float("nan")),
            ("avg_num_parts", float("inf")), ("avg_num_parts", float("nan")),
            ("compute_time", float("inf")), ("compute_time", float("nan")),
            ("dataset_growth", float("inf")), ("dataset_growth", float("nan")),
        ]:
            with pytest.raises(ValueError, match=name):
                MacsioParams(**{name: value})

    def test_parse_size_suffixes(self):
        assert parse_size("4096") == 4096
        assert parse_size("2K") == 2048
        assert parse_size("1M") == 1024**2
        assert parse_size("1.5G") == 1.5 * 1024**3
        with pytest.raises(ValueError):
            parse_size("")

    def test_sif_single_file(self):
        p = MacsioParams(parallel_file_mode="SIF", file_count=1)
        assert p.files_per_dump(64) == 1

    def test_argv_roundtrip(self):
        p = MacsioParams(
            num_dumps=21, part_size=1_550_000, dataset_growth=1.013075,
            compute_time=2.5, meta_size=1024, file_count=32,
        )
        argv = format_argv(p, nprocs=32)
        p2 = parse_argv(argv)
        assert p2.num_dumps == 21
        assert p2.part_size == pytest.approx(1_550_000)
        assert p2.dataset_growth == pytest.approx(1.013075, abs=1e-6)
        assert p2.compute_time == 2.5
        assert p2.meta_size == 1024
        assert p2.parallel_file_mode == "MIF"
        assert p2.file_count == 32

    def test_parse_unknown_flag(self):
        with pytest.raises(ValueError, match="unknown MACSio flag"):
            parse_argv(["--bogus", "1"])

    def test_parse_missing_value(self):
        with pytest.raises(ValueError):
            parse_argv(["--num_dumps"])

    def test_listing1_form(self):
        """The paper's Listing 1: MIF nproc with N-to-N."""
        argv = format_argv(MacsioParams(file_count=None), nprocs=16)
        joined = " ".join(argv)
        assert "--interface miftmpl" in joined
        assert "--parallel_file_mode MIF 16" in joined


class TestMesh:
    def test_build_part_square(self):
        part = build_part(80_000, 1)
        assert abs(part.zones - 10_000) <= part.nx  # topology rounding
        assert part.nominal_bytes == part.zones * 8

    def test_tiny_part(self):
        part = build_part(1, 1)
        assert part.zones >= 1

    def test_parts_per_rank_integer(self):
        assert parts_per_rank(2.0, 4) == [2, 2, 2, 2]

    def test_parts_per_rank_fractional(self):
        counts = parts_per_rank(2.5, 4)
        assert sum(counts) == 10
        assert set(counts) == {2, 3}

    def test_parts_per_rank_below_one(self):
        counts = parts_per_rank(0.1, 4)
        assert sum(counts) >= 1

    def test_values_deterministic(self):
        p = MeshPart(4, 4, 2)
        assert np.allclose(p.values(seed=3), p.values(seed=3))


class TestMiftmpl:
    def test_filenames_match_fig3(self):
        assert data_filename(0, 0) == "macsio_json_00000_000.json"
        assert data_filename(31, 20) == "macsio_json_00031_020.json"
        assert root_filename(7) == "macsio_json_root_007.json"

    def test_modeled_size_tracks_real_json(self):
        """part_json_bytes must approximate the rendered document size."""
        part = build_part(40_000, 1)
        text = render_part_json(part, task=0, dump=0)
        model = part_json_bytes(part)
        assert abs(len(text) - model) / len(text) < 0.10

    def test_rendered_json_is_valid(self):
        part = build_part(1_000, 2)
        doc = json.loads(render_part_json(part, 3, 5))
        assert doc["parallel_task"] == 3
        assert doc["mesh"]["zones"] == part.zones
        assert len(doc["vars"]) == 2

    def test_root_json_padding(self):
        text = root_json_text(4, 0, [1, 1, 1, 1], meta_size=5000)
        assert len(text) == 5000

    def test_inflation_factor(self):
        assert json_inflation() == pytest.approx(20.0 / 8.0)


class TestRunMacsio:
    def test_nton_file_pattern(self):
        """Fig. 3: one data file per task per dump + root per dump."""
        fs = VirtualFileSystem()
        p = MacsioParams(num_dumps=3, part_size=8000)
        run_macsio(p, nprocs=4, fs=fs)
        data = [f for f in fs.files("data")]
        assert len(data) == 12
        assert "data/macsio_json_00002_001.json" in data
        roots = [f for f in fs.files("metadata")]
        assert len(roots) == 3

    def test_growth_multiplies_sizes(self):
        p = MacsioParams(num_dumps=5, part_size=80_000, dataset_growth=1.10, meta_size=0)
        run = run_macsio(p, nprocs=2)
        b = np.asarray(run.bytes_per_dump, dtype=float)
        ratios = b[1:] / b[:-1]
        assert np.allclose(ratios, 1.10, atol=0.01)

    def test_no_growth_constant(self):
        p = MacsioParams(num_dumps=4, part_size=50_000)
        run = run_macsio(p, nprocs=3)
        assert len(set(run.bytes_per_dump)) == 1

    def test_mif_grouping(self):
        fs = VirtualFileSystem()
        p = MacsioParams(num_dumps=1, part_size=8000, file_count=2)
        run_macsio(p, nprocs=8, fs=fs)
        data = fs.files("data")
        assert len(data) == 2  # 8 ranks -> 2 MIF files

    def test_sif_mode(self):
        fs = VirtualFileSystem()
        p = MacsioParams(num_dumps=2, part_size=8000,
                         parallel_file_mode="SIF", file_count=1)
        run = run_macsio(p, nprocs=4, fs=fs)
        assert len(fs.files("data")) == 2
        assert run.total_bytes > 0

    def test_trace_per_rank(self):
        p = MacsioParams(num_dumps=2, part_size=10_000)
        run = run_macsio(p, nprocs=4)
        vec = run.trace.bytes_per_rank(step=0, nprocs=4)
        assert (vec[1:] > 0).all()

    def test_hdf5_interface_binary_sizes(self):
        pj = MacsioParams(num_dumps=1, part_size=100_000, interface="miftmpl")
        ph = MacsioParams(num_dumps=1, part_size=100_000, interface="hdf5")
        rj = run_macsio(pj, nprocs=2)
        rh = run_macsio(ph, nprocs=2)
        # JSON inflates ~2.5x over binary-ish hdf5
        assert rj.total_bytes > 1.5 * rh.total_bytes

    def test_materialized_json_close_to_model(self):
        p = MacsioParams(num_dumps=1, part_size=20_000)
        fs_model = VirtualFileSystem()
        fs_real = VirtualFileSystem()
        run_macsio(p, nprocs=2, fs=fs_model)
        run_macsio(p, nprocs=2, fs=fs_real, materialize=True)
        m = fs_model.total_size("data")
        r = fs_real.total_size("data")
        assert abs(m - r) / r < 0.10

    def test_burst_schedule_attached(self):
        p = MacsioParams(num_dumps=3, part_size=1_000_000, compute_time=1.0)
        run = run_macsio(
            p, nprocs=4,
            storage=StorageModel.ideal(),
            topology=JobTopology(4, 2),
        )
        assert run.schedule is not None
        assert len(run.schedule.events) == 3
        assert run.schedule.compute_seconds == pytest.approx(3.0)
        assert run.trace.burst_seconds()

    def test_invalid_nprocs(self):
        with pytest.raises(ValueError):
            run_macsio(MacsioParams(), nprocs=0)

    @pytest.mark.parametrize("interface", ["miftmpl", "hdf5", "silo"])
    def test_vectorized_task_bytes_match_scalar(self, interface):
        """The batched per-rank byte model must stay element-for-element
        identical to the scalar formula it replaced in the dump loop."""
        from repro.macsio.dump import _task_data_bytes, _task_data_bytes_all

        part = build_part(48_000, 5)
        nparts = np.array(parts_per_rank(2.5, 16), dtype=np.int64)
        for growth_scale in (1.0, 1.01**7, 0.3333333333333333):
            params = MacsioParams(interface=interface)
            vec = _task_data_bytes_all(params, part, nparts, growth_scale)
            scalar = [
                _task_data_bytes(params, part, int(npr), growth_scale)
                for npr in nparts
            ]
            assert vec.tolist() == scalar


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 16),
    st.floats(1.0, 1.05),
    st.integers(1000, 200_000),
)
def test_total_bytes_formula_property(num_dumps, nprocs, growth, part_size):
    """Total output ~ sum over dumps of nprocs * per-task bytes * g^k."""
    p = MacsioParams(num_dumps=num_dumps, part_size=part_size, dataset_growth=growth)
    run = run_macsio(p, nprocs=nprocs)
    b = np.asarray(run.bytes_per_dump, dtype=float)
    assert (b > 0).all()
    # monotone when growth > 1 (root metadata is constant)
    if growth > 1.001:
        assert (np.diff(b) >= 0).all()
    assert run.total_bytes == int(b.sum())
