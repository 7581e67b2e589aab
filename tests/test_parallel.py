"""Tests for the rank-to-node job topology."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.parallel.topology import JobTopology


class TestTopology:
    def test_block_layout(self):
        topo = JobTopology(nprocs=8, nnodes=2)
        assert topo.ranks_per_node == 4
        assert topo.node_of_rank(0) == 0
        assert topo.node_of_rank(3) == 0
        assert topo.node_of_rank(4) == 1
        assert list(topo.node_map()) == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_uneven_split(self):
        topo = JobTopology(nprocs=7, nnodes=3)
        assert topo.ranks_per_node == 3
        assert list(topo.node_map()) == [0, 0, 0, 1, 1, 1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            JobTopology(nprocs=2, nnodes=4)
        with pytest.raises(ValueError):
            JobTopology(nprocs=0, nnodes=1)
        topo = JobTopology(4, 2)
        with pytest.raises(ValueError):
            topo.node_of_rank(4)

    def test_node_map_matches_node_of_rank(self):
        topo = JobTopology(nprocs=7, nnodes=3)
        nm = topo.node_map()
        assert nm.dtype == np.int64
        assert list(nm) == [topo.node_of_rank(r) for r in range(7)]


@given(st.integers(1, 64), st.integers(1, 16))
def test_every_rank_on_exactly_one_node(nprocs, nnodes):
    if nnodes > nprocs:
        nnodes = nprocs
    nm = JobTopology(nprocs, nnodes).node_map()
    assert nm.shape == (nprocs,)
    # block order; a trailing node may stay empty under the ceil split
    assert nm[0] == 0 and set(np.diff(nm).tolist()) <= {0, 1} and nm[-1] < nnodes
