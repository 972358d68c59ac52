"""Tests for node and cluster topology models."""

import pytest

from repro.cluster import (
    A800_NODE,
    H20_NODE,
    NodeSpec,
    a800_cluster,
    abstract_cluster,
    h20_cluster,
)
from repro.cluster.gpu import H20


class TestNodeSpec:
    def test_h20_node_aggregate_ib(self):
        # 4 x NDR-200 = 800 Gbit/s = 100 GB/s per node.
        assert H20_NODE.node_ib_bytes_per_s == pytest.approx(100e9)

    def test_a800_node_half_bandwidth(self):
        # Section 5.2: "A800 cluster only has half communication bandwidth".
        assert A800_NODE.node_ib_bytes_per_s == pytest.approx(
            H20_NODE.node_ib_bytes_per_s / 2
        )

    def test_per_gpu_fair_share(self):
        assert H20_NODE.per_gpu_ib_bytes_per_s == pytest.approx(100e9 / 8)

    def test_invalid_node(self):
        with pytest.raises(ValueError):
            NodeSpec(gpu=H20, gpus_per_node=0)


class TestClusterSpec:
    def test_stage_per_node(self):
        cl = h20_cluster(4)
        assert cl.num_stages == 4
        assert cl.total_gpus == 32
        assert cl.sequence_parallel_size == 8

    def test_p2p_time_alpha_beta(self):
        cl = h20_cluster(2)
        small = cl.p2p_time(0)
        assert small == pytest.approx(cl.node.ib_latency_s)
        one_gb = cl.p2p_time(12.5e9)
        assert one_gb == pytest.approx(cl.node.ib_latency_s + 1.0)

    def test_p2p_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            h20_cluster(2).p2p_time(-1.0)

    def test_h20_faster_p2p_than_a800(self):
        nbytes = 1e9
        assert h20_cluster(2).p2p_time(nbytes) < a800_cluster(2).p2p_time(nbytes)

    def test_collective_time_zero_for_single_gpu(self):
        cl = abstract_cluster(2)
        assert cl.intra_node_collective_time(1e9) == 0.0

    def test_all_reduce_twice_all_gather(self):
        cl = h20_cluster(2)
        ag = cl.intra_node_collective_time(1e9, "all_gather")
        ar = cl.intra_node_collective_time(1e9, "all_reduce")
        assert ar == pytest.approx(2 * ag)

    def test_unknown_collective_rejected(self):
        with pytest.raises(ValueError):
            h20_cluster(2).intra_node_collective_time(1e9, "alltoall")

    def test_abstract_cluster_unit_bandwidth(self):
        cl = abstract_cluster(4)
        # 1 abstract byte takes 1 abstract second, no latency.
        assert cl.p2p_time(1.0) == pytest.approx(1.0)
        assert cl.p2p_time(3.5) == pytest.approx(3.5)
