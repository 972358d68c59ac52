"""Cluster topology: nodes, pipeline-stage mapping and link model.

The paper's deployments map one pipeline stage per node and connect the
nodes with a fat InfiniBand fabric; pipeline p2p therefore crosses node
boundaries while sequence parallelism stays inside a node.  ``ClusterSpec``
captures that arrangement, and :meth:`ClusterSpec.p2p_time` gives the
alpha-beta cost of a pipeline transfer between two stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.node import A800_NODE, H20_NODE, NodeSpec

__all__ = ["ClusterSpec", "h20_cluster", "a800_cluster", "abstract_cluster"]


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of GPU nodes, one pipeline stage per node.

    Parameters
    ----------
    node:
        Per-node hardware description.
    num_nodes:
        Number of nodes == number of pipeline stages in the paper setup.
    name:
        Optional human-readable name.
    """

    node: NodeSpec
    num_nodes: int
    name: str = field(default="")

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")

    @property
    def num_stages(self) -> int:
        """Pipeline size ``p`` (one stage per node)."""
        return self.num_nodes

    @property
    def total_gpus(self) -> int:
        return self.num_nodes * self.node.gpus_per_node

    @property
    def sequence_parallel_size(self) -> int:
        """Megatron sequence-parallel size inside a node (all its GPUs)."""
        return self.node.gpus_per_node

    def p2p_bytes_per_s(self) -> float:
        """Per-GPU-pair bandwidth for pipeline p2p across nodes."""
        return self.node.per_gpu_ib_bytes_per_s

    def p2p_time(self, nbytes: float) -> float:
        """Seconds to move ``nbytes`` between one GPU pair across nodes.

        Alpha-beta model: one-way latency plus serialisation at the
        fair-share per-GPU bandwidth.  ``nbytes`` is the *per-GPU shard*
        volume (sequence-parallel ranks transfer their own shards in
        parallel to their peer ranks).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.node.ib_latency_s + nbytes / self.p2p_bytes_per_s()

    def intra_node_collective_time(self, nbytes: float, kind: str = "all_gather") -> float:
        """Seconds for a ring collective over NVLink inside one node.

        ``nbytes`` is the full (unsharded) payload.  Ring all-gather /
        reduce-scatter move ``(t - 1) / t * nbytes`` through each link.
        """
        t = self.node.gpus_per_node
        if t == 1:
            return 0.0
        if kind not in ("all_gather", "reduce_scatter", "all_reduce"):
            raise ValueError(f"unknown collective kind: {kind!r}")
        bw = self.node.gpu.nvlink_bw_gbps * 1.0e9
        steps = nbytes * (t - 1) / t / bw
        if kind == "all_reduce":
            steps *= 2.0  # reduce-scatter followed by all-gather
        return steps


def abstract_cluster(
    num_stages: int, bytes_per_s: float = 1.0, latency_s: float = 0.0
) -> ClusterSpec:
    """A unit-world cluster for schedule-figure reproductions.

    Links move ``bytes_per_s`` abstract bytes per abstract second with
    ``latency_s`` latency, so pairing it with
    :class:`repro.schedules.costs.UnitCosts` makes every boundary transfer
    take exactly ``comm_time`` units.
    """
    from repro.cluster.gpu import H20

    node = NodeSpec(
        gpu=H20,
        gpus_per_node=1,
        num_hcas=1,
        hca_gbit_per_s=bytes_per_s * 8.0e-9,
        ib_latency_s=latency_s,
    )
    return ClusterSpec(node=node, num_nodes=num_stages, name=f"unit-x{num_stages}")


def h20_cluster(num_nodes: int) -> ClusterSpec:
    """The paper's H20 testbed with ``num_nodes`` nodes (stages)."""
    return ClusterSpec(node=H20_NODE, num_nodes=num_nodes, name=f"H20x{num_nodes}")


def a800_cluster(num_nodes: int) -> ClusterSpec:
    """The paper's A800 testbed with ``num_nodes`` nodes (stages)."""
    return ClusterSpec(node=A800_NODE, num_nodes=num_nodes, name=f"A800x{num_nodes}")
