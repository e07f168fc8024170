"""Contention-aware communication cost model.

The quantity the paper measures (Section VI-D) is the maximum time any
process spends in a barrier-synchronised ``MPI_Neighbor_alltoall``.  On
fat-tree clusters that time is governed by three resources:

1. **per-message software overhead** at each rank (dominates tiny
   messages),
2. **the node's NIC**, shared by all inter-node bytes entering/leaving the
   node (dominates large messages — this is where the mapping wins),
3. **the node's memory system**, shared by all intra-node (shared-memory)
   message bytes (the floor that keeps speedups finite even when a
   mapping removes almost all inter-node traffic).

The model charges each resource and takes the bottleneck:

``T = overhead + max_node max(NIC_out, NIC_in, MEM) (+ uplink)``

where ``NIC_out/in = L_inter + bytes / B_nic`` over the node's cut edges,
``MEM = L_intra + bytes / B_mem`` over its internal edges, and the
optional topology-aware ``uplink`` term charges leaf-switch up-links at
their blocked/pruned capacity.  Effective bandwidths are *calibrated*
constants (they fold protocol overhead and switch contention) chosen so
the blocked baseline of each machine lands in the magnitude range of
Tables II–VII; the reproduction's claims rest on time *ratios* between
mappings, which the resource structure determines.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from collections.abc import Mapping

from ..exceptions import SimulationError
from ..grid.graph import communication_edges, communication_edges_by_offset
from ..grid.grid import CartesianGrid
from ..grid.stencil import Stencil
from ..hardware.allocation import NodeAllocation
from ..hardware.topology import Topology
from ..metrics.cost import node_of_vertex

__all__ = ["NetworkParameters", "CommunicationModel", "AlltoallBreakdown"]


@dataclass(frozen=True)
class NetworkParameters:
    """Calibrated machine constants (see module docstring).

    Attributes
    ----------
    nic_bandwidth:
        Effective bytes/s a node can inject into (or drain from) the
        network during a neighbourhood collective.
    memory_bandwidth:
        Effective bytes/s of one node's shared-memory message channel.
    inter_latency / intra_latency:
        Startup latency of an inter-/intra-node transfer (seconds).
    per_message_overhead:
        CPU cost per posted send or receive at one rank (seconds).
    """

    nic_bandwidth: float
    memory_bandwidth: float
    inter_latency: float = 2.0e-6
    intra_latency: float = 5.0e-7
    per_message_overhead: float = 1.0e-6

    def __post_init__(self) -> None:
        for field_name in (
            "nic_bandwidth",
            "memory_bandwidth",
            "inter_latency",
            "intra_latency",
            "per_message_overhead",
        ):
            value = getattr(self, field_name)
            if value <= 0 and field_name.endswith("bandwidth"):
                raise SimulationError(f"{field_name} must be positive, got {value}")
            if value < 0:
                raise SimulationError(f"{field_name} must be >= 0, got {value}")

    def scaled(self, **kwargs: float) -> "NetworkParameters":
        """A copy with some fields replaced (calibration helper)."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class AlltoallBreakdown:
    """Per-resource times of one simulated neighbour all-to-all."""

    total: float
    overhead: float
    nic_out: float
    nic_in: float
    memory: float
    uplink: float

    @property
    def bottleneck(self) -> str:
        """Name of the dominating resource."""
        names = {
            "nic_out": self.nic_out,
            "nic_in": self.nic_in,
            "memory": self.memory,
            "uplink": self.uplink,
        }
        return max(names, key=names.get)


class CommunicationModel:
    """Evaluate the neighbour all-to-all time of a mapping on a machine.

    Parameters
    ----------
    params:
        Calibrated network constants.
    topology:
        Interconnect structure; only consulted when ``topology_aware``.
    topology_aware:
        Charge leaf-switch up-links at blocked/pruned capacity.  Off by
        default — the paper's model assumes homogeneous inter-node
        performance.
    """

    def __init__(
        self,
        params: NetworkParameters,
        topology: Topology | None = None,
        *,
        topology_aware: bool = False,
    ):
        if topology_aware and topology is None:
            raise SimulationError("topology_aware=True requires a topology")
        self.params = params
        self.topology = topology
        self.topology_aware = bool(topology_aware)

    # ------------------------------------------------------------------
    # Core evaluation
    # ------------------------------------------------------------------
    def alltoall_breakdown(
        self,
        grid: CartesianGrid,
        stencil: Stencil,
        perm: np.ndarray,
        alloc: NodeAllocation,
        message_bytes: int,
        *,
        edges: np.ndarray | None = None,
    ) -> AlltoallBreakdown:
        """Per-resource breakdown of one ``neighbor_alltoall`` (seconds).

        ``message_bytes`` is the payload sent to *each* neighbour, as in
        the paper's tables.
        """
        if message_bytes < 0:
            raise SimulationError(f"message_bytes must be >= 0, got {message_bytes}")
        if edges is None:
            edges = communication_edges(grid, stencil)
        nodes = node_of_vertex(perm, alloc)
        num_nodes = alloc.num_nodes
        p = self.params
        m = float(message_bytes)

        if edges.shape[0] == 0:
            return AlltoallBreakdown(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

        src_nodes = nodes[edges[:, 0]]
        dst_nodes = nodes[edges[:, 1]]
        cut = src_nodes != dst_nodes

        out_msgs = np.bincount(src_nodes[cut], minlength=num_nodes)
        in_msgs = np.bincount(dst_nodes[cut], minlength=num_nodes)
        intra_msgs = np.bincount(src_nodes[~cut], minlength=num_nodes)

        # Per-rank software overhead: every rank posts its sends and
        # receives; the slowest rank has the largest neighbourhood.
        degrees_out = np.bincount(edges[:, 0], minlength=grid.size)
        degrees_in = np.bincount(edges[:, 1], minlength=grid.size)
        overhead = p.per_message_overhead * float(
            (degrees_out + degrees_in).max()
        )

        nic_out = float(out_msgs.max()) * m / p.nic_bandwidth
        nic_in = float(in_msgs.max()) * m / p.nic_bandwidth
        if out_msgs.max() > 0:
            nic_out += p.inter_latency
        if in_msgs.max() > 0:
            nic_in += p.inter_latency
        memory = float(intra_msgs.max()) * m / p.memory_bandwidth
        if intra_msgs.max() > 0:
            memory += p.intra_latency

        uplink = 0.0
        if self.topology_aware:
            uplink = self._uplink_time(src_nodes, dst_nodes, cut, num_nodes, m)

        total = overhead + max(nic_out, nic_in, memory, uplink)
        return AlltoallBreakdown(
            total=total,
            overhead=overhead,
            nic_out=nic_out,
            nic_in=nic_in,
            memory=memory,
            uplink=uplink,
        )

    def alltoall_time(
        self,
        grid: CartesianGrid,
        stencil: Stencil,
        perm: np.ndarray,
        alloc: NodeAllocation,
        message_bytes: int,
        *,
        edges: np.ndarray | None = None,
    ) -> float:
        """Deterministic model time of one ``neighbor_alltoall`` (seconds)."""
        return self.alltoall_breakdown(
            grid, stencil, perm, alloc, message_bytes, edges=edges
        ).total

    def weighted_alltoall_time(
        self,
        grid: CartesianGrid,
        stencil: Stencil,
        perm: np.ndarray,
        alloc: NodeAllocation,
        offset_bytes: Mapping[tuple[int, ...], int],
    ) -> float:
        """Exchange time when offsets carry different byte counts.

        ``offset_bytes`` maps each stencil offset to its message size —
        typically from :func:`repro.workloads.halo_exchange_volume`,
        where a 3-hop offset moves a 3-layer halo slab.  Charges the
        same three resources as :meth:`alltoall_breakdown` with
        per-edge byte weights.
        """
        missing = [off for off in stencil.offsets if off not in offset_bytes]
        if missing:
            raise SimulationError(
                f"offset_bytes missing entries for offsets {missing}"
            )
        edges, offset_index = communication_edges_by_offset(grid, stencil)
        if edges.shape[0] == 0:
            return 0.0
        p = self.params
        nodes = node_of_vertex(perm, alloc)
        num_nodes = alloc.num_nodes
        bytes_per_offset = np.array(
            [float(offset_bytes[off]) for off in stencil.offsets]
        )
        edge_bytes = bytes_per_offset[offset_index]

        src_nodes = nodes[edges[:, 0]]
        dst_nodes = nodes[edges[:, 1]]
        cut = src_nodes != dst_nodes

        out_bytes = np.bincount(
            src_nodes[cut], weights=edge_bytes[cut], minlength=num_nodes
        )
        in_bytes = np.bincount(
            dst_nodes[cut], weights=edge_bytes[cut], minlength=num_nodes
        )
        intra_bytes = np.bincount(
            src_nodes[~cut], weights=edge_bytes[~cut], minlength=num_nodes
        )
        degrees = np.bincount(edges[:, 0], minlength=grid.size) + np.bincount(
            edges[:, 1], minlength=grid.size
        )
        overhead = p.per_message_overhead * float(degrees.max())
        nic_out = out_bytes.max() / p.nic_bandwidth
        nic_in = in_bytes.max() / p.nic_bandwidth
        if out_bytes.max() > 0:
            nic_out += p.inter_latency
        if in_bytes.max() > 0:
            nic_in += p.inter_latency
        memory = intra_bytes.max() / p.memory_bandwidth
        if intra_bytes.max() > 0:
            memory += p.intra_latency
        return overhead + max(nic_out, nic_in, memory)

    def _uplink_time(
        self,
        src_nodes: np.ndarray,
        dst_nodes: np.ndarray,
        cut: np.ndarray,
        num_nodes: int,
        message_bytes: float,
    ) -> float:
        """Shared up-link term for traffic crossing leaf groups."""
        topo = self.topology
        assert topo is not None
        leaf = topo.leaf_of(np.arange(num_nodes))
        src_leaf = leaf[src_nodes[cut]]
        dst_leaf = leaf[dst_nodes[cut]]
        far = src_leaf != dst_leaf
        if not far.any():
            return 0.0
        num_leaves = int(leaf.max()) + 1
        far_out = np.bincount(src_leaf[far], minlength=num_leaves)
        far_in = np.bincount(dst_leaf[far], minlength=num_leaves)
        nodes_per_leaf = np.bincount(leaf, minlength=num_leaves).astype(float)
        capacity = (
            nodes_per_leaf
            * self.params.nic_bandwidth
            * topo.uplink_capacity_fraction()
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            t_out = np.where(capacity > 0, far_out * message_bytes / capacity, 0.0)
            t_in = np.where(capacity > 0, far_in * message_bytes / capacity, 0.0)
        return float(max(t_out.max(), t_in.max()))

    # ------------------------------------------------------------------
    # Noisy sampling for the statistics pipeline
    # ------------------------------------------------------------------
    def sample_times(
        self,
        grid: CartesianGrid,
        stencil: Stencil,
        perm: np.ndarray,
        alloc: NodeAllocation,
        message_bytes: int,
        *,
        repetitions: int = 200,
        rng: np.random.Generator | None = None,
        noise: float = 0.02,
        outlier_probability: float = 0.01,
        edges: np.ndarray | None = None,
    ) -> np.ndarray:
        """Noisy repetitions of the model time (the paper runs 200 reps).

        Multiplicative Gaussian noise models run-to-run variation; rare
        large outliers model OS jitter — the paper's outlier-removal and
        confidence-interval pipeline is then exercised on realistic input.
        """
        if repetitions <= 0:
            raise SimulationError(f"repetitions must be positive, got {repetitions}")
        rng = rng if rng is not None else np.random.default_rng(0)
        base = self.alltoall_time(
            grid, stencil, perm, alloc, message_bytes, edges=edges
        )
        factors = 1.0 + np.abs(rng.normal(0.0, noise, size=repetitions))
        outliers = rng.random(repetitions) < outlier_probability
        factors[outliers] *= rng.uniform(2.0, 10.0, size=int(outliers.sum()))
        return base * factors

    def __repr__(self) -> str:
        return (
            f"CommunicationModel(params={self.params!r}, "
            f"topology={self.topology!r}, topology_aware={self.topology_aware})"
        )
