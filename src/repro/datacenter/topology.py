"""Synthetic datacenter topology with dependency expansion.

Replaces the provider's "logical/physical topology abstractions" [52]
that real Scouts use to resolve component dependencies (§5.1).  The
topology is a containment tree (DC → cluster → rack → server → VM, with
ToR/agg/spine switches attached to racks and clusters) stored in a
:mod:`networkx` DiGraph, plus helpers the Scout framework calls:

* :meth:`Topology.component` — name → :class:`Component`;
* :meth:`Topology.expand_dependencies` — the components a given
  component depends on (e.g. a VM depends on its server, its ToR, its
  cluster fabric and its DC);
* :meth:`Topology.members` — children of a container (e.g. all switches
  of a cluster), used when an incident implicates a whole cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from . import naming
from .components import Component, ComponentKind

__all__ = ["TopologySpec", "Topology", "build_topology"]


@dataclass(frozen=True)
class TopologySpec:
    """Sizing knobs for the synthetic cloud."""

    n_dcs: int = 2
    clusters_per_dc: int = 4
    racks_per_cluster: int = 4
    servers_per_rack: int = 4
    vms_per_server: int = 2
    agg_switches_per_cluster: int = 2
    spine_switches_per_dc: int = 4

    def __post_init__(self) -> None:
        for field_name in (
            "n_dcs",
            "clusters_per_dc",
            "racks_per_cluster",
            "servers_per_rack",
            "vms_per_server",
            "agg_switches_per_cluster",
            "spine_switches_per_dc",
        ):
            if getattr(self, field_name) < 1:
                raise ValueError(f"{field_name} must be >= 1")


class Topology:
    """A fitted containment/dependency graph over named components.

    Edges point from container to contained (``dc3 -> c10.dc3``) and
    from dependent to dependency for cross-tree links
    (``srv-1.c10.dc3 -> sw-tor0.c10.dc3``).
    """

    def __init__(self, graph: nx.DiGraph, spec: TopologySpec) -> None:
        self._graph = graph
        self.spec = spec
        # The topology is immutable once built; containment and
        # dependency queries are memoized (they run in the Scout's
        # per-incident hot path).
        self._members_cache: dict[tuple[str, ComponentKind | None], list[Component]] = {}
        self._deps_cache: dict[str, list[Component]] = {}
        self._kind_cache: dict[ComponentKind, list[Component]] = {}
        # One Component per node, named by the graph's own key string:
        # whatever a lookup's name was sliced from (an incident's text),
        # every extracted component and explanation shares this one.
        self._components = {
            name: Component(data["kind"], name)
            for name, data in graph.nodes(data=True)
        }

    # -- lookup ------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._graph

    def component(self, name: str) -> Component:
        try:
            return self._components[name]
        except KeyError:
            raise KeyError(f"unknown component: {name!r}") from None

    def components(self, kind: ComponentKind) -> list[Component]:
        """All components of one kind, sorted by name."""
        cached = self._kind_cache.get(kind)
        if cached is None:
            cached = self._kind_cache[kind] = sorted(
                c for c in self._components.values() if c.kind == kind
            )
        return list(cached)

    @property
    def n_components(self) -> int:
        return self._graph.number_of_nodes()

    # -- containment -------------------------------------------------------

    def _contained_children(self, name: str) -> list[str]:
        """Successors along containment (non-dependency) edges only."""
        return [
            succ
            for succ in self._graph.successors(name)
            if not self._graph.edges[name, succ].get("dependency")
        ]

    def members(
        self, name: str, kind: ComponentKind | None = None
    ) -> list[Component]:
        """Components contained (transitively) under ``name``.

        Traversal follows containment edges only, so e.g. a cluster's
        members never leak into the DC-level spine switches its
        aggregation layer *depends on*.
        """
        if name not in self._graph:
            raise KeyError(f"unknown component: {name!r}")
        cached = self._members_cache.get((name, kind))
        if cached is not None:
            return list(cached)
        out = []
        frontier = self._contained_children(name)
        seen = set(frontier)
        while frontier:
            node = frontier.pop()
            node_kind = self._graph.nodes[node]["kind"]
            if kind is None or node_kind == kind:
                out.append(Component(node_kind, node))
            for child in self._contained_children(node):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        out.sort()
        self._members_cache[(name, kind)] = out
        return list(out)

    def container(
        self, name: str, kind: ComponentKind
    ) -> Component | None:
        """The enclosing component of ``kind`` (e.g. a VM's cluster)."""
        if name not in self._graph:
            raise KeyError(f"unknown component: {name!r}")
        frontier = [name]
        seen = set(frontier)
        while frontier:
            node = frontier.pop()
            for parent in self._graph.predecessors(node):
                if self._graph.edges[parent, node].get("dependency"):
                    continue
                if parent in seen:
                    continue
                seen.add(parent)
                if self._graph.nodes[parent]["kind"] == kind:
                    return Component(kind, parent)
                frontier.append(parent)
        return None

    # -- dependencies ------------------------------------------------------

    def expand_dependencies(self, name: str) -> list[Component]:
        """Components ``name`` directly or structurally depends on.

        A VM depends on its host server; a server on its ToR switch; all
        leaf components on their cluster and DC.  This mirrors how the
        PhyNet Scout widens an incident that only mentions a VM into the
        switches/servers/clusters whose monitoring data matters.
        """
        if name not in self._graph:
            raise KeyError(f"unknown component: {name!r}")
        cached = self._deps_cache.get(name)
        if cached is not None:
            return list(cached)
        deps: set[Component] = set()
        kind = self._graph.nodes[name]["kind"]
        # Structural ancestors: cluster and DC always matter.
        for container_kind in (ComponentKind.CLUSTER, ComponentKind.DC):
            if kind == container_kind:
                continue
            container = self.container(name, container_kind)
            if container is not None:
                deps.add(container)
        # Explicit dependency edges (VM -> server, server -> ToR, ...).
        for succ in self._graph.successors(name):
            if self._graph.edges[name, succ].get("dependency"):
                deps.add(self.component(succ))
        # One more hop: a VM also depends on its server's ToR.
        for dep in list(deps):
            for succ in self._graph.successors(dep.name):
                if self._graph.edges[dep.name, succ].get("dependency"):
                    deps.add(self.component(succ))
        deps.discard(self.component(name))
        result = sorted(deps)
        self._deps_cache[name] = result
        return list(result)


def build_topology(spec: TopologySpec | None = None) -> Topology:
    """Construct the synthetic cloud described by ``spec``."""
    spec = spec or TopologySpec()
    graph = nx.DiGraph()

    for dc in range(spec.n_dcs):
        dc_label = naming.dc_name(dc)
        graph.add_node(dc_label, kind=ComponentKind.DC)
        # Spine switches are DC-level; they live in the reserved "c0"
        # namespace of their DC.
        spines = [
            naming.switch_name("spine", s, 0, dc)
            for s in range(spec.spine_switches_per_dc)
        ]
        # Clusters are 1-indexed: the "c0" namespace is reserved for the
        # DC-level spine switches.
        for cluster in range(1, spec.clusters_per_dc + 1):
            cluster_label = naming.cluster_name(cluster, dc)
            graph.add_node(cluster_label, kind=ComponentKind.CLUSTER)
            graph.add_edge(dc_label, cluster_label)
            aggs = []
            for a in range(spec.agg_switches_per_cluster):
                agg = naming.switch_name("agg", a, cluster, dc)
                graph.add_node(agg, kind=ComponentKind.SWITCH)
                graph.add_edge(cluster_label, agg)
                aggs.append(agg)
            server_index = 0
            vm_index = 0
            for rack in range(spec.racks_per_cluster):
                tor = naming.switch_name("tor", rack, cluster, dc)
                graph.add_node(tor, kind=ComponentKind.SWITCH)
                graph.add_edge(cluster_label, tor)
                for agg in aggs:
                    graph.add_edge(tor, agg, dependency=True)
                for _ in range(spec.servers_per_rack):
                    server = naming.server_name(server_index, cluster, dc)
                    server_index += 1
                    graph.add_node(server, kind=ComponentKind.SERVER)
                    graph.add_edge(cluster_label, server)
                    graph.add_edge(server, tor, dependency=True)
                    for _ in range(spec.vms_per_server):
                        vm = naming.vm_name(vm_index, cluster, dc)
                        vm_index += 1
                        graph.add_node(vm, kind=ComponentKind.VM)
                        graph.add_edge(server, vm)
                        graph.add_edge(vm, server, dependency=True)
        # Spine switches hang off the DC; every cluster's aggs depend on
        # them.
        for spine in spines:
            graph.add_node(spine, kind=ComponentKind.SWITCH)
            graph.add_edge(dc_label, spine)
        for cluster in range(1, spec.clusters_per_dc + 1):
            for a in range(spec.agg_switches_per_cluster):
                agg = naming.switch_name("agg", a, cluster, dc)
                for spine in spines:
                    graph.add_edge(agg, spine, dependency=True)

    return Topology(graph, spec)
