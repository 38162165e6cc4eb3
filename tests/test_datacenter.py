"""Topology, naming, and component-model tests."""

import re

import pytest

from repro.datacenter import (
    Component,
    ComponentKind,
    DEFAULT_NAME_PATTERNS,
    Topology,
    TopologySpec,
    build_topology,
    cluster_name,
    dc_name,
    kind_of_name,
    server_name,
    switch_name,
    vm_name,
)


@pytest.fixture(scope="module")
def topo() -> Topology:
    return build_topology(TopologySpec())


class TestNaming:
    def test_formats(self):
        assert dc_name(3) == "dc3"
        assert cluster_name(10, 3) == "c10.dc3"
        assert switch_name("tor", 4, 10, 3) == "sw-tor4.c10.dc3"
        assert server_name(17, 10, 3) == "srv-17.c10.dc3"
        assert vm_name(42, 10, 3) == "vm-42.c10.dc3"

    def test_bad_switch_role(self):
        with pytest.raises(ValueError):
            switch_name("core", 0, 1, 0)

    def test_patterns_extract_own_names(self):
        text = "vm-42.c10.dc3 srv-17.c10.dc3 sw-agg1.c10.dc3 c10.dc3 dc3"
        for kind, expected in [
            (ComponentKind.VM, "vm-42.c10.dc3"),
            (ComponentKind.SERVER, "srv-17.c10.dc3"),
            (ComponentKind.SWITCH, "sw-agg1.c10.dc3"),
            (ComponentKind.CLUSTER, "c10.dc3"),
            (ComponentKind.DC, "dc3"),
        ]:
            assert expected in re.findall(DEFAULT_NAME_PATTERNS[kind], text)

    def test_cluster_pattern_not_fooled_by_vm_suffix(self):
        matches = re.findall(
            DEFAULT_NAME_PATTERNS[ComponentKind.CLUSTER], "vm-1.c10.dc3"
        )
        assert matches == []

    def test_kind_of_name(self):
        assert kind_of_name("vm-1.c2.dc0") is ComponentKind.VM
        assert kind_of_name("srv-1.c2.dc0") is ComponentKind.SERVER
        assert kind_of_name("sw-tor1.c2.dc0") is ComponentKind.SWITCH
        assert kind_of_name("c2.dc0") is ComponentKind.CLUSTER
        assert kind_of_name("dc0") is ComponentKind.DC
        assert kind_of_name("weird") is None


class TestComponent:
    def test_equality_by_name(self):
        a = Component(ComponentKind.VM, "vm-1.c1.dc0")
        b = Component(ComponentKind.VM, "vm-1.c1.dc0")
        assert a == b and hash(a) == hash(b)

    def test_cluster_and_dc_names(self):
        c = Component(ComponentKind.VM, "vm-1.c3.dc2")
        assert c.cluster_name == "c3.dc2"
        assert c.dc_name == "dc2"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Component(ComponentKind.VM, "")


class TestTopology:
    def test_component_counts(self, topo):
        spec = topo.spec
        assert len(topo.components(ComponentKind.DC)) == spec.n_dcs
        assert (
            len(topo.components(ComponentKind.CLUSTER))
            == spec.n_dcs * spec.clusters_per_dc
        )
        expected_servers = (
            spec.n_dcs
            * spec.clusters_per_dc
            * spec.racks_per_cluster
            * spec.servers_per_rack
        )
        assert len(topo.components(ComponentKind.SERVER)) == expected_servers
        assert (
            len(topo.components(ComponentKind.VM))
            == expected_servers * spec.vms_per_server
        )

    def test_unknown_component_raises(self, topo):
        with pytest.raises(KeyError):
            topo.component("nope")
        with pytest.raises(KeyError):
            topo.members("nope")
        with pytest.raises(KeyError):
            topo.expand_dependencies("nope")

    def test_vm_dependencies(self, topo):
        vm = topo.components(ComponentKind.VM)[0]
        deps = {d.kind for d in topo.expand_dependencies(vm.name)}
        assert ComponentKind.SERVER in deps
        assert ComponentKind.SWITCH in deps  # its server's ToR
        assert ComponentKind.CLUSTER in deps
        assert ComponentKind.DC in deps

    def test_dependencies_exclude_self(self, topo):
        server = topo.components(ComponentKind.SERVER)[0]
        deps = topo.expand_dependencies(server.name)
        assert all(d.name != server.name for d in deps)

    def test_cluster_members_do_not_include_spines(self, topo):
        cluster = topo.components(ComponentKind.CLUSTER)[0]
        switches = topo.members(cluster.name, ComponentKind.SWITCH)
        assert switches, "cluster should contain switches"
        assert all("spine" not in s.name for s in switches)

    def test_dc_members_include_spines(self, topo):
        dc = topo.components(ComponentKind.DC)[0]
        switches = topo.members(dc.name, ComponentKind.SWITCH)
        assert any("spine" in s.name for s in switches)

    def test_container_of_vm(self, topo):
        vm = topo.components(ComponentKind.VM)[0]
        cluster = topo.container(vm.name, ComponentKind.CLUSTER)
        assert cluster is not None
        assert vm.name.endswith(cluster.name)

    def test_container_of_dc_is_none(self, topo):
        dc = topo.components(ComponentKind.DC)[0]
        assert topo.container(dc.name, ComponentKind.CLUSTER) is None

    def test_members_cached_copies_are_independent(self, topo):
        cluster = topo.components(ComponentKind.CLUSTER)[0]
        first = topo.members(cluster.name)
        first.clear()
        assert topo.members(cluster.name)  # cache not corrupted

    @pytest.mark.parametrize("kind", list(ComponentKind))
    def test_components_memo_is_sorted_canonical_and_copied(self, kind):
        topo = build_topology(TopologySpec())
        expected = sorted(
            Component(kind, name)
            for name, data in topo._graph.nodes(data=True)
            if data["kind"] == kind
        )
        first = topo.components(kind)
        assert first == expected
        assert all(c is topo.component(c.name) for c in first)
        first.reverse()
        first.append(Component(kind, "intruder"))
        assert topo.components(kind) == expected

    def test_contains(self, topo):
        vm = topo.components(ComponentKind.VM)[0]
        assert vm.name in topo
        assert "bogus" not in topo

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TopologySpec(n_dcs=0)

    def test_server_depends_on_its_tor(self, topo):
        server = topo.components(ComponentKind.SERVER)[0]
        deps = topo.expand_dependencies(server.name)
        tors = [d for d in deps if d.kind is ComponentKind.SWITCH and "tor" in d.name]
        assert tors
