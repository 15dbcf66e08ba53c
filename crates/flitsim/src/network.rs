//! Explicit port graph derived from the implicit XGFT topology.

use crate::util::{ix, small_u32, small_u8};
use xgft::{NodeId, Topology};

/// Flattened node/port indexing for the simulator.
///
/// * Node gids: processing nodes first (`0 .. N`, equal to their
///   [`xgft::PnId`]), then switches level by level.
/// * Port gids: per node, `port_base[node] + local_port`, with local
///   port numbering identical to the paper's (up ports first).
/// * `peer[port]` is the port gid at the other end of the cable; since
///   every cable is a full-duplex pair, the same table maps an output
///   unit to the downstream input unit and an input unit to the
///   upstream output unit.
#[derive(Debug, Clone)]
pub struct PortGraph {
    node_level_base: Vec<u32>,
    port_base: Vec<u32>,
    node_of_port: Vec<u32>,
    peer: Vec<u32>,
    nodes: Vec<NodeId>,
    num_pns: u32,
}

impl PortGraph {
    /// Build the port graph of a topology.
    pub fn new(topo: &Topology) -> Self {
        let h = topo.height();
        let mut node_level_base = vec![0u32; h + 2];
        for l in 0..=h {
            node_level_base[l + 1] = node_level_base[l] + topo.nodes_at_level(l);
        }
        let num_nodes = ix(node_level_base[h + 1]);
        let mut nodes = Vec::with_capacity(num_nodes);
        let mut port_base = Vec::with_capacity(num_nodes + 1);
        let mut node_of_port = Vec::new();
        let mut next_port = 0u32;
        for l in 0..=h {
            let ports = topo.ports_at_level(l);
            for rank in 0..topo.nodes_at_level(l) {
                nodes.push(NodeId {
                    level: small_u8(l),
                    rank,
                });
                port_base.push(next_port);
                let gid = small_u32(nodes.len() - 1);
                for _ in 0..ports {
                    node_of_port.push(gid);
                }
                next_port += ports;
            }
        }
        port_base.push(next_port);
        let mut graph = PortGraph {
            node_level_base,
            port_base,
            node_of_port,
            peer: vec![u32::MAX; ix(next_port)],
            nodes,
            num_pns: topo.num_pns(),
        };
        // Wire every cable once, from the up-link's endpoints (the
        // down-link mirrors it).
        for l in 1..=h {
            for child in 0..topo.nodes_at_level(l - 1) {
                for port in 0..topo.spec().w_at(l) {
                    let link = topo.up_link(l, child, port);
                    let e = topo.endpoints(link);
                    let a = graph.port_gid(graph.node_gid(e.from), e.from_port);
                    let b = graph.port_gid(graph.node_gid(e.to), e.to_port);
                    graph.peer[ix(a)] = b;
                    graph.peer[ix(b)] = a;
                }
            }
        }
        debug_assert!(graph.peer.iter().all(|&p| p != u32::MAX), "unwired port");
        graph
    }

    /// Global node id of a topology node.
    pub fn node_gid(&self, node: NodeId) -> u32 {
        self.node_level_base[usize::from(node.level)] + node.rank
    }

    /// Topology node behind a global node id.
    pub fn node(&self, gid: u32) -> NodeId {
        self.nodes[ix(gid)]
    }

    /// Total number of nodes (PNs + switches).
    pub fn num_nodes(&self) -> u32 {
        small_u32(self.nodes.len())
    }

    /// Number of processing nodes.
    pub fn num_pns(&self) -> u32 {
        self.num_pns
    }

    /// Number of ports owned by processing nodes. PNs are the first
    /// node gids, so these are the port gids `0 .. num_pn_ports()`.
    pub fn num_pn_ports(&self) -> u32 {
        self.port_base[ix(self.num_pns)]
    }

    /// Whether a node gid is a processing node.
    pub fn is_pn(&self, gid: u32) -> bool {
        gid < self.num_pns
    }

    /// Total number of ports (each is one input unit + one output unit).
    pub fn num_ports(&self) -> u32 {
        self.port_base.last().copied().unwrap_or(0)
    }

    /// Global port id of a node's local port.
    pub fn port_gid(&self, node_gid: u32, local_port: u32) -> u32 {
        debug_assert!(self.port_base[ix(node_gid)] + local_port < self.port_base[ix(node_gid) + 1]);
        self.port_base[ix(node_gid)] + local_port
    }

    /// Node gid owning a port.
    pub fn port_owner(&self, port_gid: u32) -> u32 {
        self.node_of_port[ix(port_gid)]
    }

    /// The node's local port index of a global port id.
    pub fn local_port(&self, port_gid: u32) -> u32 {
        port_gid - self.port_base[ix(self.port_owner(port_gid))]
    }

    /// The port at the other end of the cable.
    pub fn peer(&self, port_gid: u32) -> u32 {
        self.peer[ix(port_gid)]
    }

    /// The range of port gids of a node.
    pub fn ports_of(&self, node_gid: u32) -> std::ops::Range<u32> {
        self.port_base[ix(node_gid)]..self.port_base[ix(node_gid) + 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgft::{PnId, XgftSpec};

    fn graph() -> (Topology, PortGraph) {
        let t = Topology::new(XgftSpec::new(&[4, 4], &[1, 4]).unwrap());
        let g = PortGraph::new(&t);
        (t, g)
    }

    #[test]
    fn node_counts_and_pn_prefix() {
        let (t, g) = graph();
        assert_eq!(g.num_nodes(), 16 + 4 + 4);
        assert_eq!(g.num_pns(), 16);
        for p in 0..t.num_pns() {
            assert_eq!(g.node_gid(NodeId::pn(PnId(p))), p);
            assert!(g.is_pn(p));
        }
        assert!(!g.is_pn(16));
    }

    #[test]
    fn port_counts() {
        let (_t, g) = graph();
        // 16 PNs × 1 + 4 level-1 × (4+4) + 4 level-2 × 4 = 64 ports.
        assert_eq!(g.num_ports(), 16 + 32 + 16);
    }

    #[test]
    fn peer_is_an_involution_without_fixpoints() {
        let (_t, g) = graph();
        for p in 0..g.num_ports() {
            let q = g.peer(p);
            assert_ne!(p, q);
            assert_eq!(g.peer(q), p);
        }
    }

    #[test]
    fn owner_and_local_port_roundtrip() {
        let (_t, g) = graph();
        for node in 0..g.num_nodes() {
            for port in g.ports_of(node) {
                assert_eq!(g.port_owner(port), node);
                assert_eq!(g.port_gid(node, g.local_port(port)), port);
            }
        }
    }

    #[test]
    fn wiring_matches_topology_adjacency() {
        let (t, g) = graph();
        // PN 0's only port must reach its level-1 parent.
        let pn_port = g.port_gid(0, 0);
        let peer = g.peer(pn_port);
        let parent = g.node(g.port_owner(peer));
        assert_eq!(parent, t.parent(NodeId::pn(PnId(0)), 0));
        // And the parent's receiving port is a down port for child 0.
        assert_eq!(g.local_port(peer), t.down_port_offset(1));
    }

    #[test]
    fn route_ports_walk_the_graph() {
        // Following path_output_ports through the port graph ends at the
        // destination PN for every path of a far pair.
        let (t, g) = graph();
        let (s, d) = (PnId(0), PnId(15));
        for p in t.all_paths(s, d) {
            let route = t.path_output_ports(s, d, p);
            let mut node = g.node_gid(NodeId::pn(s));
            for &port in &route {
                let out = g.port_gid(node, port);
                node = g.port_owner(g.peer(out));
            }
            assert_eq!(node, g.node_gid(NodeId::pn(d)));
        }
    }
}
