//! Dragonfly topology construction (paper §II-B).
//!
//! Slingshot's default topology: switches grouped with a full mesh inside
//! each group (copper), groups fully connected to each other (optical), and
//! endpoints attached to every switch. The diameter is 3 switch-to-switch
//! hops.

use crate::ids::{ChannelId, GroupId, NodeId, SwitchId};
use crate::link::LinkClass;
use serde::Serialize;
use std::collections::HashMap;

/// Shape parameters of a dragonfly.
///
/// Closed-form queries (`total_nodes`, `ports_needed_per_switch`, ...) are
/// available on the parameters alone; [`DragonflyParams::build`] constructs
/// the full channel-level topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct DragonflyParams {
    /// Number of groups (`g`).
    pub groups: u32,
    /// Switches per group (`a`), fully meshed with copper.
    pub switches_per_group: u32,
    /// Endpoints attached to each switch (`p`; 16 on Slingshot).
    pub endpoints_per_switch: u32,
    /// Optical cables between every pair of groups (`m`).
    pub global_links_per_pair: u32,
    /// Parallel copper cables between every pair of switches in a group
    /// (usually 1).
    pub intra_links_per_pair: u32,
}

/// A directed switch-to-switch channel (one direction of a full-duplex
/// cable).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct Channel {
    /// This channel's id.
    pub id: ChannelId,
    /// Sending switch.
    pub from: SwitchId,
    /// Receiving switch.
    pub to: SwitchId,
    /// Physical class (determines propagation delay).
    pub class: LinkClass,
}

/// Errors from parameter validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// A dimension was zero.
    ZeroDimension(&'static str),
    /// Multiple groups but no global links.
    DisconnectedGroups,
    /// Switch port budget exceeded.
    RadixExceeded {
        /// Ports a switch would need.
        needed: u32,
        /// Ports available.
        available: u32,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::ZeroDimension(d) => write!(f, "dragonfly dimension `{d}` is zero"),
            TopologyError::DisconnectedGroups => {
                write!(f, "multiple groups but global_links_per_pair == 0")
            }
            TopologyError::RadixExceeded { needed, available } => {
                write!(
                    f,
                    "switch needs {needed} ports but only {available} available"
                )
            }
        }
    }
}

impl std::error::Error for TopologyError {}

impl DragonflyParams {
    /// Validate basic shape invariants.
    pub fn validate(&self) -> Result<(), TopologyError> {
        if self.groups == 0 {
            return Err(TopologyError::ZeroDimension("groups"));
        }
        if self.switches_per_group == 0 {
            return Err(TopologyError::ZeroDimension("switches_per_group"));
        }
        if self.endpoints_per_switch == 0 {
            return Err(TopologyError::ZeroDimension("endpoints_per_switch"));
        }
        if self.groups > 1 && self.global_links_per_pair == 0 {
            return Err(TopologyError::DisconnectedGroups);
        }
        if self.switches_per_group > 1 && self.intra_links_per_pair == 0 {
            return Err(TopologyError::ZeroDimension("intra_links_per_pair"));
        }
        Ok(())
    }

    /// Validate against a switch radix (64 for Rosetta).
    pub fn validate_radix(&self, radix: u32) -> Result<(), TopologyError> {
        self.validate()?;
        let needed = self.ports_needed_per_switch();
        if needed > radix {
            return Err(TopologyError::RadixExceeded {
                needed,
                available: radix,
            });
        }
        Ok(())
    }

    /// Total switch count `g · a`.
    pub fn total_switches(&self) -> u32 {
        self.groups * self.switches_per_group
    }

    /// Total endpoint count `g · a · p`.
    pub fn total_nodes(&self) -> u32 {
        self.total_switches() * self.endpoints_per_switch
    }

    /// Global cable slots each group must provide: `(g − 1) · m`.
    pub fn global_slots_per_group(&self) -> u32 {
        self.groups.saturating_sub(1) * self.global_links_per_pair
    }

    /// Worst-case global ports on one switch (slots are distributed
    /// round-robin across the group's switches).
    pub fn global_ports_per_switch(&self) -> u32 {
        self.global_slots_per_group()
            .div_ceil(self.switches_per_group)
    }

    /// Ports one switch needs: endpoints + intra-mesh + global share.
    pub fn ports_needed_per_switch(&self) -> u32 {
        self.endpoints_per_switch
            + (self.switches_per_group - 1) * self.intra_links_per_pair
            + self.global_ports_per_switch()
    }

    /// Network diameter in switch-to-switch hops.
    pub fn diameter(&self) -> u32 {
        if self.groups > 1 {
            3
        } else if self.switches_per_group > 1 {
            1
        } else {
            0
        }
    }

    /// Total global (optical) cables in the system.
    pub fn total_global_cables(&self) -> u64 {
        let g = self.groups as u64;
        g * g.saturating_sub(1) / 2 * self.global_links_per_pair as u64
    }

    /// Global cables crossing a bisection that splits the groups into two
    /// halves (assumes even `g`): `(g/2)² · m`.
    pub fn bisection_global_cables(&self) -> u64 {
        let half = (self.groups / 2) as u64;
        half * half * self.global_links_per_pair as u64
    }

    /// Construct the channel-level topology.
    ///
    /// # Panics
    /// Panics if the parameters do not validate; call [`Self::validate`]
    /// first for fallible handling.
    pub fn build(self) -> Dragonfly {
        self.validate().expect("invalid dragonfly parameters");
        Dragonfly::new(self)
    }
}

/// One neighbor entry in the dense adjacency index: the peer switch and
/// the range of parallel channels toward it inside `adj_channels`.
#[derive(Clone, Copy, Debug)]
struct AdjEntry {
    to: SwitchId,
    start: u32,
    end: u32,
}

/// A fully built dragonfly topology with channel-level adjacency.
///
/// ## Precomputed route tables
///
/// Construction materializes every routing query the simulator's hot path
/// issues into flat CSR-style arrays, so the per-packet-per-hop calls
/// ([`Dragonfly::channels_between`], [`Dragonfly::next_hops_toward_switch`],
/// [`Dragonfly::next_hops_toward_group`], [`Dragonfly::min_hops`]) are
/// zero-allocation, zero-hash slice returns or arithmetic:
///
/// * **adjacency CSR** — per-switch neighbor lists (sorted by peer id, each
///   pointing at its contiguous run of parallel channels) replace the
///   `HashMap<(SwitchId, SwitchId), Vec<ChannelId>>` of the naive builder;
///   a switch has at most `radix` neighbors, so a binary search over its
///   row beats a SipHash lookup by a wide margin.
/// * **toward-group CSR** — the full `(switch, destination-group)`
///   candidate table. Inter-group minimal *and* Valiant queries collapse
///   onto this one table because a minimal route toward a switch in
///   another group starts exactly like a route toward that group.
///
/// The candidate order inside every slice is byte-identical to what the
/// legacy on-the-fly computation produced (the tables are *built from* it,
/// and `debug_assert`s re-verify on construction), so routing behaviour —
/// including RNG-driven tie-breaks — is unchanged.
pub struct Dragonfly {
    params: DragonflyParams,
    channels: Vec<Channel>,
    /// Adjacency CSR: neighbors of switch `s` are
    /// `adj[adj_off[s]..adj_off[s+1]]`, sorted by peer id.
    adj_off: Vec<u32>,
    adj: Vec<AdjEntry>,
    /// Channel ids backing the adjacency entries (parallel cables
    /// contiguous, in construction order).
    adj_channels: Vec<ChannelId>,
    /// Toward-group CSR: candidates for `(switch s, group t)` are
    /// `toward[toward_off[s·g + t]..toward_off[s·g + t + 1]]`.
    toward_off: Vec<u32>,
    toward: Vec<ChannelId>,
    /// `global_by_group[switch][group]` → this switch's global channels into
    /// that group.
    global_by_group: Vec<Vec<Vec<ChannelId>>>,
    /// `gateways[group][target_group]` → switches in `group` owning a global
    /// channel into `target_group`.
    gateways: Vec<Vec<Vec<SwitchId>>>,
}

impl Dragonfly {
    fn new(params: DragonflyParams) -> Self {
        let g = params.groups;
        let a = params.switches_per_group;
        let s_total = (g * a) as usize;

        let mut channels = Vec::new();
        let mut between: HashMap<(SwitchId, SwitchId), Vec<ChannelId>> = HashMap::new();
        let mut global_by_group = vec![vec![Vec::new(); g as usize]; s_total];
        let mut gateways = vec![vec![Vec::new(); g as usize]; g as usize];

        let add_pair = |channels: &mut Vec<Channel>,
                        between: &mut HashMap<(SwitchId, SwitchId), Vec<ChannelId>>,
                        x: SwitchId,
                        y: SwitchId,
                        class: LinkClass| {
            for (from, to) in [(x, y), (y, x)] {
                let id = ChannelId(channels.len() as u32);
                channels.push(Channel {
                    id,
                    from,
                    to,
                    class,
                });
                between.entry((from, to)).or_default().push(id);
            }
        };

        // Intra-group full mesh.
        for grp in 0..g {
            for x in 0..a {
                for y in (x + 1)..a {
                    let sx = SwitchId(grp * a + x);
                    let sy = SwitchId(grp * a + y);
                    for _ in 0..params.intra_links_per_pair {
                        add_pair(&mut channels, &mut between, sx, sy, LinkClass::LocalCopper);
                    }
                }
            }
        }

        // Global all-to-all between groups. Cable `k` of pair `(i, j)`
        // attaches round-robin within each group based on the peer's rank in
        // the group's sorted list of other groups — this spreads the
        // `(g−1)·m` slots evenly (17 per switch in the paper's largest
        // 545-group system).
        let slot_switch = |own: u32, peer: u32, k: u32| -> u32 {
            let rank = if peer < own { peer } else { peer - 1 };
            (rank * params.global_links_per_pair + k) % a
        };
        for i in 0..g {
            for j in (i + 1)..g {
                for k in 0..params.global_links_per_pair {
                    let si = SwitchId(i * a + slot_switch(i, j, k));
                    let sj = SwitchId(j * a + slot_switch(j, i, k));
                    add_pair(
                        &mut channels,
                        &mut between,
                        si,
                        sj,
                        LinkClass::GlobalOptical,
                    );
                }
            }
        }

        // Derive global adjacency indices.
        for ch in &channels {
            if ch.class == LinkClass::GlobalOptical {
                let from_grp = (ch.from.0 / a) as usize;
                let to_grp = (ch.to.0 / a) as usize;
                global_by_group[ch.from.index()][to_grp].push(ch.id);
                let gw = &mut gateways[from_grp][to_grp];
                if !gw.contains(&ch.from) {
                    gw.push(ch.from);
                }
            }
        }

        // ---- Adjacency CSR (replaces the `between` hash map) ----
        // Neighbor rows sorted by peer id; each row's parallel channels
        // keep their construction order so candidate slices are identical
        // to what the hash-map lookup returned.
        let mut adj_off = Vec::with_capacity(s_total + 1);
        let mut adj: Vec<AdjEntry> = Vec::new();
        let mut adj_channels: Vec<ChannelId> = Vec::new();
        adj_off.push(0u32);
        for from in 0..s_total as u32 {
            let mut peers: Vec<SwitchId> = between
                .keys()
                .filter(|(f, _)| f.0 == from)
                .map(|&(_, t)| t)
                .collect();
            peers.sort_unstable();
            for to in peers {
                let chans = &between[&(SwitchId(from), to)];
                let start = adj_channels.len() as u32;
                adj_channels.extend_from_slice(chans);
                adj.push(AdjEntry {
                    to,
                    start,
                    end: adj_channels.len() as u32,
                });
            }
            adj_off.push(adj.len() as u32);
        }

        let mut topo = Dragonfly {
            params,
            channels,
            adj_off,
            adj,
            adj_channels,
            toward_off: Vec::new(),
            toward: Vec::new(),
            global_by_group,
            gateways,
        };

        // ---- Toward-group CSR ----
        // Built by running the reference computation once per (switch,
        // group) pair; the hot-path accessors then only slice into it.
        let mut toward_off = Vec::with_capacity(s_total * g as usize + 1);
        let mut toward: Vec<ChannelId> = Vec::new();
        toward_off.push(0u32);
        for sw in 0..s_total as u32 {
            for grp in 0..g {
                toward.extend_from_slice(
                    &topo.uncached_next_hops_toward_group(SwitchId(sw), GroupId(grp)),
                );
                toward_off.push(toward.len() as u32);
            }
        }
        topo.toward_off = toward_off;
        topo.toward = toward;

        #[cfg(debug_assertions)]
        topo.verify_route_tables();

        topo
    }

    /// Cross-check every precomputed table entry against the legacy
    /// on-the-fly computation (debug builds only; skipped for very large
    /// systems to keep debug construction fast).
    #[cfg(debug_assertions)]
    fn verify_route_tables(&self) {
        let s = self.switch_count();
        if s > 256 {
            return;
        }
        for cur in (0..s).map(SwitchId) {
            for dst in (0..s).map(SwitchId) {
                debug_assert_eq!(
                    self.next_hops_toward_switch(cur, dst),
                    self.uncached_next_hops_toward_switch(cur, dst).as_slice(),
                    "toward-switch table mismatch at {cur:?}->{dst:?}"
                );
                debug_assert_eq!(
                    self.min_hops(cur, dst),
                    self.bfs_min_hops(cur, dst),
                    "min-hops closed form mismatch at {cur:?}->{dst:?}"
                );
            }
            for grp in (0..self.params.groups).map(GroupId) {
                debug_assert_eq!(
                    self.next_hops_toward_group(cur, grp),
                    self.uncached_next_hops_toward_group(cur, grp).as_slice(),
                    "toward-group table mismatch at {cur:?}->{grp:?}"
                );
            }
        }
    }

    /// The shape parameters.
    pub fn params(&self) -> &DragonflyParams {
        &self.params
    }

    /// All directed channels.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Look up one channel.
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels[id.index()]
    }

    /// Total switches.
    pub fn switch_count(&self) -> u32 {
        self.params.total_switches()
    }

    /// Total endpoints.
    pub fn node_count(&self) -> u32 {
        self.params.total_nodes()
    }

    /// Group of a switch.
    #[inline]
    pub fn group_of(&self, sw: SwitchId) -> GroupId {
        GroupId(sw.0 / self.params.switches_per_group)
    }

    /// Switch a node is attached to.
    #[inline]
    pub fn switch_of_node(&self, node: NodeId) -> SwitchId {
        SwitchId(node.0 / self.params.endpoints_per_switch)
    }

    /// Nodes attached to a switch.
    pub fn nodes_of_switch(&self, sw: SwitchId) -> impl Iterator<Item = NodeId> {
        let p = self.params.endpoints_per_switch;
        (sw.0 * p..(sw.0 + 1) * p).map(NodeId)
    }

    /// Direct channels from `from` to `to` (parallel cables included).
    ///
    /// Zero-hash: a binary search over `from`'s dense neighbor row (at
    /// most `radix` entries) instead of a SipHash map lookup.
    pub fn channels_between(&self, from: SwitchId, to: SwitchId) -> &[ChannelId] {
        let lo = self.adj_off[from.index()] as usize;
        let hi = self.adj_off[from.index() + 1] as usize;
        let row = &self.adj[lo..hi];
        match row.binary_search_by_key(&to, |e| e.to) {
            Ok(i) => &self.adj_channels[row[i].start as usize..row[i].end as usize],
            Err(_) => &[],
        }
    }

    /// Global channels owned by `sw` into `group`.
    pub fn global_channels(&self, sw: SwitchId, group: GroupId) -> &[ChannelId] {
        &self.global_by_group[sw.index()][group.index()]
    }

    /// Switches of `from` owning a global channel into `to`.
    pub fn gateways(&self, from: GroupId, to: GroupId) -> &[SwitchId] {
        &self.gateways[from.index()][to.index()]
    }

    /// The precomputed toward-group candidate slice for `(sw, grp)`.
    #[inline]
    fn toward_group_slice(&self, sw: SwitchId, grp: GroupId) -> &[ChannelId] {
        let i = sw.index() * self.params.groups as usize + grp.index();
        &self.toward[self.toward_off[i] as usize..self.toward_off[i + 1] as usize]
    }

    /// Channels from `cur` that make minimal progress toward `dst`.
    ///
    /// Returns an empty slice when `cur == dst` (deliver locally).
    /// Zero-allocation: serves from the tables precomputed at
    /// construction.
    pub fn next_hops_toward_switch(&self, cur: SwitchId, dst: SwitchId) -> &[ChannelId] {
        if cur == dst {
            return &[];
        }
        let dst_grp = self.group_of(dst);
        if self.group_of(cur) == dst_grp {
            // Intra-group: the full mesh makes the direct channels the
            // unique minimal hop.
            return self.channels_between(cur, dst);
        }
        // Inter-group: a minimal route toward a switch of another group
        // starts exactly like a route toward that group.
        self.toward_group_slice(cur, dst_grp)
    }

    /// Channels from `cur` that make progress toward any switch of `group`
    /// (used for the Valiant phase of non-minimal routing). Empty when `cur`
    /// is already in `group`. Zero-allocation slice return.
    pub fn next_hops_toward_group(&self, cur: SwitchId, group: GroupId) -> &[ChannelId] {
        if self.group_of(cur) == group {
            return &[];
        }
        self.toward_group_slice(cur, group)
    }

    /// Reference implementation of [`Self::next_hops_toward_switch`]: the
    /// legacy per-call computation the precomputed tables must match
    /// element for element. Kept for construction-time `debug_assert`s and
    /// the property tests; allocates, so not for hot paths.
    #[doc(hidden)]
    pub fn uncached_next_hops_toward_switch(&self, cur: SwitchId, dst: SwitchId) -> Vec<ChannelId> {
        if cur == dst {
            return Vec::new();
        }
        let cur_grp = self.group_of(cur);
        let dst_grp = self.group_of(dst);
        if cur_grp == dst_grp {
            return self.channels_between(cur, dst).to_vec();
        }
        self.uncached_next_hops_toward_group(cur, dst_grp)
    }

    /// Reference implementation of [`Self::next_hops_toward_group`] (see
    /// [`Self::uncached_next_hops_toward_switch`]).
    #[doc(hidden)]
    pub fn uncached_next_hops_toward_group(&self, cur: SwitchId, group: GroupId) -> Vec<ChannelId> {
        let cur_grp = self.group_of(cur);
        if cur_grp == group {
            return Vec::new();
        }
        // Direct global channels into the destination group win.
        let direct = self.global_channels(cur, group);
        if !direct.is_empty() {
            return direct.to_vec();
        }
        // Otherwise hop to an in-group gateway.
        let mut out = Vec::new();
        for &gw in self.gateways(cur_grp, group) {
            if gw != cur {
                out.extend_from_slice(self.channels_between(cur, gw));
            }
        }
        out
    }

    /// Minimal switch-to-switch hop count between two switches.
    ///
    /// Closed form over the dragonfly route structure — no BFS, no
    /// allocation: intra-group pairs are 1 hop (full mesh); inter-group
    /// pairs take the best of `[local] + global + [local]` over the
    /// available gateways/landing switches.
    pub fn min_hops(&self, src: SwitchId, dst: SwitchId) -> u32 {
        if src == dst {
            return 0;
        }
        let src_grp = self.group_of(src);
        let dst_grp = self.group_of(dst);
        if src_grp == dst_grp {
            return 1;
        }
        let mut best = 4u32;
        // Direct global channels from src into the destination group.
        for &ch in self.global_channels(src, dst_grp) {
            best = best.min(if self.channel(ch).to == dst { 1 } else { 2 });
        }
        // One local hop to an in-group gateway, then its global channels.
        for &gw in self.gateways(src_grp, dst_grp) {
            if gw == src {
                continue;
            }
            for &ch in self.global_channels(gw, dst_grp) {
                best = best.min(if self.channel(ch).to == dst { 2 } else { 3 });
            }
        }
        debug_assert!(best <= 3, "dragonfly diameter exceeded — malformed");
        best
    }

    /// Reference BFS distance over the minimal-route structure; the closed
    /// form of [`Self::min_hops`] must agree with it everywhere. Kept for
    /// construction-time `debug_assert`s and the property tests.
    #[doc(hidden)]
    pub fn bfs_min_hops(&self, src: SwitchId, dst: SwitchId) -> u32 {
        if src == dst {
            return 0;
        }
        let mut frontier = vec![src];
        let mut visited = vec![false; self.switch_count() as usize];
        visited[src.index()] = true;
        for depth in 1..=4 {
            let mut next = Vec::new();
            for &sw in &frontier {
                for &hop in self.next_hops_toward_switch(sw, dst) {
                    let to = self.channel(hop).to;
                    if to == dst {
                        return depth;
                    }
                    if !visited[to.index()] {
                        visited[to.index()] = true;
                        next.push(to);
                    }
                }
            }
            frontier = next;
        }
        unreachable!("dragonfly diameter exceeded — topology is malformed");
    }

    /// Number of inter-switch hops on the minimal path between two nodes
    /// (the distance classes of the paper's Fig. 4: 1 = same switch,
    /// 2 = same group, 3 = different groups — counting NIC-switch-NIC as
    /// the paper does, i.e. `min_hops + 1`).
    pub fn node_distance_hops(&self, a: NodeId, b: NodeId) -> u32 {
        self.min_hops(self.switch_of_node(a), self.switch_of_node(b)) + 1
    }

    /// Directed channels crossing a bisection of groups: `left` holds the
    /// group ids on one side.
    pub fn bisection_channels(&self, left: &[GroupId]) -> Vec<ChannelId> {
        let is_left = |sw: SwitchId| -> bool { left.contains(&self.group_of(sw)) };
        self.channels
            .iter()
            .filter(|c| is_left(c.from) != is_left(c.to))
            .map(|c| c.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DragonflyParams {
        DragonflyParams {
            groups: 4,
            switches_per_group: 4,
            endpoints_per_switch: 4,
            global_links_per_pair: 2,
            intra_links_per_pair: 1,
        }
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        let mut p = small();
        p.groups = 0;
        assert!(p.validate().is_err());
        let mut p = small();
        p.global_links_per_pair = 0;
        assert_eq!(p.validate(), Err(TopologyError::DisconnectedGroups));
        let p = small();
        assert!(p.validate().is_ok());
    }

    #[test]
    fn radix_validation() {
        let p = small();
        // needs 4 + 3 + ceil(6/4)=2 → 9 ports
        assert_eq!(p.ports_needed_per_switch(), 9);
        assert!(p.validate_radix(9).is_ok());
        assert!(matches!(
            p.validate_radix(8),
            Err(TopologyError::RadixExceeded {
                needed: 9,
                available: 8
            })
        ));
    }

    #[test]
    fn paper_largest_system_numbers() {
        // §II-B: 545 groups × 32 switches × 16 endpoints = 279 040 nodes,
        // 17 global ports per switch, 544 global connections per group.
        let p = DragonflyParams {
            groups: 545,
            switches_per_group: 32,
            endpoints_per_switch: 16,
            global_links_per_pair: 1,
            intra_links_per_pair: 1,
        };
        assert_eq!(p.total_nodes(), 279_040);
        assert_eq!(p.global_slots_per_group(), 544);
        assert_eq!(p.global_ports_per_switch(), 17);
        // 16 endpoints + 31 intra + 17 global = 64 = full Rosetta radix.
        assert_eq!(p.ports_needed_per_switch(), 64);
        assert!(p.validate_radix(64).is_ok());
    }

    #[test]
    fn counts_and_memberships() {
        let d = small().build();
        assert_eq!(d.switch_count(), 16);
        assert_eq!(d.node_count(), 64);
        assert_eq!(d.group_of(SwitchId(0)), GroupId(0));
        assert_eq!(d.group_of(SwitchId(15)), GroupId(3));
        assert_eq!(d.switch_of_node(NodeId(0)), SwitchId(0));
        assert_eq!(d.switch_of_node(NodeId(63)), SwitchId(15));
        assert_eq!(d.nodes_of_switch(SwitchId(1)).count(), 4);
        let nodes: Vec<_> = d.nodes_of_switch(SwitchId(1)).collect();
        assert_eq!(nodes[0], NodeId(4));
        let group2: Vec<_> = (0..d.switch_count())
            .map(SwitchId)
            .filter(|&sw| d.group_of(sw) == GroupId(2))
            .collect();
        assert_eq!(
            group2,
            vec![SwitchId(8), SwitchId(9), SwitchId(10), SwitchId(11)]
        );
    }

    #[test]
    fn intra_group_is_full_mesh() {
        let d = small().build();
        for grp in 0..4u32 {
            for x in 0..4u32 {
                for y in 0..4u32 {
                    let sx = SwitchId(grp * 4 + x);
                    let sy = SwitchId(grp * 4 + y);
                    let n = d.channels_between(sx, sy).len();
                    if x == y {
                        assert_eq!(n, 0);
                    } else {
                        assert_eq!(n, 1, "{sx:?}->{sy:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn global_links_per_pair_respected() {
        let d = small().build();
        // Count directed optical channels from group 0 into group 1.
        let mut count = 0;
        for sw in (0..4).map(SwitchId) {
            count += d.global_channels(sw, GroupId(1)).len();
        }
        assert_eq!(count, 2);
        // Every pair of groups has gateways in both directions.
        for i in 0..4u32 {
            for j in 0..4u32 {
                if i != j {
                    assert!(!d.gateways(GroupId(i), GroupId(j)).is_empty());
                }
            }
        }
    }

    #[test]
    fn channel_endpoints_are_paired() {
        let d = small().build();
        for ch in d.channels() {
            // Reverse channel exists.
            assert!(
                !d.channels_between(ch.to, ch.from).is_empty(),
                "no reverse of {ch:?}"
            );
            assert_ne!(ch.from, ch.to, "self-loop {ch:?}");
        }
    }

    #[test]
    fn diameter_is_three() {
        let d = small().build();
        let mut max = 0;
        for s in 0..16u32 {
            for t in 0..16u32 {
                max = max.max(d.min_hops(SwitchId(s), SwitchId(t)));
            }
        }
        assert_eq!(max, 3);
    }

    #[test]
    fn node_distance_classes() {
        let d = small().build();
        // Same switch: nodes 0 and 1.
        assert_eq!(d.node_distance_hops(NodeId(0), NodeId(1)), 1);
        // Same group, different switches: nodes 0 and 4.
        assert_eq!(d.node_distance_hops(NodeId(0), NodeId(4)), 2);
        // Different groups (worst case 3 inter-switch hops).
        let mut worst = 0;
        for b in 16..64u32 {
            worst = worst.max(d.node_distance_hops(NodeId(0), NodeId(b)));
        }
        assert_eq!(worst, 3 + 1);
    }

    #[test]
    fn next_hops_make_progress() {
        let d = small().build();
        let mut cross_group_fan_out = 0;
        for s in 0..16u32 {
            for t in 0..16u32 {
                let s = SwitchId(s);
                let t = SwitchId(t);
                if s == t {
                    assert!(d.next_hops_toward_switch(s, t).is_empty());
                    continue;
                }
                let hops = d.next_hops_toward_switch(s, t);
                assert!(!hops.is_empty(), "{s:?}->{t:?} has no next hop");
                let dist = d.min_hops(s, t);
                // Every candidate stays within the minimal route structure
                // (never moves away); at least one strictly decreases the
                // distance. Candidates may tie when different gateways land
                // at different distances from the target.
                let mut improved = false;
                for &h in hops {
                    let next = d.channel(h).to;
                    let nd = d.min_hops(next, t);
                    assert!(
                        nd <= dist,
                        "hop {s:?}->{next:?} increases distance to {t:?}"
                    );
                    improved |= nd < dist;
                }
                assert!(improved, "{s:?}->{t:?}: no candidate makes progress");
                if d.group_of(s) != d.group_of(t) {
                    cross_group_fan_out = cross_group_fan_out.max(hops.len());
                }
            }
        }
        // §II-C: link redundancy gives some cross-group pair several
        // minimal paths; with 2 global cables per group pair, some source
        // has at least 2 minimal first hops.
        assert!(cross_group_fan_out >= 2, "no minimal path diversity");
    }

    #[test]
    fn next_hops_toward_group() {
        let d = small().build();
        for s in 0..16u32 {
            for g in 0..4u32 {
                let s = SwitchId(s);
                let g = GroupId(g);
                let hops = d.next_hops_toward_group(s, g);
                if d.group_of(s) == g {
                    assert!(hops.is_empty());
                } else {
                    assert!(!hops.is_empty());
                    // At most 2 hops to reach the group.
                    for &h in hops {
                        let next = d.channel(h).to;
                        assert!(
                            d.group_of(next) == g || !d.global_channels(next, g).is_empty(),
                            "hop does not approach group"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bisection_counts_match_closed_form() {
        let p = small();
        let d = p.build();
        let left = [GroupId(0), GroupId(1)];
        let crossing = d.bisection_channels(&left);
        // (g/2)² · m cables × 2 directions.
        assert_eq!(crossing.len() as u64, p.bisection_global_cables() * 2);
    }

    #[test]
    fn single_group_has_no_global() {
        let p = DragonflyParams {
            groups: 1,
            switches_per_group: 4,
            endpoints_per_switch: 2,
            global_links_per_pair: 0,
            intra_links_per_pair: 1,
        };
        let d = p.build();
        assert!(d
            .channels()
            .iter()
            .all(|c| c.class != LinkClass::GlobalOptical));
        assert_eq!(p.diameter(), 1);
    }

    #[test]
    fn parallel_intra_links() {
        let p = DragonflyParams {
            groups: 1,
            switches_per_group: 3,
            endpoints_per_switch: 2,
            global_links_per_pair: 0,
            intra_links_per_pair: 3,
        };
        let d = p.build();
        assert_eq!(d.channels_between(SwitchId(0), SwitchId(1)).len(), 3);
    }
}
