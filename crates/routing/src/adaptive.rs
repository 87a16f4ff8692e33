//! UGAL-style adaptive routing with minimal-path bias.

use crate::plan::{RoutePhase, RouteState, Via};
use crate::CongestionView;
use slingshot_des::DetRng;
use slingshot_topology::{ChannelId, Dragonfly, GroupId, Liveness, SwitchId};

/// Which routing algorithm a network runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingAlgorithm {
    /// Always minimal (best on a quiet network, §II-C).
    Minimal,
    /// Always Valiant (uniformly random intermediate): the classic
    /// load-balancing baseline.
    Valiant,
    /// Slingshot/Aries adaptive: choose per packet between minimal and
    /// non-minimal based on estimated congestion.
    Adaptive,
}

// Tunables of the adaptive decision (both profiles use these values).

/// Minimal first-hop candidates examined (≤ 2 in hardware).
const MINIMAL_CANDIDATES: usize = 2;
/// Non-minimal candidates examined (≤ 2 in hardware; minimal + non-minimal
/// together give the paper's "up to four paths").
const NONMINIMAL_CANDIDATES: usize = 2;
/// Multiplicative bias applied to non-minimal path cost. The paper:
/// "adaptive routing biases packets to take minimal paths more frequently,
/// to compensate for the higher cost of non-minimal paths".
const NONMINIMAL_BIAS: f64 = 2.0;
/// Constant cost (bytes) added per switch-to-switch hop, converting hop
/// count into the queue-depth cost unit.
const HOP_COST_BYTES: u64 = 4096;

/// Per-hop forwarding outcome of [`Router::next_hop`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HopDecision {
    /// Forward on this channel.
    Forward(ChannelId),
    /// The packet is at its destination switch: eject.
    Eject,
    /// Every candidate channel toward the packet's target is dead — the
    /// caller must re-route (or drop, accountably). Only reachable with a
    /// liveness mask installed.
    Stuck,
}

/// A routing engine bound to a topology.
pub struct Router<'a> {
    topo: &'a Dragonfly,
    algo: RoutingAlgorithm,
    /// Fault-mode channel/switch liveness. `None` (the default) is the
    /// healthy fast path: candidate filtering compiles down to the
    /// original all-alive code and consumes identical RNG draws.
    liveness: Option<&'a Liveness>,
}

impl<'a> Router<'a> {
    /// New router over `topo`. With a `liveness` mask, dead channels and
    /// channels landing on dead switches are skipped when picking
    /// candidates (still without allocating — the borrowed CSR slices are
    /// filtered in place); `None` routes over a fully healthy network.
    pub fn new(
        topo: &'a Dragonfly,
        algo: RoutingAlgorithm,
        liveness: Option<&'a Liveness>,
    ) -> Self {
        Router {
            topo,
            algo,
            liveness,
        }
    }

    /// Whether `ch` may carry a packet (always true without a mask).
    #[inline]
    fn usable(&self, ch: ChannelId) -> bool {
        match self.liveness {
            None => true,
            Some(l) => l.channel_usable(self.topo, ch),
        }
    }

    /// The topology this router operates on.
    pub fn topology(&self) -> &Dragonfly {
        self.topo
    }

    /// The algorithm in use.
    pub fn algorithm(&self) -> RoutingAlgorithm {
        self.algo
    }

    /// Source-switch decision: pick the packet's route (minimal vs which
    /// detour). Called once per packet at its ingress switch.
    pub fn decide<V: CongestionView>(
        &self,
        src: SwitchId,
        dst: SwitchId,
        view: &V,
        rng: &mut DetRng,
    ) -> RouteState {
        if src == dst {
            return RouteState::new(dst, Via::Direct);
        }
        let via = match self.algo {
            RoutingAlgorithm::Minimal => Via::Direct,
            RoutingAlgorithm::Valiant => self.random_detour(src, dst, rng).unwrap_or(Via::Direct),
            RoutingAlgorithm::Adaptive => self.adaptive_choice(src, dst, view, rng),
        };
        RouteState::new(dst, via)
    }

    /// Per-switch forwarding with explicit dead-end reporting: pick the
    /// output channel for a packet at `cur`, updating its `state` phase.
    pub fn next_hop<V: CongestionView>(
        &self,
        cur: SwitchId,
        state: &mut RouteState,
        view: &V,
        rng: &mut DetRng,
    ) -> HopDecision {
        // Phase transition at the intermediate.
        if state.phase == RoutePhase::ToIntermediate {
            let reached = match state.via {
                Via::Direct => true,
                Via::Group(g) => self.topo.group_of(cur) == g,
                Via::Switch(sw) => cur == sw,
            };
            if reached {
                state.phase = RoutePhase::ToDestination;
            }
        }
        let candidates = match state.phase {
            RoutePhase::ToIntermediate => match state.via {
                Via::Group(g) => self.topo.next_hops_toward_group(cur, g),
                Via::Switch(sw) => self.topo.next_hops_toward_switch(cur, sw),
                Via::Direct => unreachable!("direct routes never target an intermediate"),
            },
            RoutePhase::ToDestination => self.topo.next_hops_toward_switch(cur, state.dst),
        };
        if candidates.is_empty() {
            debug_assert_eq!(cur, state.dst, "stuck packet away from destination");
            return HopDecision::Eject;
        }
        match self.least_loaded(candidates, view, rng) {
            Some(ch) => HopDecision::Forward(ch),
            None => HopDecision::Stuck,
        }
    }

    /// Pick the least-loaded live channel, breaking ties uniformly at
    /// random; `None` when every candidate is dead.
    ///
    /// With all candidates alive this consumes exactly the RNG draws of
    /// the original unfiltered scan (no draw for the first candidate, one
    /// reservoir draw per tie), so installing an all-up mask — or none —
    /// keeps simulations byte-identical.
    fn least_loaded<V: CongestionView>(
        &self,
        candidates: &[ChannelId],
        view: &V,
        rng: &mut DetRng,
    ) -> Option<ChannelId> {
        debug_assert!(!candidates.is_empty());
        let mut best: Option<ChannelId> = None;
        let mut best_load = 0u64;
        let mut ties = 0u64;
        for &c in candidates {
            if !self.usable(c) {
                continue;
            }
            let load = view.channel_load(c);
            if best.is_none() || load < best_load {
                best = Some(c);
                best_load = load;
                ties = 1;
            } else if load == best_load {
                // Reservoir sampling over ties keeps the choice uniform.
                ties += 1;
                if rng.below(ties) == 0 {
                    best = Some(c);
                }
            }
        }
        best
    }

    /// The UGAL decision: compare the cheapest minimal candidate with the
    /// cheapest (biased) non-minimal candidate.
    fn adaptive_choice<V: CongestionView>(
        &self,
        src: SwitchId,
        dst: SwitchId,
        view: &V,
        rng: &mut DetRng,
    ) -> Via {
        let minimal_hops = self.topo.min_hops(src, dst) as u64;
        let min_first_hops = self.topo.next_hops_toward_switch(src, dst);
        let min_cost = self
            .sample_costs(min_first_hops, MINIMAL_CANDIDATES, view, rng)
            .map(|load| load + minimal_hops * HOP_COST_BYTES);

        let mut best_detour: Option<(f64, Via)> = None;
        for _ in 0..NONMINIMAL_CANDIDATES {
            let Some(via) = self.random_detour(src, dst, rng) else {
                break;
            };
            let first_hops = match via {
                Via::Group(g) => self.topo.next_hops_toward_group(src, g),
                Via::Switch(sw) => self.topo.next_hops_toward_switch(src, sw),
                Via::Direct => continue,
            };
            let Some(load) = self.sample_costs(first_hops, 1, view, rng) else {
                continue;
            };
            let detour_hops = minimal_hops + 2; // detours add ~2 hops
            let cost = (load + detour_hops * HOP_COST_BYTES) as f64 * NONMINIMAL_BIAS;
            if best_detour.map(|(c, _)| cost < c).unwrap_or(true) {
                best_detour = Some((cost, via));
            }
        }

        match (min_cost, best_detour) {
            (Some(mc), Some((dc, via))) => {
                if (mc as f64) <= dc {
                    Via::Direct
                } else {
                    via
                }
            }
            (Some(_), None) => Via::Direct,
            (None, Some((_, via))) => via,
            (None, None) => Via::Direct,
        }
    }

    /// Cheapest load among up to `n` randomly sampled live candidates;
    /// `None` when no candidate is live.
    ///
    /// Sampling draws an index below the live count: with everything
    /// alive that is `below(len)` — exactly the draw `rng.choose` made
    /// before liveness existed — so healthy runs stay byte-identical.
    fn sample_costs<V: CongestionView>(
        &self,
        candidates: &[ChannelId],
        n: usize,
        view: &V,
        rng: &mut DetRng,
    ) -> Option<u64> {
        let n_live = match self.liveness {
            None => candidates.len(),
            Some(_) => candidates.iter().filter(|&&c| self.usable(c)).count(),
        };
        if n_live == 0 {
            return None;
        }
        let mut best: Option<u64> = None;
        for _ in 0..n.max(1) {
            let k = rng.below(n_live as u64) as usize;
            let c = if n_live == candidates.len() {
                candidates[k]
            } else {
                // k-th live candidate (dead ones skipped in place — no
                // allocation on this path either).
                *candidates
                    .iter()
                    .filter(|&&c| self.usable(c))
                    .nth(k)
                    .expect("k < live count")
            };
            let load = view.channel_load(c);
            best = Some(best.map_or(load, |b: u64| b.min(load)));
        }
        best
    }

    /// A random legal detour for `src → dst`: an intermediate group when
    /// they are in different groups, an intermediate switch of the shared
    /// group otherwise. `None` when the topology is too small for any
    /// detour.
    fn random_detour(&self, src: SwitchId, dst: SwitchId, rng: &mut DetRng) -> Option<Via> {
        let g = self.topo.params().groups;
        let src_grp = self.topo.group_of(src);
        let dst_grp = self.topo.group_of(dst);
        if src_grp != dst_grp {
            if g <= 2 {
                // No third group: fall back to an intra-group switch detour.
                return self.random_switch_detour(src, dst, rng);
            }
            // Rejection-sample an intermediate group ≠ src, dst.
            for _ in 0..8 {
                let cand = GroupId(rng.below(g as u64) as u32);
                if cand != src_grp && cand != dst_grp {
                    return Some(Via::Group(cand));
                }
            }
            None
        } else {
            self.random_switch_detour(src, dst, rng)
        }
    }

    fn random_switch_detour(&self, src: SwitchId, dst: SwitchId, rng: &mut DetRng) -> Option<Via> {
        let a = self.topo.params().switches_per_group;
        if a <= 2 {
            return None;
        }
        let grp = self.topo.group_of(src);
        for _ in 0..8 {
            let local = rng.below(a as u64) as u32;
            let cand = SwitchId(grp.0 * a + local);
            if cand != src && cand != dst {
                return Some(Via::Switch(cand));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QuietView, TableView};
    use slingshot_topology::DragonflyParams;

    fn topo() -> Dragonfly {
        DragonflyParams {
            groups: 4,
            switches_per_group: 4,
            endpoints_per_switch: 4,
            global_links_per_pair: 2,
            intra_links_per_pair: 1,
        }
        .build()
    }

    /// Walk a packet from src to dst, returning the switch sequence.
    fn walk(
        router: &Router<'_>,
        view: &impl CongestionView,
        rng: &mut DetRng,
        src: SwitchId,
        dst: SwitchId,
    ) -> Vec<SwitchId> {
        let mut state = router.decide(src, dst, view, rng);
        let mut cur = src;
        let mut path = vec![cur];
        for _ in 0..10 {
            match router.next_hop(cur, &mut state, view, rng) {
                HopDecision::Forward(ch) => {
                    cur = router.topology().channel(ch).to;
                    state.hops += 1;
                    path.push(cur);
                }
                HopDecision::Eject => break,
                HopDecision::Stuck => panic!("stuck on a healthy network: {path:?}"),
            }
        }
        assert_eq!(cur, dst, "packet did not arrive: {path:?}");
        path
    }

    #[test]
    fn minimal_routes_stay_within_diameter() {
        let t = topo();
        let router = Router::new(&t, RoutingAlgorithm::Minimal, None);
        let mut rng = DetRng::seed_from(1);
        for s in 0..16u32 {
            for d in 0..16u32 {
                let path = walk(&router, &QuietView, &mut rng, SwitchId(s), SwitchId(d));
                assert!(path.len() <= 4, "{path:?}");
            }
        }
    }

    #[test]
    fn valiant_routes_arrive_within_five_hops() {
        let t = topo();
        let router = Router::new(&t, RoutingAlgorithm::Valiant, None);
        let mut rng = DetRng::seed_from(2);
        for s in 0..16u32 {
            for d in 0..16u32 {
                let path = walk(&router, &QuietView, &mut rng, SwitchId(s), SwitchId(d));
                assert!(path.len() <= 6, "{path:?}");
            }
        }
    }

    #[test]
    fn adaptive_on_quiet_network_goes_minimal() {
        let t = topo();
        let router = Router::new(&t, RoutingAlgorithm::Adaptive, None);
        let mut rng = DetRng::seed_from(3);
        let mut nonminimal = 0;
        for _ in 0..200 {
            let s = SwitchId(rng.below(16) as u32);
            let d = SwitchId(rng.below(16) as u32);
            let state = router.decide(s, d, &QuietView, &mut rng);
            if state.is_nonminimal() {
                nonminimal += 1;
            }
        }
        assert_eq!(nonminimal, 0, "quiet network must route minimally");
    }

    #[test]
    fn adaptive_detours_around_congestion() {
        let t = topo();
        let router = Router::new(&t, RoutingAlgorithm::Adaptive, None);
        let mut rng = DetRng::seed_from(4);
        // Saturate every minimal first hop from switch 0 toward group 1.
        let dst = SwitchId(5); // group 1
        let mut loads = vec![0u64; t.channels().len()];
        for ch in t.next_hops_toward_switch(SwitchId(0), dst) {
            loads[ch.index()] = 10_000_000;
        }
        let view = TableView(loads);
        let mut detours = 0;
        for _ in 0..100 {
            let state = router.decide(SwitchId(0), dst, &view, &mut rng);
            if state.is_nonminimal() {
                detours += 1;
            }
        }
        assert!(detours > 80, "only {detours}/100 detoured under congestion");
    }

    #[test]
    fn adaptive_packets_still_arrive_under_congestion() {
        let t = topo();
        let router = Router::new(&t, RoutingAlgorithm::Adaptive, None);
        let mut rng = DetRng::seed_from(5);
        let mut loads = vec![0u64; t.channels().len()];
        for (i, l) in loads.iter_mut().enumerate() {
            *l = (i as u64 * 7919) % 100_000; // arbitrary uneven load
        }
        let view = TableView(loads);
        for s in 0..16u32 {
            for d in 0..16u32 {
                let path = walk(&router, &view, &mut rng, SwitchId(s), SwitchId(d));
                assert!(path.len() <= 6, "{path:?}");
            }
        }
    }

    #[test]
    fn least_loaded_prefers_empty_channel() {
        let t = topo();
        let router = Router::new(&t, RoutingAlgorithm::Adaptive, None);
        let mut rng = DetRng::seed_from(6);
        // Two parallel global channels from group 0 to group 1: load one.
        let dst = SwitchId(4);
        let mut state = router.decide(SwitchId(0), dst, &QuietView, &mut rng);
        // Find the candidates the router would use and load all but one.
        let cands = t.next_hops_toward_switch(SwitchId(0), dst);
        if cands.len() >= 2 {
            let mut loads = vec![0u64; t.channels().len()];
            for &c in &cands[1..] {
                loads[c.index()] = 1_000_000;
            }
            let view = TableView(loads);
            for _ in 0..20 {
                let hop = router.next_hop(SwitchId(0), &mut state, &view, &mut rng);
                assert_eq!(
                    hop,
                    HopDecision::Forward(cands[0]),
                    "picked a loaded channel"
                );
                state = router.decide(SwitchId(0), dst, &QuietView, &mut rng);
            }
        }
    }

    #[test]
    fn all_up_mask_is_rng_identical_to_no_mask() {
        // The byte-identity guarantee: a router with an all-up liveness
        // mask must make the same decisions AND consume the same number of
        // RNG draws as one with no mask at all.
        let t = topo();
        let bare = Router::new(&t, RoutingAlgorithm::Adaptive, None);
        let live = Liveness::for_topology(&t);
        let masked = Router::new(&t, RoutingAlgorithm::Adaptive, Some(&live));
        let mut loads = vec![0u64; t.channels().len()];
        for (i, l) in loads.iter_mut().enumerate() {
            *l = (i as u64 * 37) % 5; // plenty of ties to force draws
        }
        let view = TableView(loads);
        let mut rng_a = DetRng::seed_from(11);
        let mut rng_b = DetRng::seed_from(11);
        for s in 0..16u32 {
            for d in 0..16u32 {
                let mut sa = bare.decide(SwitchId(s), SwitchId(d), &view, &mut rng_a);
                let mut sb = masked.decide(SwitchId(s), SwitchId(d), &view, &mut rng_b);
                assert_eq!(sa.via, sb.via);
                let ca = bare.next_hop(SwitchId(s), &mut sa, &view, &mut rng_a);
                let cb = masked.next_hop(SwitchId(s), &mut sb, &view, &mut rng_b);
                assert_eq!(ca, cb);
            }
        }
        // Same stream position afterwards.
        assert_eq!(rng_a.below(u64::MAX), rng_b.below(u64::MAX));
    }

    #[test]
    fn dead_channel_is_skipped() {
        let t = topo();
        let mut live = Liveness::for_topology(&t);
        let dst = SwitchId(4); // other group: parallel global candidates
        let cands: Vec<ChannelId> = t.next_hops_toward_switch(SwitchId(0), dst).to_vec();
        if cands.len() < 2 {
            return;
        }
        // Kill all but the last candidate.
        for &c in &cands[..cands.len() - 1] {
            live.set_channel(c, false);
        }
        let router = Router::new(&t, RoutingAlgorithm::Adaptive, Some(&live));
        let mut rng = DetRng::seed_from(12);
        let mut state = RouteState::new(dst, Via::Direct);
        for _ in 0..20 {
            match router.next_hop(SwitchId(0), &mut state, &QuietView, &mut rng) {
                HopDecision::Forward(ch) => assert_eq!(ch, *cands.last().unwrap()),
                other => panic!("expected forward on the live channel, got {other:?}"),
            }
            state = RouteState::new(dst, Via::Direct);
        }
    }

    #[test]
    fn all_dead_candidates_report_stuck() {
        let t = topo();
        let mut live = Liveness::for_topology(&t);
        let dst = SwitchId(4);
        for &c in t.next_hops_toward_switch(SwitchId(0), dst) {
            live.set_channel(c, false);
        }
        let router = Router::new(&t, RoutingAlgorithm::Minimal, Some(&live));
        let mut rng = DetRng::seed_from(13);
        let mut state = RouteState::new(dst, Via::Direct);
        assert_eq!(
            router.next_hop(SwitchId(0), &mut state, &QuietView, &mut rng),
            HopDecision::Stuck
        );
    }

    #[test]
    fn adaptive_falls_back_to_detour_when_minimal_first_hops_die() {
        let t = topo();
        let mut live = Liveness::for_topology(&t);
        let dst = SwitchId(5); // group 1
        for &c in t.next_hops_toward_switch(SwitchId(0), dst) {
            live.set_channel(c, false);
        }
        let router = Router::new(&t, RoutingAlgorithm::Adaptive, Some(&live));
        let mut rng = DetRng::seed_from(14);
        let mut detours = 0;
        for _ in 0..100 {
            let state = router.decide(SwitchId(0), dst, &QuietView, &mut rng);
            if state.is_nonminimal() {
                detours += 1;
            }
        }
        assert!(
            detours > 80,
            "only {detours}/100 took the Valiant fallback around dead minimal hops"
        );
    }

    #[test]
    fn dead_landing_switch_disqualifies_channel() {
        let t = topo();
        let mut live = Liveness::for_topology(&t);
        let dst = SwitchId(1); // same group as 0: direct local hop
        let cands: Vec<ChannelId> = t.next_hops_toward_switch(SwitchId(0), dst).to_vec();
        assert!(!cands.is_empty());
        live.set_switch(dst, false);
        let router = Router::new(&t, RoutingAlgorithm::Minimal, Some(&live));
        let mut rng = DetRng::seed_from(15);
        let mut state = RouteState::new(dst, Via::Direct);
        assert_eq!(
            router.next_hop(SwitchId(0), &mut state, &QuietView, &mut rng),
            HopDecision::Stuck,
            "channels into a dead switch must not be used"
        );
    }

    #[test]
    fn two_group_system_uses_switch_detours() {
        let t = DragonflyParams {
            groups: 2,
            switches_per_group: 4,
            endpoints_per_switch: 4,
            global_links_per_pair: 4,
            intra_links_per_pair: 1,
        }
        .build();
        let router = Router::new(&t, RoutingAlgorithm::Valiant, None);
        let mut rng = DetRng::seed_from(7);
        // Cross-group traffic in a 2-group system can only detour via
        // switches; packets must still arrive.
        for _ in 0..50 {
            walk(&router, &QuietView, &mut rng, SwitchId(0), SwitchId(7));
        }
    }
}
