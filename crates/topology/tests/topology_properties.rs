//! Property-based tests for dragonfly invariants.

use proptest::prelude::*;
use slingshot_topology::{
    Allocation, AllocationPolicy, DragonflyParams, GroupId, LinkClass, NodeId, SwitchId,
};

fn arb_params() -> impl Strategy<Value = DragonflyParams> {
    (1u32..6, 1u32..6, 1u32..5, 1u32..4, 1u32..3).prop_map(|(g, a, p, m, intra)| DragonflyParams {
        groups: g,
        switches_per_group: a,
        endpoints_per_switch: p,
        global_links_per_pair: if g > 1 { m } else { 0 },
        intra_links_per_pair: intra,
    })
}

proptest! {
    /// Every channel has a reverse, no self loops, and counts match the
    /// closed-form formulas.
    #[test]
    fn channel_structure(params in arb_params()) {
        let d = params.build();
        let g = params.groups as u64;
        let a = params.switches_per_group as u64;
        let intra_expected = g * (a * (a - 1) / 2) * params.intra_links_per_pair as u64 * 2;
        let global_expected = params.total_global_cables() * 2;
        let intra = d.channels().iter().filter(|c| c.class == LinkClass::LocalCopper).count() as u64;
        let global = d.channels().iter().filter(|c| c.class == LinkClass::GlobalOptical).count() as u64;
        prop_assert_eq!(intra, intra_expected);
        prop_assert_eq!(global, global_expected);
        for ch in d.channels() {
            prop_assert_ne!(ch.from, ch.to);
            prop_assert!(!d.channels_between(ch.to, ch.from).is_empty());
        }
    }

    /// The diameter never exceeds 3 switch-to-switch hops.
    #[test]
    fn diameter_at_most_three(params in arb_params()) {
        let d = params.build();
        let n = d.switch_count();
        for s in 0..n {
            for t in 0..n {
                let h = d.min_hops(SwitchId(s), SwitchId(t));
                prop_assert!(h <= 3, "{s}->{t} = {h} hops");
            }
        }
    }

    /// Global link slots are balanced: switch global-port counts differ by
    /// at most... the round-robin guarantees ceil/floor balance.
    #[test]
    fn global_ports_balanced(params in arb_params()) {
        prop_assume!(params.groups > 1);
        let d = params.build();
        let mut per_switch = vec![0u32; d.switch_count() as usize];
        for ch in d.channels() {
            if ch.class == LinkClass::GlobalOptical {
                per_switch[ch.from.index()] += 1;
            }
        }
        let min = per_switch.iter().min().unwrap();
        let max = per_switch.iter().max().unwrap();
        prop_assert!(max - min <= 1, "imbalance {min}..{max}");
        prop_assert!(*max <= params.global_ports_per_switch());
    }

    /// Node/switch/group membership maps are consistent.
    #[test]
    fn membership_consistency(params in arb_params()) {
        let d = params.build();
        for n in 0..d.node_count() {
            let node = NodeId(n);
            let sw = d.switch_of_node(node);
            prop_assert!(d.nodes_of_switch(sw).any(|m| m == node));
        }
        let a = params.switches_per_group;
        for g in 0..params.groups {
            for sw in (g * a..(g + 1) * a).map(SwitchId) {
                prop_assert_eq!(d.group_of(sw), GroupId(g));
            }
        }
    }

    /// Every allocation policy yields an exact partition with the requested
    /// sizes.
    #[test]
    fn allocations_partition(
        total in 1u32..300,
        frac in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let n_victim = (total as f64 * frac) as u32;
        for policy in AllocationPolicy::ALL {
            let alloc = Allocation::split(total, n_victim, policy, seed);
            prop_assert_eq!(alloc.victim.len() as u32, n_victim);
            prop_assert_eq!(alloc.aggressor.len() as u32, total - n_victim);
            let mut all: Vec<u32> = alloc
                .victim
                .iter()
                .chain(alloc.aggressor.iter())
                .map(|n| n.0)
                .collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..total).collect::<Vec<_>>());
        }
    }

    /// Next-hop candidate sets are non-empty whenever progress is needed
    /// and stay within the diameter bound when followed greedily.
    #[test]
    fn greedy_next_hop_terminates(params in arb_params(), src in 0u32..36, dst in 0u32..36) {
        let d = params.build();
        let n = d.switch_count();
        let src = SwitchId(src % n);
        let dst = SwitchId(dst % n);
        let mut cur = src;
        let mut hops = 0;
        while cur != dst {
            let options = d.next_hops_toward_switch(cur, dst);
            prop_assert!(!options.is_empty(), "stuck at {cur:?} toward {dst:?}");
            // Follow the first candidate deterministically.
            cur = d.channel(options[0]).to;
            hops += 1;
            prop_assert!(hops <= 4, "looping: {src:?}->{dst:?}");
        }
        prop_assert!(hops <= 3);
    }

    /// The precomputed CSR route tables are element-for-element identical
    /// to the per-call computation they replaced, for every (cur, dst)
    /// pair — same candidates, same order, so adaptive tie-breaking draws
    /// the same RNG sequence as before the substitution.
    #[test]
    fn precomputed_tables_match_per_call_routing(params in arb_params()) {
        let d = params.build();
        let n = d.switch_count();
        for cur in 0..n {
            let cur = SwitchId(cur);
            for dst in 0..n {
                let dst = SwitchId(dst);
                prop_assert_eq!(
                    d.next_hops_toward_switch(cur, dst),
                    d.uncached_next_hops_toward_switch(cur, dst).as_slice(),
                    "toward-switch candidates diverge at {:?}->{:?}", cur, dst
                );
                prop_assert_eq!(
                    d.min_hops(cur, dst),
                    d.bfs_min_hops(cur, dst),
                    "closed-form distance diverges at {:?}->{:?}", cur, dst
                );
            }
            for grp in 0..params.groups {
                let grp = GroupId(grp);
                prop_assert_eq!(
                    d.next_hops_toward_group(cur, grp),
                    d.uncached_next_hops_toward_group(cur, grp).as_slice(),
                    "toward-group candidates diverge at {:?}->{:?}", cur, grp
                );
            }
        }
    }
}
