//! Property-based tests for the lane-degrade model: degrading a port never
//! panics, saturates at zero lanes, and keeps every derived quantity
//! finite and non-negative.

use proptest::prelude::*;
use slingshot_ethernet::PortLanes;

proptest! {
    /// Degrading by any count (including far past the 4 physical lanes)
    /// saturates at zero active lanes instead of wrapping.
    #[test]
    fn degrade_saturates_at_zero(failed in any::<u8>()) {
        let p = PortLanes::rosetta().degrade(failed);
        prop_assert!(p.active_lanes <= 4);
        if failed >= 4 {
            prop_assert_eq!(p.active_lanes, 0);
        } else {
            prop_assert_eq!(p.active_lanes, 4 - failed);
        }
    }

    /// `is_up` flips exactly when the last lane dies: true for every
    /// degrade sequence leaving at least one lane, false at zero.
    #[test]
    fn is_up_flips_exactly_at_zero_lanes(steps in proptest::collection::vec(0u8..=4, 0..8)) {
        let mut p = PortLanes::rosetta();
        for s in steps {
            p = p.degrade(s);
            prop_assert_eq!(p.is_up(), p.active_lanes > 0);
        }
    }

    /// Bandwidth stays finite and non-negative for any plausible lane
    /// geometry, and degrading never increases bandwidth.
    #[test]
    fn derived_rates_finite_nonnegative(
        lanes in 0u8..=8,
        effective in 0.1f64..500.0,
        failed in any::<u8>(),
    ) {
        let p = PortLanes {
            active_lanes: lanes,
            effective_gbps_per_lane: effective,
        };
        for q in [p, p.degrade(failed)] {
            prop_assert!(q.effective_gbps().is_finite());
            prop_assert!(q.effective_gbps() >= 0.0);
        }
        prop_assert!(p.degrade(failed).effective_gbps() <= p.effective_gbps());
    }

    /// Degrade composes: two partial degrades equal one combined degrade
    /// (with saturating lane arithmetic).
    #[test]
    fn degrade_composes(a in any::<u8>(), b in any::<u8>()) {
        let stepwise = PortLanes::rosetta().degrade(a).degrade(b);
        let combined = PortLanes::rosetta().degrade(a.saturating_add(b));
        prop_assert_eq!(stepwise.active_lanes, combined.active_lanes);
    }
}
