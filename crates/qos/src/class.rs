//! Traffic-class definitions and DSCP mapping.

use serde::Serialize;
use std::sync::Arc;

/// Index of the default traffic class (unclassified traffic).
pub const DEFAULT_TC: usize = 0;

/// One traffic class, as configured by the system administrator.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct TrafficClass {
    /// DSCP code point selecting this class (packet header tag, RFC 3260).
    pub dscp: u8,
    /// Strict-priority tier; lower value = served first among classes that
    /// hold bandwidth tokens.
    pub priority: u8,
    /// Guaranteed minimum share of link bandwidth, in `[0, 1]`.
    pub min_bandwidth: f64,
    /// Upper bandwidth cap, in `(0, 1]` (1.0 = uncapped).
    pub max_bandwidth: f64,
    /// Whether in-order delivery is required (restricts adaptive routing
    /// for this class).
    pub ordered: bool,
    /// Whether packets may be dropped under pressure (lossy Ethernet
    /// semantics) instead of back-pressured.
    pub lossy: bool,
}

impl TrafficClass {
    /// A permissive default class: no guarantee, no cap, unordered,
    /// lossless.
    pub fn best_effort(dscp: u8) -> Self {
        TrafficClass {
            dscp,
            priority: 7,
            min_bandwidth: 0.0,
            max_bandwidth: 1.0,
            ordered: false,
            lossy: false,
        }
    }

    /// A low-latency class for small synchronization traffic (the paper's
    /// suggestion: barriers/allreduce in a high-priority low-bandwidth
    /// class).
    pub fn low_latency(dscp: u8, min_bandwidth: f64) -> Self {
        TrafficClass {
            dscp,
            priority: 0,
            min_bandwidth,
            max_bandwidth: 1.0,
            ordered: false,
            lossy: false,
        }
    }

    /// A bulk-bandwidth class for large transfers.
    pub fn bulk(dscp: u8, min_bandwidth: f64) -> Self {
        TrafficClass {
            dscp,
            priority: 4,
            min_bandwidth,
            max_bandwidth: 1.0,
            ordered: false,
            lossy: false,
        }
    }
}

/// Validated set of traffic classes for a network.
///
/// Internally `Arc`-backed: a network builds one scheduler per output
/// port per switch, and every scheduler holds the class table — with a
/// plain `Vec` that deep-cloned the table thousands of times at network
/// construction. Cloning a set now only bumps a reference count; the
/// class data itself is immutable after validation, so sharing is safe.
#[derive(Clone, Debug, Serialize)]
pub struct TrafficClassSet {
    classes: Arc<[TrafficClass]>,
}

/// Configuration errors.
#[derive(Clone, Debug, PartialEq)]
pub enum QosError {
    /// Sum of minimum guarantees exceeds the link.
    Oversubscribed {
        /// Total requested minimum share.
        total_min: f64,
    },
    /// A class has `max < min`.
    CapBelowGuarantee {
        /// Index of the offending class.
        class: usize,
    },
    /// Two classes share a DSCP tag.
    DuplicateDscp(u8),
    /// No classes at all.
    Empty,
}

impl std::fmt::Display for QosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QosError::Oversubscribed { total_min } => write!(
                f,
                "minimum bandwidth guarantees sum to {total_min:.2} > 1.0"
            ),
            QosError::CapBelowGuarantee { class } => {
                write!(f, "class {class} has max_bandwidth below min_bandwidth")
            }
            QosError::DuplicateDscp(d) => write!(f, "duplicate DSCP {d}"),
            QosError::Empty => write!(f, "no traffic classes configured"),
        }
    }
}

impl std::error::Error for QosError {}

impl TrafficClassSet {
    /// Validate and build a class set. The paper: "the system administrator
    /// guarantees that the sum of the minimum bandwidth requirements of the
    /// different traffic classes does not exceed the available bandwidth".
    pub fn new(classes: Vec<TrafficClass>) -> Result<Self, QosError> {
        if classes.is_empty() {
            return Err(QosError::Empty);
        }
        let total_min: f64 = classes.iter().map(|c| c.min_bandwidth).sum();
        if total_min > 1.0 + 1e-9 {
            return Err(QosError::Oversubscribed { total_min });
        }
        for (i, c) in classes.iter().enumerate() {
            if c.max_bandwidth + 1e-9 < c.min_bandwidth {
                return Err(QosError::CapBelowGuarantee { class: i });
            }
        }
        let mut seen = [false; 64];
        for c in &classes {
            let d = (c.dscp & 63) as usize;
            if seen[d] {
                return Err(QosError::DuplicateDscp(c.dscp));
            }
            seen[d] = true;
        }
        Ok(TrafficClassSet {
            classes: classes.into(),
        })
    }

    /// A single permissive class (networks that do not exercise QoS).
    pub fn single() -> Self {
        TrafficClassSet {
            classes: Arc::from([TrafficClass::best_effort(0)]),
        }
    }

    /// The paper's Fig. 14 configuration: TC1 with an 80 % minimum, TC2
    /// with a 10 % minimum (10 % of the link left unallocated).
    pub fn fig14() -> Self {
        TrafficClassSet::new(vec![
            TrafficClass::bulk(1, 0.80),
            TrafficClass::bulk(2, 0.10),
        ])
        .expect("static config is valid")
    }

    /// The classes.
    pub fn classes(&self) -> &[TrafficClass] {
        &self.classes
    }

    /// The shared backing storage (clones are reference-count bumps).
    pub fn shared(&self) -> Arc<[TrafficClass]> {
        Arc::clone(&self.classes)
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the set is empty (never true for a validated set).
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_backing_storage() {
        let set = TrafficClassSet::fig14();
        let clone = set.clone();
        assert!(
            Arc::ptr_eq(&set.shared(), &clone.shared()),
            "clone must be a reference-count bump, not a deep copy"
        );
    }

    #[test]
    fn valid_set_builds() {
        let set = TrafficClassSet::new(vec![
            TrafficClass::low_latency(1, 0.2),
            TrafficClass::bulk(2, 0.5),
        ])
        .unwrap();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn oversubscription_rejected() {
        let err =
            TrafficClassSet::new(vec![TrafficClass::bulk(1, 0.7), TrafficClass::bulk(2, 0.5)])
                .unwrap_err();
        assert!(matches!(err, QosError::Oversubscribed { .. }));
    }

    #[test]
    fn cap_below_guarantee_rejected() {
        let mut c = TrafficClass::bulk(1, 0.5);
        c.max_bandwidth = 0.3;
        let err = TrafficClassSet::new(vec![c]).unwrap_err();
        assert_eq!(err, QosError::CapBelowGuarantee { class: 0 });
    }

    #[test]
    fn duplicate_dscp_rejected() {
        let err = TrafficClassSet::new(vec![
            TrafficClass::bulk(3, 0.1),
            TrafficClass::low_latency(3, 0.1),
        ])
        .unwrap_err();
        assert_eq!(err, QosError::DuplicateDscp(3));
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(TrafficClassSet::new(vec![]).unwrap_err(), QosError::Empty);
    }

    #[test]
    fn fig14_config() {
        let set = TrafficClassSet::fig14();
        assert_eq!(set.len(), 2);
        let total: f64 = set.classes().iter().map(|c| c.min_bandwidth).sum();
        assert!((total - 0.9).abs() < 1e-9); // 10 % unallocated
    }
}
