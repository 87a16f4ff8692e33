//! Traffic-class definitions.

use std::sync::Arc;

/// Most classes a set may hold: a port scheduler tracks its backlog as
/// one `u64` bitmask, one bit per class.
const MAX_CLASSES: usize = 64;

/// One traffic class, as configured by the system administrator.
#[derive(Clone, Copy, Debug)]
pub struct TrafficClass {
    /// Strict-priority tier; lower value = served first among classes that
    /// hold bandwidth tokens.
    pub priority: u8,
    /// Guaranteed minimum share of link bandwidth, in `[0, 1]`.
    pub min_bandwidth: f64,
}

impl TrafficClass {
    /// A permissive default class: no guarantee, lowest priority.
    pub fn best_effort() -> Self {
        TrafficClass {
            priority: 7,
            min_bandwidth: 0.0,
        }
    }

    /// A low-latency class for small synchronization traffic (the paper's
    /// suggestion: barriers/allreduce in a high-priority low-bandwidth
    /// class).
    pub fn low_latency(min_bandwidth: f64) -> Self {
        TrafficClass {
            priority: 0,
            min_bandwidth,
        }
    }

    /// A bulk-bandwidth class for large transfers.
    pub fn bulk(min_bandwidth: f64) -> Self {
        TrafficClass {
            priority: 4,
            min_bandwidth,
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
#[derive(Clone, Debug)]
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
    /// More classes than a port scheduler can track.
    TooManyClasses(usize),
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
            QosError::TooManyClasses(n) => {
                write!(
                    f,
                    "{n} traffic classes configured, at most {MAX_CLASSES} allowed"
                )
            }
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
        if classes.len() > MAX_CLASSES {
            return Err(QosError::TooManyClasses(classes.len()));
        }
        let total_min: f64 = classes.iter().map(|c| c.min_bandwidth).sum();
        if total_min > 1.0 + 1e-9 {
            return Err(QosError::Oversubscribed { total_min });
        }
        Ok(TrafficClassSet {
            classes: classes.into(),
        })
    }

    /// A single permissive class (networks that do not exercise QoS).
    pub fn single() -> Self {
        TrafficClassSet {
            classes: Arc::from([TrafficClass::best_effort()]),
        }
    }

    /// The paper's Fig. 14 configuration: TC1 with an 80 % minimum, TC2
    /// with a 10 % minimum (10 % of the link left unallocated).
    pub fn fig14() -> Self {
        TrafficClassSet::new(vec![TrafficClass::bulk(0.80), TrafficClass::bulk(0.10)])
            .expect("static config is valid")
    }

    /// The classes.
    pub fn classes(&self) -> &[TrafficClass] {
        &self.classes
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
            Arc::ptr_eq(&set.classes, &clone.classes),
            "clone must be a reference-count bump, not a deep copy"
        );
    }

    #[test]
    fn valid_set_builds() {
        let set = TrafficClassSet::new(vec![
            TrafficClass::low_latency(0.2),
            TrafficClass::bulk(0.5),
        ])
        .unwrap();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn oversubscription_rejected() {
        let err = TrafficClassSet::new(vec![TrafficClass::bulk(0.7), TrafficClass::bulk(0.5)])
            .unwrap_err();
        assert!(matches!(err, QosError::Oversubscribed { .. }));
    }

    #[test]
    fn a_65th_class_is_rejected() {
        let full = vec![TrafficClass::best_effort(); MAX_CLASSES];
        assert_eq!(TrafficClassSet::new(full.clone()).unwrap().len(), 64);
        let mut over = full;
        over.push(TrafficClass::best_effort());
        assert_eq!(
            TrafficClassSet::new(over).unwrap_err(),
            QosError::TooManyClasses(65)
        );
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
