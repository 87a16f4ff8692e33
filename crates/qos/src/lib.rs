//! # slingshot-qos
//!
//! Traffic classes with guaranteed quality of service (paper §II-E).
//!
//! Jobs can be assigned to traffic classes. The paper lists priority,
//! ordering, minimum guaranteed bandwidth, a maximum bandwidth cap,
//! lossiness and routing bias as a class's settings; this model keeps the
//! two the figures use, the priority and the minimum guarantee. Each
//! output port keeps one virtual queue per class, buffers are provisioned
//! per class, and leftover bandwidth is dynamically allocated to the
//! class with the lowest bandwidth share (observable in the paper's
//! Fig. 14, where a 10 %-minimum class receives 20 % because 10 % of the
//! link was unallocated).

#![warn(missing_docs)]

mod class;
mod scheduler;

pub use class::{QosError, TrafficClass, TrafficClassSet};
pub use scheduler::QosScheduler;
