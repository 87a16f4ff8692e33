//! A caller outside the crate can name and match the error that
//! `TrafficClassSet::new` returns.

use slingshot_qos::{QosError, TrafficClass, TrafficClassSet};

#[test]
fn too_many_classes_is_matchable_outside_the_crate() {
    let err = TrafficClassSet::new(vec![TrafficClass::best_effort(); 65]).unwrap_err();
    assert!(matches!(err, QosError::TooManyClasses(65)), "{err}");
}
