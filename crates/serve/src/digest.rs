//! Order-sensitive response digests for determinism checks.
//!
//! The CI serve leg proves "byte-identical responses at any thread
//! budget" without shipping megabytes of response bodies between jobs:
//! each run folds every response, in request order, into one 64-bit
//! FNV-1a digest, and the runs' hex digests are compared. The digest
//! is the workspace's one FNV-1a implementation ([`sc_stats::hash`]),
//! re-exported here for the serve API.

pub use sc_stats::hash::{fnv1a64, Digest};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_fnv1a_vectors() {
        // Reference values for the canonical 64-bit FNV-1a parameters.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_equals_one_shot_and_order_matters() {
        let mut d = Digest::new();
        d.update(b"foo");
        d.update(b"bar");
        assert_eq!(d.finish(), fnv1a64(b"foobar"));
        assert_eq!(d.hex(), format!("{:016x}", fnv1a64(b"foobar")));
        assert_ne!(fnv1a64(b"barfoo"), fnv1a64(b"foobar"));
    }
}
