//! Deterministic, non-cryptographic hashes shared by the workspace.
//!
//! - [`fmix64`] / [`hash_unit`]: the 64-bit MurmurHash3 finalizer, for
//!   per-job coin flips and attribute draws that must not consume an
//!   RNG stream (so they are independent of draw order and thread
//!   count).
//! - [`splitmix64`]: the SplitMix64 step, for per-job seeds derived
//!   from ids and small self-contained generators.
//! - [`Digest`] / [`fnv1a64`]: 64-bit FNV-1a over a byte stream, for
//!   content hashes (scenario identity) and order-sensitive response
//!   digests. FNV-1a is not cryptographic — it is here to make
//!   *accidental* divergence loud, and its tiny state keeps hot paths
//!   free of hashing noise.

/// Finalizer of 64-bit MurmurHash3: a cheap, well-mixed `u64 -> u64`
/// bijection.
pub fn fmix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    x = (x ^ (x >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Maps a seed to a uniform float in `[0, 1)`: the top 53 bits of
/// [`fmix64`].
pub fn hash_unit(x: u64) -> f64 {
    (fmix64(x) >> 11) as f64 / (1u64 << 53) as f64
}

/// The SplitMix64 step: `x` advanced by the golden-ratio increment,
/// then mixed. Successive outputs over `x, x + γ, x + 2γ, …` form the
/// SplitMix64 stream; one call derives a well-mixed seed from an id.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The SplitMix64 increment (2^64 / golden ratio).
pub const SPLITMIX_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Incremental 64-bit FNV-1a over a byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Digest {
    fn default() -> Digest {
        Digest::new()
    }
}

impl Digest {
    /// A digest over the empty stream.
    pub fn new() -> Digest {
        Digest { state: FNV_OFFSET }
    }

    /// Folds `bytes` into the digest. Order matters: `update(a);
    /// update(b)` equals `update(ab)` but not `update(b); update(a)`.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// The current digest value.
    pub fn finish(&self) -> u64 {
        self.state
    }

    /// The current digest as 16 lowercase hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.state)
    }
}

/// One-shot FNV-1a of a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut d = Digest::new();
    d.update(bytes);
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmix64_matches_murmur3_reference_vectors() {
        assert_eq!(fmix64(0), 0);
        assert_eq!(fmix64(1), 0xb456_bcfc_34c2_cb2c);
        assert_eq!(fmix64(42), 0x8108_7960_8e42_59cc);
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // The first outputs of SplitMix64 seeded with 0.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(SPLITMIX_GAMMA), 0x6e78_9e6a_a1b9_65f4);
    }
}
