//! The seeded hash behind every deterministic draw that carries no RNG
//! state: fault decisions, crash storms, and restart/reconnect jitter —
//! plus the one decorrelated-jitter step both backoff policies share.

/// Splitmix64 (Steele, Lea & Flood): one finalizer step over `z`
/// advanced by the golden-ratio increment. A good 64-bit mix, so
/// `splitmix64(seed ^ splitmix64(key))` is an independent, reproducible
/// draw per `(seed, key)`.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// One step of decorrelated-jitter backoff: the delay after `prev`,
/// drawn by the hash `h` from `[base, clamp(3 · prev, base, cap)]`.
/// Requires `base <= cap`.
pub fn decorrelated_jitter(prev: u64, base: u64, cap: u64, h: u64) -> u64 {
    let hi = prev.saturating_mul(3).clamp(base, cap);
    base + h % (hi - base + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_reference_stream() {
        // The reference generator's first outputs from state 0 (the
        // state advances by the increment before each finalizer step).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(0x9E37_79B9_7F4A_7C15), 0x6E78_9E6A_A1B9_65F4);
    }
}
