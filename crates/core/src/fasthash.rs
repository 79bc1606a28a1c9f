//! A fast, deterministic hasher for the simulator's small hot keys.
//!
//! Every per-event map operation — node lookup on delivery, per-query stats
//! updates, pending-table access, the oracle wiring's subcell groups — keys
//! on a `u64` node id or a two-word `QueryId`. `std`'s default SipHash is
//! DoS-resistant but costs more than the lookup itself for such keys, and
//! its per-instance random seed makes iteration order vary between runs.
//! This multiplicative hasher (the Fibonacci-hashing family) is a handful
//! of arithmetic ops per word, and being seedless it makes map iteration
//! order a pure function of the insertion sequence — one less source of
//! nondeterminism to audit.
//!
//! Not collision-resistant against adversarial keys; use only for internal
//! identifiers, never for attacker-controlled input.

#![allow(clippy::disallowed_types)] // std-collections: wraps the std maps to build FastMap/FastSet

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// Odd multiplier from the golden ratio (`2^64 / φ`), the classic Fibonacci
/// hashing constant: consecutive ids spread across the whole table.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// See the module docs. Word-at-a-time multiplicative hasher.
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn write_i8(&mut self, n: i8) {
        self.add(n as u8 as u64);
    }

    #[inline]
    fn write_i16(&mut self, n: i16) {
        self.add(n as u16 as u64);
    }

    #[inline]
    fn write_i32(&mut self, n: i32) {
        self.add(n as u32 as u64);
    }

    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add(n as u64);
    }

    #[inline]
    fn write_isize(&mut self, n: isize) {
        self.add(n as u64);
    }
}

/// Seedless [`BuildHasher`] for [`FastHasher`]: every instance hashes
/// identically, so map iteration order depends only on insertions.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FastHashState;

impl BuildHasher for FastHashState {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher::default()
    }
}

/// `HashMap` keyed by internal identifiers, using [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, FastHashState>;
/// `HashSet` of internal identifiers, using [`FastHasher`].
pub type FastSet<T> = HashSet<T, FastHashState>;

/// Word-at-a-time FNV-1a 64, used for state fingerprints (node state, the
/// simulator's exploration hashes). Distinct from [`FastHasher`] on
/// purpose: fingerprints are compared *across* processes and stored in
/// exploration caches, so they use the textbook constants rather than
/// whatever the map hasher of the day is.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Mixes one word in, byte-at-a-time little-endian.
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = FastHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&(7u64, 3u32)), hash_of(&(7u64, 3u32)));
    }

    #[test]
    fn consecutive_ids_spread() {
        // Fibonacci multiplier: consecutive small ids must not collide in
        // the low bits a power-of-two table actually uses.
        let low: FastSet<u64> = (0u64..1000).map(|i| hash_of(&i) >> 57).collect();
        assert!(
            low.len() > 64,
            "top-7-bit buckets poorly spread: {}",
            low.len()
        );
        let set: FastSet<u64> = (0u64..1000).map(|i| hash_of(&i)).collect();
        assert_eq!(set.len(), 1000, "collisions among consecutive ids");
    }

    #[test]
    fn byte_stream_tail_is_length_salted() {
        // "ab" vs "ab\0" must differ even though the padded word matches.
        assert_ne!(hash_of(&[97u8, 98]), hash_of(&[97u8, 98, 0]));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FastMap<u64, &str> = FastMap::default();
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m.remove(&2), Some("b"));
        assert!(!m.contains_key(&2));
    }
}
