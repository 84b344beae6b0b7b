//! A small deterministic multiplicative hasher for model-internal maps.
//!
//! Model state keyed by small integers (a NIC's `(peer, msg_id)` progress
//! table, its `(peer, tag)` channels) is looked up on every packet. SipHash
//! buys DoS resistance those keys do not need; this is the Fx scheme (one
//! rotate, xor and multiply per word). It is deterministic, which is safe
//! only because the maps using it are never iterated — iteration order
//! would otherwise depend on the hash.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Fx-style word hasher: `h = (h.rotl(5) ^ word) * K`.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed with [`FastHasher`]. Never iterate one where the
/// order could reach simulation output.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_order_sensitive() {
        assert_eq!(hash((3u32, 9u64)), hash((3u32, 9u64)));
        assert_ne!(hash((3u32, 9u64)), hash((9u32, 3u64)));
        assert_ne!(hash(1u64), hash(2u64));
    }

    #[test]
    fn map_round_trips() {
        let mut m: FastMap<(u32, u64), u32> = FastMap::default();
        for i in 0..1000u32 {
            m.insert((i % 7, i as u64), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(3, 500)), Some(&500));
        assert_eq!(m.remove(&(0, 0)), Some(0));
        assert!(!m.contains_key(&(0, 0)));
    }
}
