//! A free-list slab: values parked under small integer tokens.
//!
//! The calendar queue keeps event payloads here so its heaps sift 24-byte
//! keys instead of whole events, and the NIC model keeps its self-scheduled
//! timers here so a local event travels as a token instead of a heap box.
//! Freed slots are reused last-in first-out, which keeps the live set dense
//! and cache-warm. Token values never influence event order — the queue
//! orders by `(time, seq)` alone — so slot reuse cannot perturb a run.

/// Values stored under `u32` tokens, with slot reuse.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub const fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Park `value`, returning its token.
    pub fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(value);
                i
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("slab exceeds u32 tokens");
                self.slots.push(Some(value));
                i
            }
        }
    }

    /// Remove and return the value under `token`.
    ///
    /// # Panics
    /// Panics if `token` is vacant (never issued, or already taken).
    pub fn take(&mut self, token: u32) -> T {
        let value = self.slots[token as usize]
            .take()
            .expect("slab token is vacant");
        self.free.push(token);
        value
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True when no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_take_reuses_slots_lifo() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!((a, b), (0, 1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.take(a), "a");
        assert_eq!(s.insert("c"), a, "freed slot is reused");
        assert_eq!(s.take(b), "b");
        assert_eq!(s.take(a), "c");
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "vacant")]
    fn double_take_panics() {
        let mut s = Slab::new();
        let t = s.insert(1u8);
        s.take(t);
        s.take(t);
    }
}
