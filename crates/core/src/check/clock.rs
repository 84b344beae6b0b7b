//! Vector clocks: the happens-before backbone of the checker.
//!
//! Every model thread carries a [`VClock`]; every synchronization object
//! (atomic location, mutex, park token) carries message clocks
//! derived from them. A data race is two conflicting plain-memory accesses
//! whose clocks are incomparable — see `shadow.rs` for the access rules.

/// A grow-on-demand vector clock. Component `t` counts the events thread
/// `t` has executed; absent components are zero.
#[derive(Clone, Default, PartialEq, Eq)]
pub(crate) struct VClock(Vec<u32>);

impl VClock {
    pub(crate) fn get(&self, tid: usize) -> u32 {
        self.0.get(tid).copied().unwrap_or(0)
    }

    pub(crate) fn set(&mut self, tid: usize, v: u32) {
        if self.0.len() <= tid {
            self.0.resize(tid + 1, 0);
        }
        self.0[tid] = v;
    }

    /// Advance this thread's own component (one event executed).
    pub(crate) fn bump(&mut self, tid: usize) {
        self.set(tid, self.get(tid) + 1);
    }

    /// Component-wise maximum: everything `other` has seen, we have now
    /// seen too.
    pub(crate) fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (s, o) in self.0.iter_mut().zip(other.0.iter()) {
            *s = (*s).max(*o);
        }
    }

    /// `self ≤ other` component-wise: every event in `self` is also
    /// ordered before `other`'s frontier (i.e. `self` happens-before it).
    /// (The shadow state inlines per-component checks; kept for tests and
    /// future detectors.)
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn le(&self, other: &VClock) -> bool {
        self.0.iter().enumerate().all(|(t, &v)| v <= other.get(t))
    }

    #[allow(dead_code)]
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }
}

impl std::fmt::Debug for VClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "⟨")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_and_le() {
        let mut a = VClock::default();
        a.bump(0);
        a.bump(0);
        let mut b = VClock::default();
        b.bump(1);
        assert!(!a.le(&b));
        assert!(!b.le(&a));
        let mut j = a.clone();
        j.join(&b);
        assert!(a.le(&j));
        assert!(b.le(&j));
        assert_eq!(j.get(0), 2);
        assert_eq!(j.get(1), 1);
    }

    #[test]
    fn empty_is_bottom() {
        let bot = VClock::default();
        let mut a = VClock::default();
        a.bump(3);
        assert!(bot.le(&a));
        assert!(bot.le(&bot));
        assert!(!a.le(&bot));
    }
}
