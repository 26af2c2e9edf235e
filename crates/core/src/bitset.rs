//! A word-packed bitset for visited-edge / visited-vertex tracking.
//!
//! The walk kernels and observers all keep "seen" bitmaps sized by the
//! graph (`m` edges, `n` vertices). As `Vec<bool>` those bitmaps dominate
//! the cost of re-arming state between trials on paper-scale graphs
//! (`n` up to 5·10⁵): a reset writes one byte per edge. [`BitSet`] packs
//! 64 flags per word, so [`BitSet::clear_and_resize`] touches `m / 64`
//! words instead of `m` bytes and the whole structure is 8× smaller —
//! friendlier to cache when an ensemble worker cycles through thousands
//! of trials. It is shared by [`crate::EProcess`]'s visited-edge state and
//! the [`crate::observe`] observers.

use std::fmt;

const WORD_BITS: usize = 64;

/// A fixed-length sequence of bits, packed 64 per `u64` word.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an empty bitset (length 0). Size it with
    /// [`BitSet::clear_and_resize`] before use.
    pub fn new() -> BitSet {
        BitSet::default()
    }

    /// Creates a bitset of `len` bits, all `false`.
    pub fn with_len(len: usize) -> BitSet {
        BitSet {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the bitset holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Re-arms the bitset to `len` bits, all `false`, reusing the existing
    /// allocation whenever it is large enough — the per-trial reset cost
    /// is `len / 64` word writes.
    pub fn clear_and_resize(&mut self, len: usize) {
        let words = len.div_ceil(WORD_BITS);
        self.words.truncate(words);
        self.words.iter_mut().for_each(|w| *w = 0);
        self.words.resize(words, 0);
        self.len = len;
    }

    /// Sets every bit to `false` without changing the length.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1
    }

    /// Sets bit `i` to `true`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        self.words[i / WORD_BITS] |= 1 << (i % WORD_BITS);
    }

    /// Sets bit `i` to `true`, returning `true` iff it was previously
    /// `false` — the one-pass "first visit?" primitive of the observers.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn test_and_set(&mut self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        let word = &mut self.words[i / WORD_BITS];
        let mask = 1 << (i % WORD_BITS);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Number of `true` bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over all bits in index order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BitSet")
            .field("len", &self.len)
            .field("ones", &self.count_ones())
            .finish()
    }
}

impl FromIterator<bool> for BitSet {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> BitSet {
        let mut set = BitSet::new();
        for (i, bit) in iter.into_iter().enumerate() {
            set.clear_and_resize_keeping(i + 1);
            if bit {
                set.set(i);
            }
        }
        set
    }
}

impl BitSet {
    /// Grows to `len` bits preserving existing bits (internal helper for
    /// [`FromIterator`]).
    fn clear_and_resize_keeping(&mut self, len: usize) {
        self.words.resize(len.div_ceil(WORD_BITS), 0);
        self.len = len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_all_false_and_sets_stick() {
        let mut s = BitSet::with_len(130);
        assert_eq!(s.len(), 130);
        assert!(!s.is_empty());
        assert_eq!(s.count_ones(), 0);
        for i in [0, 63, 64, 65, 129] {
            assert!(!s.get(i));
            s.set(i);
            assert!(s.get(i));
        }
        assert_eq!(s.count_ones(), 5);
    }

    #[test]
    fn test_and_set_reports_first_touch_only() {
        let mut s = BitSet::with_len(70);
        assert!(s.test_and_set(69));
        assert!(!s.test_and_set(69));
        assert!(s.get(69));
        assert_eq!(s.count_ones(), 1);
    }

    #[test]
    fn clear_and_resize_rearms_without_stale_bits() {
        let mut s = BitSet::with_len(100);
        for i in 0..100 {
            s.set(i);
        }
        s.clear_and_resize(64);
        assert_eq!(s.len(), 64);
        assert_eq!(s.count_ones(), 0);
        s.set(63);
        // Growing back must not resurrect old bits beyond the old length.
        s.clear_and_resize(100);
        assert_eq!(s.count_ones(), 0);
        assert!(!s.get(64));
        s.clear_and_resize(0);
        assert!(s.is_empty());
    }

    #[test]
    fn from_iter_and_iter_round_trip() {
        let bits = [true, false, true, true, false];
        let s: BitSet = bits.iter().copied().collect();
        assert_eq!(s.len(), 5);
        assert_eq!(s.iter().collect::<Vec<_>>(), bits);
    }

    #[test]
    fn clear_keeps_length() {
        let mut s = BitSet::with_len(10);
        s.set(3);
        s.clear();
        assert_eq!(s.len(), 10);
        assert_eq!(s.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let s = BitSet::with_len(8);
        let _ = s.get(8);
    }

    #[test]
    fn debug_is_compact() {
        let mut s = BitSet::with_len(9);
        s.set(2);
        let d = format!("{s:?}");
        assert!(d.contains("len") && d.contains("ones"));
    }
}
