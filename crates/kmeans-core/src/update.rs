//! Update-path selection and the touched-set bookkeeping behind delta
//! updates.
//!
//! A blocked Assign kernel moves the per-iteration critical path onto
//! Update and the merge AllReduce. This module holds the vocabulary the
//! fused/incremental Update paths share:
//!
//! * [`UpdateMode`] — the `--update {twopass,fused,delta}` selector. Every
//!   mode produces bitwise-identical centroids, labels and objective; only
//!   wall time changes.
//! * [`TouchedSet`] — a `k`-bit bitmask over centroid rows recording which
//!   clusters gained or lost members this iteration. Delta updates
//!   recompute exactly these rows (in ascending order, preserving the
//!   fixed-order combining discipline) and leave every other row bitwise
//!   untouched, making the local update cost O(moved·d) and the merge
//!   payload O(touched·d).
//!
//! Why recompute touched rows instead of applying `+x`/`−x` float deltas:
//! floating-point addition is not associative, so a true incremental sum
//! would drift from the two-pass result in the low-order bits. Rebuilding
//! a touched row's sum from its member samples in ascending sample order
//! reproduces the two-pass accumulation sequence exactly — bitwise — while
//! untouched rows keep their previous (already bitwise-correct) sums.

/// Which Update path the executors run. All three are bitwise-equivalent;
/// see the module docs for the discipline that makes that hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateMode {
    /// The reference: a full assign pass, then a separate full-data
    /// accumulation sweep (the seed behaviour).
    #[default]
    TwoPass,
    /// Fused assign–accumulate: the assign kernel folds each scored sample
    /// into per-cluster sums/counts while the block is cache-resident,
    /// eliminating the second full-data sweep.
    Fused,
    /// Incremental: keep the previous iteration's labels; from iteration 2
    /// onward only clusters that gained or lost members are recomputed and
    /// merged (sparse AllReduce). Falls back to a full recompute when the
    /// moved fraction is at least [`DELTA_FALLBACK_FRACTION`].
    Delta,
}

impl UpdateMode {
    pub const ALL: [UpdateMode; 3] = [UpdateMode::TwoPass, UpdateMode::Fused, UpdateMode::Delta];

    /// Stable lowercase name (CLI vocabulary and metrics labels).
    pub fn name(self) -> &'static str {
        match self {
            UpdateMode::TwoPass => "twopass",
            UpdateMode::Fused => "fused",
            UpdateMode::Delta => "delta",
        }
    }

    /// Stable numeric code for gauge export (`0 = twopass`, `1 = fused`,
    /// `2 = delta`).
    pub fn code(self) -> u32 {
        match self {
            UpdateMode::TwoPass => 0,
            UpdateMode::Fused => 1,
            UpdateMode::Delta => 2,
        }
    }

    /// Parse a CLI spelling. `two-pass` is accepted as an alias.
    pub fn parse(s: &str) -> Result<UpdateMode, String> {
        match s {
            "twopass" | "two-pass" => Ok(UpdateMode::TwoPass),
            "fused" => Ok(UpdateMode::Fused),
            "delta" => Ok(UpdateMode::Delta),
            other => Err(format!(
                "unknown update mode `{other}` (twopass|fused|delta)"
            )),
        }
    }
}

impl std::fmt::Display for UpdateMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for UpdateMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        UpdateMode::parse(s)
    }
}

/// Moved-fraction threshold at which a delta iteration falls back to a
/// full recompute: when at least this fraction of samples changed cluster,
/// the sparse path would touch most rows anyway and its bookkeeping and
/// compaction overhead stops paying for itself.
pub const DELTA_FALLBACK_FRACTION: f64 = 0.25;

const WORD_BITS: usize = 64;

/// A `k`-bit set over centroid rows, stored as `u64` words so rank-local
/// masks can be combined with a single bitwise-OR AllReduce (word-wise OR
/// is associative and commutative, so the merged mask is identical on
/// every rank regardless of reduction order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TouchedSet {
    words: Vec<u64>,
    k: usize,
}

impl TouchedSet {
    /// An empty set over rows `0..k`.
    pub fn new(k: usize) -> TouchedSet {
        TouchedSet {
            words: vec![0; k.div_ceil(WORD_BITS)],
            k,
        }
    }

    /// Number of rows the set ranges over (not the number marked).
    pub fn len(&self) -> usize {
        self.k
    }

    pub fn is_empty(&self) -> bool {
        self.k == 0
    }

    /// Unmark every row.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Mark row `j` as touched.
    pub fn mark(&mut self, j: usize) {
        assert!(j < self.k, "row {j} out of range 0..{}", self.k);
        self.words[j / WORD_BITS] |= 1 << (j % WORD_BITS);
    }

    /// Mark every row (the full-recompute fallback).
    pub fn mark_all(&mut self) {
        self.words.fill(!0);
        let tail = self.k % WORD_BITS;
        if tail != 0 {
            *self.words.last_mut().expect("k > 0 when tail > 0") = (1u64 << tail) - 1;
        } else if self.k == 0 {
            self.words.clear();
        }
    }

    pub fn contains(&self, j: usize) -> bool {
        j < self.k && self.words[j / WORD_BITS] & (1 << (j % WORD_BITS)) != 0
    }

    /// Number of marked rows.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Marked rows in ascending order — the fixed combining order every
    /// sparse merge and scatter walks.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * WORD_BITS + b)
                }
            })
        })
    }

    /// The raw word representation (for OR-AllReduce payloads).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Replace the contents from a merged word payload of the same width.
    pub fn set_words(&mut self, words: &[u64]) {
        assert_eq!(words.len(), self.words.len(), "touched-set width mismatch");
        self.words.copy_from_slice(words);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_codes_and_parsing() {
        for m in UpdateMode::ALL {
            assert_eq!(UpdateMode::parse(m.name()), Ok(m));
            assert_eq!(format!("{m}").parse::<UpdateMode>(), Ok(m));
        }
        assert_eq!(UpdateMode::parse("two-pass"), Ok(UpdateMode::TwoPass));
        assert!(UpdateMode::parse("warp-drive").is_err());
        assert_eq!(UpdateMode::default(), UpdateMode::TwoPass);
        let codes: Vec<u32> = UpdateMode::ALL.iter().map(|m| m.code()).collect();
        assert_eq!(codes, vec![0, 1, 2]);
    }

    #[test]
    fn touched_set_marks_counts_and_iterates_ascending() {
        let mut t = TouchedSet::new(130);
        assert_eq!(t.count(), 0);
        for j in [129, 0, 64, 63, 65, 0] {
            t.mark(j);
        }
        assert_eq!(t.count(), 5);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![0, 63, 64, 65, 129]);
        assert!(t.contains(0) && t.contains(129) && !t.contains(1));
        t.clear();
        assert_eq!(t.count(), 0);
        assert_eq!(t.iter().next(), None);
    }

    #[test]
    fn mark_all_masks_the_tail_word() {
        for k in [0usize, 1, 63, 64, 65, 128, 130] {
            let mut t = TouchedSet::new(k);
            t.mark_all();
            assert_eq!(t.count(), k, "k={k}");
            assert_eq!(t.iter().collect::<Vec<_>>(), (0..k).collect::<Vec<_>>());
        }
    }

    #[test]
    fn words_roundtrip_preserves_the_set() {
        let mut a = TouchedSet::new(100);
        for j in [2, 3, 5, 7, 97] {
            a.mark(j);
        }
        let mut b = TouchedSet::new(100);
        b.set_words(a.words());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn marking_past_the_end_panics() {
        TouchedSet::new(10).mark(10);
    }
}
