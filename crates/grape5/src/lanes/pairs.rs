//! The pair pass's working set: the rectangles a pass runs ([`Block`]),
//! the points and words they read and write ([`PairScratch`]), and the
//! test-only counters of what it did.
//!
//! **Pair blocks.** When the i-set is a contiguous run of the j-set (a
//! tree group's members inside its own list, or the whole set), or a
//! run of one group's bodies in another's list meets a run of the
//! other's in the first's (a window of calls, `crate::window`), `(a, b)`
//! and `(b, a)` share their front bit for bit — `−d` is exact, IEEE
//! rounding is sign-symmetric and the LNS encoder reads the magnitude —
//! so `block_exact_pairs` and `block_lns_pairs` run one front per pair
//! of each `Block`: rows against columns of the scratch's points, the
//! diagonal ones (a self block) only `a < b`. The back of the column side
//! is `d · (−m_a r⁻³)`, in LNS the back on `m_a` with every displacement
//! sign flipped; where the lane group's masses all equal `m_a` it is not
//! run at all: rounding half away from zero is odd, so its force words
//! are the row side's negated and its potential words the same. A
//! board's partial is then its rounded terms summed in another order,
//! which is the ordered chain while every term is inside the encode
//! window and no prefix can clamp — a bound over the whole list, or else
//! a headroom check on the words before the run (DESIGN.md, device kernel,
//! "pair blocks"). A block's last group is padded with
//! massless lanes, both ways; the points past the last with far ones.

use super::{LNS_LANES, ZERO_WORD};
use crate::pipeline::JSlices;

/// Lanes past the end of a pair block's columns, far and massless: the
/// widest LNS group, so every group that starts inside the columns reads
/// inside them.
pub(super) const SELF_PAD: usize = 2 * LNS_LANES;
/// The exact kernel's far coordinate: `2⁵¹` is at least `2⁵⁰` from every
/// word inside the magic window, and the difference is exact.
const FAR_IMG: f64 = (1u64 << 51) as f64;
/// The LNS kernel's far coordinate word: inside the magic window, its
/// difference with any word there inside the conversion window.
const FAR_WORD: i64 = 3 << 48;
/// The mass word of a zero mass ([`mass_word`]).
pub(super) const MASSLESS: i32 = ZERO_WORD << 1;

#[cfg(test)]
thread_local! {
    /// On this thread: self blocks evaluated; pair-pass lane groups with
    /// one back (equal masses) and with two; pair blocks that declined;
    /// LNS groups of eight whose pairs went through the definition (a lane
    /// in the converters' guard band); window calls that ran rectangles
    /// of pair blocks; deposits a window call started rows from; window
    /// calls that declined.
    pub(crate) static PAIR_STATS: std::cell::Cell<[u64; 8]> =
        const { std::cell::Cell::new([0; 8]) };
}

/// Count on `PAIR_STATS` (tests only; a no-op elsewhere).
#[inline]
pub(crate) fn count_pairs(_what: usize, _by: u64) {
    #[cfg(test)]
    PAIR_STATS.with(|c| {
        let mut s = c.get();
        s[_what] += _by;
        c.set(s);
    });
}

/// One rectangle of a pair pass ([`PairScratch::blocks`]): rows `rows`
/// of the scratch's points against its columns `cols` (all pairs, or
/// with `diag` only those with the column past the row: a self block's
/// triangle). The row side's sums over the columns go to the words at
/// `to_a` (component 0 of row `rows.0`; component `c` of row `a` at
/// `to_a.0 + (a − rows.0) + c · to_a.1`), the column side's terms to the
/// words at `to_b` (component 0 of column `cols.0`, likewise).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Block {
    pub(crate) rows: (usize, usize),
    pub(crate) cols: (usize, usize),
    pub(crate) diag: bool,
    pub(crate) to_a: (usize, usize),
    pub(crate) to_b: (usize, usize),
}

/// A pair pass's working set (module docs, "pair blocks"), kept by the
/// caller so that a warm call allocates nothing: the points — a self
/// block's run, which is the call's i-set, then the columns of the
/// call's other rectangles — in the columns its mode's kernel reads,
/// padded with [`SELF_PAD`] far, massless lanes; the raw words the pass
/// adds into (`words`, in regions the caller lays out: each board's
/// rows, then the deposits); the rectangles ([`Block`]); where each live
/// board's part of the run ends (run-local, non-decreasing: a board
/// without a part ends where the one before it did).
#[derive(Debug, Clone, Default)]
pub(crate) struct PairScratch {
    /// Exact mode: the points' coordinate words as doubles, their masses.
    pub(super) img: [Vec<f64>; 3],
    pub(super) m: Vec<f64>,
    /// LNS mode: the points' coordinate words and mass words.
    pub(super) words: [Vec<i64>; 3],
    pub(super) m_word: Vec<i32>,
    pub(crate) ends: Vec<usize>,
    pub(super) w: Vec<i64>,
    pub(crate) blocks: Vec<Block>,
}

impl PairScratch {
    /// Start collecting points.
    pub(crate) fn clear(&mut self) {
        self.img.iter_mut().for_each(Vec::clear);
        self.m.clear();
        self.words.iter_mut().for_each(Vec::clear);
        self.m_word.clear();
        self.ends.clear();
        self.blocks.clear();
    }

    /// Points collected so far.
    pub(crate) fn points(&self, lns: bool) -> usize {
        if lns {
            self.m_word.len()
        } else {
            self.m.len()
        }
    }

    /// Append the words `r` of a board's j-memory `j` as points, in the
    /// columns `lns` mode reads; where they went.
    pub(crate) fn push(
        &mut self,
        j: &JSlices<'_>,
        r: std::ops::Range<usize>,
        lns: bool,
    ) -> std::ops::Range<usize> {
        let at = self.points(lns);
        let cols = [&j.x[r.clone()], &j.y[r.clone()], &j.z[r.clone()]];
        if lns {
            for (w, col) in self.words.iter_mut().zip(cols) {
                w.extend_from_slice(col);
            }
            self.m_word.extend_from_slice(&j.m_word[r.clone()]);
        } else {
            for (img, col) in self.img.iter_mut().zip(cols) {
                img.extend(col.iter().map(|&w| w as f64)); // exact: |w| < 2⁵⁰
            }
            self.m.extend_from_slice(&j.m[r.clone()]);
        }
        at..at + r.len()
    }

    /// Point `i`'s mass as a window's records hold it: the `f64` bits in
    /// exact mode, the mass word in LNS.
    pub(crate) fn mass_bits(&self, i: usize, lns: bool) -> i64 {
        if lns {
            i64::from(self.m_word[i])
        } else {
            self.m[i].to_bits() as i64
        }
    }

    /// Pad the points and zero `len` words.
    pub(crate) fn seal(&mut self, lns: bool, len: usize) {
        let n = self.points(lns);
        if lns {
            assert!(self.words.iter().all(|c| c.len() == n));
            self.words.iter_mut().for_each(|c| c.resize(n + SELF_PAD, FAR_WORD));
            self.m_word.resize(n + SELF_PAD, MASSLESS);
        } else {
            assert!(self.img.iter().all(|c| c.len() == n));
            self.img.iter_mut().for_each(|c| c.resize(n + SELF_PAD, FAR_IMG));
            self.m.resize(n + SELF_PAD, 0.0);
        }
        self.w.clear();
        self.w.resize(len + SELF_PAD, 0);
    }

    /// Does every block read and write inside the sealed points and
    /// words? What the kernels' unchecked reads and writes rely on: a
    /// column group reads up to [`SELF_PAD`] points and writes up to
    /// [`SELF_PAD`] words past its block's end.
    pub(super) fn fits(&self, lns: bool) -> bool {
        let pts = self.points(lns);
        let n = pts.saturating_sub(SELF_PAD);
        let padded = match lns {
            true => self.words.iter().all(|c| c.len() == pts),
            false => self.img.iter().all(|c| c.len() == pts),
        };
        let w = self.w.len();
        padded
            && pts >= SELF_PAD
            && self.blocks.iter().all(|b| {
                let (rows, cols) =
                    (b.rows.1.saturating_sub(b.rows.0), b.cols.1.saturating_sub(b.cols.0));
                b.rows.1 <= n
                    && b.cols.0 <= b.cols.1
                    && b.cols.1 <= n
                    && b.to_a.0 + rows + 3 * b.to_a.1 <= w
                    && b.to_b.0 + cols + 3 * b.to_b.1 + SELF_PAD <= w
            })
    }

    /// The words the pass adds into, in the caller's layout (their
    /// length is the one [`seal`](Self::seal) set).
    pub(crate) fn words(&mut self) -> &mut [i64] {
        &mut self.w
    }

    /// The four words `at + c · n` of one i-particle.
    pub(crate) fn words4(&self, at: usize, n: usize) -> [i64; 4] {
        [0, 1, 2, 3].map(|c| self.w[at + c * n])
    }

    /// Add the self block's rectangles over its run of `n` points
    /// (`0..n`), in the board parts `ends` holds, with board `k`'s words
    /// at `4 · k · n` (stride `n`): for each board part of the rows and
    /// each part of the columns from it on, the pairs `a < b`; the row
    /// side into the columns' board, the column side into the rows'.
    pub(crate) fn push_self_blocks(&mut self, n: usize) {
        let ends = &self.ends;
        let starts = || std::iter::once(0).chain(ends.iter().copied());
        for (ca, (rs, re)) in starts().zip(ends.iter().copied()).enumerate() {
            for (cb, (cs, ce)) in starts().zip(ends.iter().copied()).enumerate().skip(ca) {
                if rs < re && cs < ce {
                    self.blocks.push(Block {
                        rows: (rs, re),
                        cols: (cs, ce),
                        diag: true,
                        to_a: (4 * cb * n + rs, n),
                        to_b: (4 * ca * n + cs, n),
                    });
                }
            }
        }
    }
}
