//! The pair pass's one entry point (DESIGN.md, "pair blocks").
//!
//! GRAPE-5's pipelines evaluate every ordered pair, and the modified
//! tree algorithm puts a group's own members, and a neighbouring group's
//! bodies, into the group's list. Every call whose i-set is a run of its
//! j-set — a window's, a run-hinted one, the whole set — goes through
//! `PairWindow::run_call`, which evaluates the run's pairs once (the
//! *diagonal*, a self block) and, in a live window, the *rectangles* it
//! shares with the window's other calls, whose lists are all known
//! before the first runs ([`WindowCall`]). Where group `g`'s list holds
//! bodies `B` of group `h > g` and `h`'s list holds bodies `A` of `g`,
//! each run of `B` in `g`'s list against each run of `A` in `h`'s list is
//! a rectangle evaluated once, during `g`'s call: one front per pair, the
//! row side (`a ∈ A`, in `g`'s i-set) into `g`'s words on the board
//! holding the run of `B`, the column side into a *deposit* for the board
//! of `h`'s list that holds the run of `A`. `h`'s call skips those
//! columns for those rows and starts them from the deposit.
//!
//! Runs are split at each list's board boundaries when the window is
//! planned (the split of a list is known from its length), and a run
//! shorter than `PAIR_RUN_MIN` stays in the plain kernel. Each member of a
//! live window's calls has one exact record — its coordinate words and
//! mass — set by the first call that uses it, as a row or a column, and
//! compared by every later use. A deposit is used only where the call
//! that computed it and the call that takes it both matched every record
//! it reads: their words are then the records', so equal to each other
//! (DESIGN.md, "pair blocks"). A call that runs no rectangles — its
//! bound fails, its pass declines — commits no deposit, and the calls
//! that would take one run those columns instead; the records it set
//! stay as they are.

use crate::lanes::{self, Block, PairScratch, Words};
use crate::pipeline::{run_parts, G5Pipeline, JSlices};
use crate::system::CallHint;
use g5util::fixed::FixedFormat;
use g5util::lns::Lns;
use std::ops::Range;

/// Shortest run of one group's bodies in another group's list that a
/// window pairs: each run is a rectangle of its own, with its own
/// deposit, checks and ragged ends, which a short run does not repay.
/// Sized on `exp_kernel`'s pair rows (EXPERIMENTS.md E10).
pub(crate) const PAIR_RUN_MIN: usize = 32;

/// Fewest members a group needs to take part in a window: below it a
/// stream is not gathered into windows at all, and its calls go alone.
/// Above `n_g = 32`'s largest group (32), so the short calls of that end
/// of the curve pay nothing.
pub const PAIR_GROUP_MIN: usize = 40;

/// Shortest run whose diagonal a call outside a live window takes, unless
/// it is the whole set: below it the split list's extra kernel calls and
/// tails cost more than the pairs saved (`exp_kernel`'s run cells with
/// this bound at 1, EXPERIMENTS.md E10: a loss at n ≤ 48 in both modes,
/// even at 96, a gain from 128 with equal masses).
pub(crate) const SELF_RUN_MIN: usize = 128;

/// One call of a window as the planner sees it: the bodies of a common
/// numbering, each list a run of them here and there between cells.
#[derive(Debug, Clone, Copy)]
pub struct WindowCall<'a> {
    /// Terms in the call's list (the j-set it loads).
    pub list_len: usize,
    /// The call's i-set: bodies `first .. first + members`.
    pub first: usize,
    /// Size of the i-set.
    pub members: usize,
    /// Where in the list the i-set's own run starts.
    pub members_at: usize,
    /// The list's runs of bodies as `[list position, first body, len]`,
    /// in list order.
    pub bodies: &'a [[usize; 3]],
}

/// Columns of one call's list that pair with some of its rows: outgoing
/// (a run of a later call's bodies, evaluated here) or incoming (a run
/// of an earlier call's bodies, whose rows start from deposits).
#[derive(Debug, Clone, Default)]
struct Seg {
    /// List positions, all on one board when the window was planned.
    cols: Range<usize>,
    out: bool,
    /// This segment's rectangles in `PairWindow::rects`.
    rects: Range<usize>,
    /// The record of the body in its first column (the next columns' are
    /// the next ones).
    rec: usize,
    /// Placed by the call: its board, and for an outgoing segment its
    /// points in the scratch.
    board: usize,
    pts: Range<usize>,
}

/// The rows of one rectangle (i-set indices of its call) and its
/// deposit; it runs where the deposit is `ok`.
#[derive(Debug, Clone, Default)]
struct Rect {
    rows: Range<usize>,
    slot: usize,
}

/// A deposit: the column side of every rectangle between one run `B` of
/// the later call's bodies in the earlier call's list and the runs of
/// the earlier call's bodies on one board of the later call's list —
/// `4 × rows` words from `dep` (component `c` of row `i` at
/// `c · rows + i`), added to that board's words of `B`'s rows.
#[derive(Debug, Clone, Default)]
struct Slot {
    rows: usize,
    dep: usize,
    valid: bool,
    /// Set by a call: where its words sit in the scratch (outgoing) or
    /// the board its columns are on (incoming); whether they hold and
    /// were added.
    tmp: usize,
    ok: bool,
    added: bool,
}

/// One side of a rectangle while a window is planned: its call, the
/// columns there, outgoing or not, the record of the body in the first
/// column, the rows, the deposit.
#[derive(Debug, Clone)]
struct Side {
    call: usize,
    cols: Range<usize>,
    out: bool,
    rec: usize,
    rows: Range<usize>,
    slot: usize,
}

/// The window's plan and deposit store, kept by the device so that a
/// warm window reuses its buffers.
#[derive(Debug, Clone, Default)]
pub(crate) struct PairWindow {
    /// Rectangles are planned and the window has not been ended.
    alive: bool,
    /// Per call, live or not: its segments, where its run starts, where
    /// its members' records start.
    calls: Vec<(Range<usize>, usize, usize)>,
    segs: Vec<Seg>,
    rects: Vec<Rect>,
    slots: Vec<Slot>,
    dep: Vec<i64>,
    /// One record per member of each call of a live window: its
    /// coordinate words and mass bits as the first call that used it held
    /// them, and whether a call has.
    recs: Vec<[i64; 4]>,
    set: Vec<bool>,
    /// Planning: each rectangle's two sides, and the two lists' runs of
    /// one pair.
    plan: Vec<Side>,
    pair_runs: [Vec<[usize; 3]>; 2],
    /// A call's row blocks and the columns a block skips.
    cuts: Vec<usize>,
    skip: Vec<Range<usize>>,
    /// A block's columns of one board, gathered.
    plain: Plain,
}

/// The columns of one board's list that a block of rows runs, gathered
/// into one span: each board's words are its terms' integer sum in any
/// order (`run_call`), and one span has one ragged end where the list
/// between the skipped columns has one per piece.
#[derive(Debug, Clone, Default)]
struct Plain {
    x: [Vec<i64>; 3],
    m: Vec<f64>,
    m_lns: Vec<Lns>,
    m_word: Vec<i32>,
}

impl Plain {
    fn clear(&mut self) {
        self.x.iter_mut().for_each(Vec::clear);
        self.m.clear();
        self.m_lns.clear();
        self.m_word.clear();
    }

    /// Append the words `r` of `j`.
    fn push(&mut self, j: &JSlices<'_>, r: Range<usize>) {
        for (x, col) in self.x.iter_mut().zip([j.x, j.y, j.z]) {
            x.extend_from_slice(&col[r.clone()]);
        }
        self.m.extend_from_slice(&j.m[r.clone()]);
        if !j.m_lns.is_empty() {
            self.m_lns.extend_from_slice(&j.m_lns[r.clone()]);
        }
        if !j.m_word.is_empty() {
            self.m_word.extend_from_slice(&j.m_word[r]);
        }
    }

    /// The gathered words as j-slices, inside the magic window where `j`
    /// was.
    fn slices(&self, j: &JSlices<'_>) -> JSlices<'_> {
        let [x, y, z] = &self.x;
        JSlices {
            x,
            y,
            z,
            m: &self.m,
            m_lns: &self.m_lns,
            m_word: &self.m_word,
            in_window: j.in_window,
        }
    }
}

/// The runs of `c`'s list holding bodies `ids`, split where `boards`
/// boards split the list, as `[list position, first body, len]`; only
/// those of at least [`PAIR_RUN_MIN`].
fn runs_of(c: &WindowCall<'_>, ids: Range<usize>, boards: usize, out: &mut Vec<[usize; 3]>) {
    out.clear();
    let per = c.list_len.div_ceil(boards.max(1)).max(1);
    for &[pos, id, len] in c.bodies {
        let (i0, i1) = (id.max(ids.start), (id + len).min(ids.end));
        let mut p = pos + i0.saturating_sub(id);
        let end = p + i1.saturating_sub(i0);
        while p < end {
            let cut = ((p / per + 1) * per).min(end);
            if cut - p >= PAIR_RUN_MIN {
                out.push([p, id + (p - pos), cut - p]);
            }
            p = cut;
        }
    }
}

/// The live `boards` with where each one's part of the j-set starts.
fn board_starts<'a>(
    boards: impl Iterator<Item = JSlices<'a>>,
) -> impl Iterator<Item = (usize, JSlices<'a>)> {
    boards.scan(0, |start, j| {
        let s = *start;
        *start += j.len();
        Some((s, j))
    })
}

/// Body `p` of a board as its record holds it: the coordinate words and
/// the mass, as `f64` bits in exact mode and as the mass word in LNS.
fn record(j: &JSlices<'_>, p: usize, lns: bool) -> [i64; 4] {
    let m = if lns { i64::from(j.m_word[p]) } else { j.m[p].to_bits() as i64 };
    [j.x[p], j.y[p], j.z[p], m]
}

impl PairWindow {
    /// An empty store whose call records are allocated with the device
    /// (a window holds at most 16 calls): a first allocation made
    /// between a step's buffers pins the heap's top and keeps what they
    /// free resident (`cluster4_overlap` read +1.5 MB of peak RSS).
    pub(crate) fn new() -> Self {
        PairWindow { calls: Vec::with_capacity(16), ..Self::default() }
    }

    /// Record `calls`, where each one's run starts, and with `pairs`
    /// plan their rectangles on `boards` live boards: `false`, and no
    /// live window, where no two calls share one.
    pub(crate) fn open<'a>(
        &mut self,
        calls: impl Iterator<Item = WindowCall<'a>> + Clone,
        boards: usize,
        pairs: bool,
    ) -> bool {
        self.close();
        self.calls.extend(calls.clone().scan(0, |recs, c| {
            *recs += c.members;
            Some((0..0, c.members_at, *recs - c.members))
        }));
        let eligible = |c: &WindowCall<'_>| {
            pairs && c.members >= PAIR_GROUP_MIN && c.members_at + c.members <= c.list_len
        };
        let per = |c: &WindowCall<'_>| c.list_len.div_ceil(boards.max(1)).max(1);
        let mut dep = 0;
        for (g, cg) in calls.clone().enumerate() {
            if !eligible(&cg) {
                continue;
            }
            for (h, ch) in calls.clone().enumerate().skip(g + 1) {
                if !eligible(&ch) {
                    continue;
                }
                let [b_runs, a_runs] = &mut self.pair_runs;
                runs_of(&cg, ch.first..ch.first + ch.members, boards, b_runs);
                if b_runs.is_empty() {
                    continue;
                }
                runs_of(&ch, cg.first..cg.first + cg.members, boards, a_runs);
                // a deposit per run of `B` and board of `h`'s list
                let mut a = 0;
                while a < a_runs.len() {
                    let board = a_runs[a][0] / per(&ch);
                    let end =
                        a + a_runs[a..].iter().take_while(|r| r[0] / per(&ch) == board).count();
                    for &[bp, bid, blen] in b_runs.iter() {
                        let slot = self.slots.len();
                        self.slots.push(Slot { rows: blen, dep, ..Slot::default() });
                        dep += 4 * blen;
                        let b_rows = bid - ch.first..bid - ch.first + blen;
                        for &[ap, aid, alen] in &a_runs[a..end] {
                            let a_rows = aid - cg.first..aid - cg.first + alen;
                            self.plan.push(Side {
                                call: g,
                                cols: bp..bp + blen,
                                out: true,
                                rec: self.calls[h].2 + b_rows.start,
                                rows: a_rows.clone(),
                                slot,
                            });
                            self.plan.push(Side {
                                call: h,
                                cols: ap..ap + alen,
                                out: false,
                                rec: self.calls[g].2 + a_rows.start,
                                rows: b_rows.clone(),
                                slot,
                            });
                        }
                    }
                    a = end;
                }
            }
        }
        if self.plan.is_empty() {
            return false;
        }
        self.dep.resize(dep, 0);
        let recs = calls.map(|c| c.members).sum();
        self.recs.resize(recs, [0; 4]);
        self.set.resize(recs, false);
        self.plan.sort_unstable_by_key(|p| (p.call, p.cols.start, p.out));
        for Side { call, cols, out, rec, rows, slot } in self.plan.drain(..) {
            let same = self.segs.last().is_some_and(|s| s.cols == cols && s.out == out)
                && self.calls[call].0.end == self.segs.len();
            if !same {
                let rects = self.rects.len()..self.rects.len();
                self.segs.push(Seg { cols, out, rects, rec, ..Seg::default() });
                let c = &mut self.calls[call].0;
                if c.start == c.end {
                    c.start = self.segs.len() - 1;
                }
                c.end = self.segs.len();
            }
            self.rects.push(Rect { rows, slot });
            self.segs.last_mut().expect("pushed above").rects.end = self.rects.len();
        }
        self.alive = true;
        true
    }

    /// Drop the window and its calls (buffers kept).
    pub(crate) fn close(&mut self) {
        self.alive = false;
        self.calls.clear();
        self.segs.clear();
        self.rects.clear();
        self.slots.clear();
        self.dep.clear();
        self.recs.clear();
        self.set.clear();
        self.plan.clear();
    }

    /// End the window early: no later call of it runs a rectangle or
    /// uses a deposit.
    pub(crate) fn kill(&mut self) {
        if self.alive {
            lanes::count_pairs(7, 1);
        }
        self.alive = false;
    }

    /// Where the run of a call `hint` names starts in its j-set of `nj`,
    /// and the call's index where it is a call of the live window — if
    /// the call may run the diagonal at all: a call of the live window,
    /// a run of at least [`SELF_RUN_MIN`] members, or the whole set (from
    /// 0 when no run is named).
    #[inline]
    pub(crate) fn run_of(
        &self,
        hint: CallHint,
        n: usize,
        nj: usize,
    ) -> Option<(usize, Option<usize>)> {
        let (at, live) = match hint {
            CallHint::None => (None, None),
            CallHint::Run(at) => (Some(at), None),
            CallHint::Window(call) => self
                .calls
                .get(call)
                .map_or((None, None), |&(_, at, _)| (Some(at), self.alive.then_some(call))),
        };
        let at = at.or((n == nj).then_some(0))?;
        (live.is_some() || n >= SELF_RUN_MIN || n == nj).then_some((at, live))
    }

    /// Does record `at` hold `w`? The first use of a body sets its record,
    /// and a set record never changes.
    fn holds(&mut self, at: usize, w: [i64; 4]) -> bool {
        if !std::mem::replace(&mut self.set[at], true) {
            self.recs[at] = w;
        }
        self.recs[at] == w
    }

    /// The one entry point: evaluate on `pipe` a call whose i-set `xi` is the
    /// live `boards`' words `at .. at + n` (module docs); board `k`'s
    /// words are left in `s` at `4 · k · n` (stride `n`). For `call` of
    /// the live window where `order_free` (`Grape5`'s bound: no prefix of
    /// any board's ordered chain can clamp, in any order), every block of
    /// rows runs its columns of each board's list through
    /// [`G5Pipeline::interact_into`] — the list less the run, less the
    /// rectangles the block takes part in, gathered into one span — then
    /// the pair pass adds the run's pairs and the outgoing rectangles,
    /// and the incoming deposits are added to their rows. Otherwise there
    /// are no rectangles and the order is the definition's but inside the
    /// run: each board's list before the run, whose words must leave the
    /// run's terms `len · 2⁵⁰` to the format's ends (DESIGN.md, (iv)), the
    /// pass, the list after the run. `false`, nothing committed, where the
    /// pipeline would not run the pass, the run is not the i-set, the
    /// words leave no headroom or the pass declines.
    #[inline(never)]
    pub(crate) fn run_call<'a>(
        &mut self,
        pipe: &G5Pipeline,
        xi: &[[i64; 3]],
        boards: impl Iterator<Item = JSlices<'a>> + Clone,
        (at, call, order_free): (usize, Option<usize>, bool),
        (force_scale, fmt): (f64, FixedFormat),
        s: &mut PairScratch,
    ) -> bool {
        let Some(lns) = pipe.pairs_on() else {
            return false;
        };
        let n = xi.len();
        if n == 0 || !pipe.load_run(xi, boards.clone(), at, s) {
            return false;
        }
        // a call of the live window whose words are order-free gathers
        // its columns and runs its rectangles
        let (gather, segs, base) = match call {
            Some(call) if order_free => (true, self.calls[call].0.clone(), self.calls[call].2),
            _ => (false, 0..0, 0),
        };
        let mut len = 4 * s.ends.len() * n;
        // an outgoing deposit runs whole or not at all; an incoming one
        // is taken only if it was computed
        for si in segs.clone() {
            let out = self.segs[si].out;
            for r in self.segs[si].rects.clone() {
                let slot = &mut self.slots[self.rects[r].slot];
                (slot.tmp, slot.added, slot.ok) = (usize::MAX, false, out || slot.valid);
            }
        }
        // place each segment: outgoing columns become points with a
        // deposit in the scratch; every column and row is checked against
        // its body's record
        for si in segs.clone() {
            let (cols, out, rec) =
                (self.segs[si].cols.clone(), self.segs[si].out, self.segs[si].rec);
            let placed = board_starts(boards.clone())
                .enumerate()
                .find(|(_, (bs, j))| *bs <= cols.start && cols.end <= bs + j.len())
                .filter(|(_, (_, j))| j.in_window || !out);
            let rects = self.segs[si].rects.clone();
            let Some((k, (bs, j))) = placed else {
                for r in rects {
                    self.slots[self.rects[r].slot].ok = false;
                }
                continue;
            };
            let local = cols.start - bs..cols.end - bs;
            let cols_hold =
                local.clone().zip(rec..).all(|(p, r)| self.holds(r, record(&j, p, lns)));
            if out {
                self.segs[si].pts = s.push(&j, local, lns);
            }
            for r in rects {
                let Rect { rows, slot, .. } = self.rects[r].clone();
                let rows_hold = rows.end <= n
                    && rows.clone().all(|a| {
                        let [x, y, z] = xi[a];
                        self.holds(base + a, [x, y, z, s.mass_bits(a, lns)])
                    });
                let slot = &mut self.slots[slot];
                // an outgoing deposit's words in the scratch; all of an
                // incoming one's columns on the one board it is added to
                let one_board = if out {
                    if slot.tmp == usize::MAX {
                        slot.tmp = len;
                        len += 4 * slot.rows;
                    }
                    true
                } else {
                    let first = std::mem::replace(&mut slot.tmp, k);
                    first == usize::MAX || first == k
                };
                slot.ok &= cols_hold && rows_hold && one_board;
            }
            self.segs[si].board = k;
        }
        s.seal(lns, len);
        if gather {
            self.gathered(pipe, xi, boards.clone(), (at, segs.clone()), (force_scale, fmt), s);
        } else if !run_parts(boards.clone(), (at, n)).enumerate().all(|(k, (j, r))| {
            // each board's list before the run, from zero: its part of the
            // run and its words must leave the run's terms `len · 2⁵⁰` to
            // the format's ends
            let room = r.len() as i64 <= fmt.raw_max() >> 50;
            if !room || r.start == 0 || r.is_empty() {
                return room;
            }
            let words = &mut Words::Rows { w: &mut s.words()[4 * k * n..], n, len: n };
            pipe.interact_into(xi, &j.sub(0..r.start), force_scale, fmt, words);
            let lim = (fmt.raw_max() - ((r.len() as i64) << 50)) as u64;
            s.words()[4 * k * n..4 * (k + 1) * n].iter().all(|w| w.unsigned_abs() <= lim)
        }) {
            lanes::count_pairs(3, 1);
            return false;
        }
        s.push_self_blocks(n);
        for seg in self.segs[segs.clone()].iter().filter(|s| s.out) {
            for r in self.rects[seg.rects.clone()].iter().filter(|r| self.slots[r.slot].ok) {
                let slot = &self.slots[r.slot];
                s.blocks.push(Block {
                    rows: (r.rows.start, r.rows.end),
                    cols: (seg.pts.start, seg.pts.end),
                    diag: false,
                    to_a: (4 * seg.board * n + r.rows.start, n),
                    to_b: (slot.tmp, slot.rows),
                });
            }
        }
        if !pipe.pair_pass(lns, (force_scale, fmt), s) {
            lanes::count_pairs(3, 1);
            return false;
        }
        if !gather {
            // the rest of each board's list continues the run's words
            for (k, (j, r)) in run_parts(boards, (at, n)).enumerate() {
                let rest = if r.is_empty() { 0..j.len() } else { r.end..j.len() };
                if !rest.is_empty() {
                    let words = &mut Words::Rows { w: &mut s.words()[4 * k * n..], n, len: n };
                    pipe.interact_into(xi, &j.sub(rest), force_scale, fmt, words);
                }
            }
        }
        // the incoming rows start from their deposits (order-free), once
        // per deposit; the outgoing deposits kept
        let (mut outs, mut ins) = (0, 0);
        for si in segs {
            let seg = &self.segs[si];
            for r in &self.rects[seg.rects.clone()] {
                let slot = &mut self.slots[r.slot];
                if !slot.ok || std::mem::replace(&mut slot.added, true) {
                    continue;
                }
                *if seg.out { &mut outs } else { &mut ins } += 1;
                let w = 4 * slot.rows;
                if seg.out {
                    self.dep[slot.dep..slot.dep + w]
                        .copy_from_slice(&s.words()[slot.tmp..slot.tmp + w]);
                    slot.valid = true;
                } else {
                    for c in 0..4 {
                        for (t, i) in r.rows.clone().enumerate() {
                            let d = self.dep[slot.dep + c * slot.rows + t];
                            let w = &mut s.words()[4 * seg.board * n + c * n + i];
                            *w = w.wrapping_add(d);
                        }
                    }
                }
            }
        }
        lanes::count_pairs(0, 1);
        lanes::count_pairs(5, u64::from(outs > 0));
        lanes::count_pairs(6, ins);
        true
    }

    /// Where the call's words are order-free: each block of its rows
    /// (`segs`, its segments, cut by the rectangles that run) runs each
    /// board's list less the run `at .. at + xi.len()`, less the columns
    /// of the block's rectangles, gathered into one span, into `s`'s
    /// words.
    fn gathered<'a>(
        &mut self,
        pipe: &G5Pipeline,
        xi: &[[i64; 3]],
        boards: impl Iterator<Item = JSlices<'a>> + Clone,
        (at, segs): (usize, Range<usize>),
        (force_scale, fmt): (f64, FixedFormat),
        s: &mut PairScratch,
    ) {
        let n = xi.len();
        // the blocks of rows that take part in the same rectangles
        self.cuts.clear();
        self.cuts.extend([0, n]);
        for seg in &self.segs[segs.clone()] {
            for r in self.rects[seg.rects.clone()].iter().filter(|r| self.slots[r.slot].ok) {
                self.cuts.extend([r.rows.start, r.rows.end]);
            }
        }
        self.cuts.sort_unstable();
        self.cuts.dedup();
        for b in 1..self.cuts.len() {
            let (c0, c1) = (self.cuts[b - 1], self.cuts[b]);
            self.skip.clear();
            self.skip.push(at..at + n);
            for seg in &self.segs[segs.clone()] {
                let rects = &self.rects[seg.rects.clone()];
                let on = |r: &&Rect| self.slots[r.slot].ok;
                if rects.iter().filter(on).any(|r| r.rows.start <= c0 && c1 <= r.rows.end) {
                    self.skip.push(seg.cols.clone());
                }
            }
            self.skip.sort_unstable_by_key(|r| r.start);
            for (k, (bs, j)) in board_starts(boards.clone()).enumerate() {
                // the board's list less the skipped columns, gathered
                // where that is more than one piece
                let (be, mut lo) = (bs + j.len(), bs);
                let (mut pieces, mut first) = (0, 0..0);
                self.plain.clear();
                for r in self.skip.iter().chain(std::iter::once(&(be..be))) {
                    let gs = r.start.clamp(bs, be);
                    if lo < gs {
                        match pieces {
                            0 => first = lo - bs..gs - bs,
                            1 => {
                                self.plain.push(&j, first.clone());
                                self.plain.push(&j, lo - bs..gs - bs);
                            }
                            _ => self.plain.push(&j, lo - bs..gs - bs),
                        }
                        pieces += 1;
                    }
                    lo = lo.max(r.end.clamp(bs, be));
                }
                if pieces > 0 {
                    let w = &mut s.words()[4 * k * n + c0..];
                    let words = &mut Words::Rows { w, n, len: c1 - c0 };
                    let cols = match pieces {
                        1 => j.sub(first),
                        _ => self.plain.slices(&j),
                    };
                    pipe.interact_into(&xi[c0..c1], &cols, force_scale, fmt, words);
                }
            }
        }
    }
}
