//! Shared Morton quantization + radix sort for the host tree pipeline.
//!
//! Both host-side consumers of Morton codes — the octree build and the
//! cluster domain decomposition — quantize a point set onto the same
//! padded bounding cube and sort particle indices by `(code, index)`.
//! This module is the single implementation of that step:
//!
//! * [`MortonFrame`] — the padded bounding cube of *the point set it
//!   is given*. The decomposition frames the whole snapshot and every
//!   tree build frames its own particles, so a shard tree sits on the
//!   cube of its shard, not on the decomposition's grid: a domain
//!   boundary is a cell boundary of the snapshot's grid only, and the
//!   shard trees' cells do not line up with it or with each other.
//! * [`sort_indices`] — a radix sort over the 63-bit codes. The serial
//!   path is an MSD hybrid: one streaming scatter on the top 11
//!   *varying* key bits fans the `(code, index)` tuples into 2048
//!   buckets, oversized buckets (central concentration makes the top
//!   Morton digits heavily skewed) get one more 11-bit scatter, and
//!   each small bucket is finished with a comparison sort whose working
//!   set is cache-hot and whose `log₂` is that of the bucket, not of
//!   `n`. The multi-thread path is a classic LSD pipeline: 11-bit
//!   digits least-significant first, per-chunk histograms merged by a
//!   (digit-major, chunk-minor) prefix sum into disjoint scatter
//!   ranges, ping-pong buffers, constant digits skipped outright.
//! * `sort_indices_comparison` — the comparison-sort reference the
//!   radix path is verified against, and the small-bucket fallback of
//!   the MSD path (the radix-vs-comparison A/B of record is
//!   EXPERIMENTS.md E11, `BENCH_pr19.json`).
//!
//! A flat comparison sort pays `O(n log n)` key loads through an
//! unpredictable-branch partitioner. The MSD hybrid replaces the first
//! `~22` resolved key bits with two branch-free streaming scatters and
//! leaves the partitioner only `log₂(bucket)` levels over L1-resident
//! slices — measured ≈ 1.5× over `sort_unstable` at the headline
//! N = 262,144 on Plummer-clustered codes. Leading bits every code
//! agrees on are normalized away first (the digits are taken from
//! `code << lead`), so a cold start with few occupied octants still
//! fans out over the full radix.

use crate::morton;
use crate::vec3::Vec3;

/// The padded bounding cube a point set is quantized onto.
///
/// Padding the half-side by one part in 10¹² keeps the maximum corner
/// strictly inside the `2²¹`-cell grid so it cannot quantize onto a
/// phantom 22nd cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MortonFrame {
    /// Cube center.
    pub center: Vec3,
    /// Cube half-side (padded).
    pub half: f64,
}

impl MortonFrame {
    /// Frame for a point set (empty input yields a degenerate frame
    /// that no point will ever be encoded on).
    pub fn for_points(pos: &[Vec3]) -> MortonFrame {
        let mut lo = Vec3::splat(f64::INFINITY);
        let mut hi = Vec3::splat(f64::NEG_INFINITY);
        for p in pos {
            lo = lo.min(*p);
            hi = hi.max(*p);
        }
        let center = (lo + hi) * 0.5;
        let half = ((hi - lo).max_component() * 0.5).max(f64::MIN_POSITIVE) * (1.0 + 1e-12);
        MortonFrame { center, half }
    }

    /// Morton code per position on this frame's grid, in input order.
    ///
    /// # Panics
    /// On non-finite positions.
    pub fn codes(&self, pos: &[Vec3]) -> Vec<u64> {
        let inv_side = 1.0 / (2.0 * self.half);
        let min = Vec3::new(
            self.center.x - self.half,
            self.center.y - self.half,
            self.center.z - self.half,
        );
        let encode = move |p: &Vec3| {
            let u = (p.x - min.x) * inv_side;
            let v = (p.y - min.y) * inv_side;
            let w = (p.z - min.z) * inv_side;
            assert!(u.is_finite() && v.is_finite() && w.is_finite(), "non-finite position");
            morton::encode_unit(u, v, w)
        };
        let mut out = vec![0u64; pos.len()];
        let threads = worker_count(pos.len());
        if threads <= 1 {
            for (o, p) in out.iter_mut().zip(pos) {
                *o = encode(p);
            }
        } else {
            let chunk = pos.len().div_ceil(threads);
            std::thread::scope(|s| {
                for (oc, pc) in out.chunks_mut(chunk).zip(pos.chunks(chunk)) {
                    s.spawn(move || {
                        for (o, p) in oc.iter_mut().zip(pc) {
                            *o = encode(p);
                        }
                    });
                }
            });
        }
        out
    }
}

/// A Morton-quantized point set with its sorted order.
#[derive(Debug, Clone)]
pub struct MortonOrdered {
    /// The frame the codes were quantized on.
    pub frame: MortonFrame,
    /// Morton code per input particle (input order).
    pub codes: Vec<u64>,
    /// Particle indices sorted ascending by `(code, index)`.
    pub order: Vec<u32>,
}

/// Quantize and sort a point set in one call — the step both the octree
/// build and the domain decomposition start from.
///
/// # Panics
/// On non-finite positions.
pub fn morton_order(pos: &[Vec3]) -> MortonOrdered {
    let frame = MortonFrame::for_points(pos);
    let codes = frame.codes(pos);
    let order = sort_indices(&codes);
    MortonOrdered { frame, codes, order }
}

/// Quantize and sort a point set, seeding the sort with the order from
/// a previous step of the same particles ([`sort_indices_incremental`]).
/// Falls back to a from-scratch sort when the hint does not match the
/// point count; the result is always identical to [`morton_order`].
///
/// # Panics
/// On non-finite positions.
pub fn morton_order_incremental(pos: &[Vec3], prev_order: &[u32]) -> MortonOrdered {
    let frame = MortonFrame::for_points(pos);
    let codes = frame.codes(pos);
    let order = sort_indices_incremental(&codes, prev_order);
    MortonOrdered { frame, codes, order }
}

/// Fraction of displaced elements above which the incremental merge
/// abandons the hint and re-sorts from scratch: past ~25% displaced the
/// spill sort plus full merge costs more than one radix pass.
const INCREMENTAL_MAX_SPILL_NUM: usize = 1;
const INCREMENTAL_MAX_SPILL_DEN: usize = 4;

/// Indices `0..codes.len()` sorted ascending by `(code, index)`,
/// reusing a previous sorted order of the *same index set* as a hint.
///
/// Between tree rebuilds only a small fraction of particles drift
/// across a Morton-cell boundary, so the previous order is almost
/// sorted under the new codes. One scan peels it into a non-decreasing
/// backbone (kept in place) and a spill of displaced indices; the spill
/// is sorted on its own and linearly merged back. Because `(code,
/// index)` keys are unique, the sorted total order is unique — any
/// correct merge is bitwise identical to a from-scratch
/// [`sort_indices`], which is what the referee proptests pin.
///
/// A hint whose length does not match, or a spill larger than ~n/4
/// (heavy drift), falls back to the full radix sort. The hint must be a
/// permutation of `0..codes.len()` (any previous sort of the same
/// particle set is); a malformed hint is rejected by length where
/// cheap, and debug-asserted otherwise.
pub fn sort_indices_incremental(codes: &[u64], prev_order: &[u32]) -> Vec<u32> {
    let n = codes.len();
    if prev_order.len() != n || n <= 1 {
        return sort_indices(codes);
    }
    debug_assert!(
        {
            let mut seen = vec![false; n];
            prev_order
                .iter()
                .all(|&i| (i as usize) < n && !std::mem::replace(&mut seen[i as usize], true))
        },
        "incremental sort hint is not a permutation"
    );
    let mut backbone: Vec<u32> = Vec::with_capacity(n);
    let mut spill: Vec<u32> = Vec::new();
    let mut last: (u64, u32) = (0, 0);
    let mut have_last = false;
    for &i in prev_order {
        let key = (codes[i as usize], i);
        if !have_last || last <= key {
            backbone.push(i);
            last = key;
            have_last = true;
        } else {
            spill.push(i);
        }
    }
    if spill.is_empty() {
        return backbone;
    }
    if spill.len() * INCREMENTAL_MAX_SPILL_DEN > n * INCREMENTAL_MAX_SPILL_NUM {
        return sort_indices(codes);
    }
    spill.sort_unstable_by_key(|&i| (codes[i as usize], i));
    // Linear merge of two sorted runs over disjoint unique keys.
    let mut out: Vec<u32> = Vec::with_capacity(n);
    let (mut a, mut b) = (0usize, 0usize);
    while a < backbone.len() && b < spill.len() {
        let ka = (codes[backbone[a] as usize], backbone[a]);
        let kb = (codes[spill[b] as usize], spill[b]);
        if ka <= kb {
            out.push(backbone[a]);
            a += 1;
        } else {
            out.push(spill[b]);
            b += 1;
        }
    }
    out.extend_from_slice(&backbone[a..]);
    out.extend_from_slice(&spill[b..]);
    out
}

/// Indices `0..codes.len()` sorted ascending by `(code, index)` via the
/// radix pipeline (serial MSD hybrid or threaded LSD).
pub fn sort_indices(codes: &[u64]) -> Vec<u32> {
    sort_indices_with_threads(codes, worker_count(codes.len()))
}

/// Comparison-sort reference for [`sort_indices`]: same `(code, index)`
/// total order through `sort_unstable_by_key`: the referee of the radix
/// tests and the MSD path's sort for inputs below `MSD_MIN_N`.
fn sort_indices_comparison(codes: &[u64]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..codes.len() as u32).collect();
    order.sort_unstable_by_key(|&i| (codes[i as usize], i));
    order
}

/// How many worker threads an `n`-element pass is worth, of the cores
/// this caller may use ([`crate::cores::share`]).
fn worker_count(n: usize) -> usize {
    const MIN_PER_THREAD: usize = 1 << 14;
    crate::cores::share().min(n.div_ceil(MIN_PER_THREAD)).max(1)
}

/// A raw pointer the scatter phase may send across scoped threads.
#[derive(Clone, Copy)]
struct SendPtr(*mut (u64, u32));
// SAFETY: the pointee is plain `(u64, u32)` data with no thread
// affinity, and the wrapper only moves the address: every dereference
// is an `unsafe` write at the single use site
// (`sort_indices_with_threads`, phase 2), which argues — and
// debug-asserts — that the slots written through different copies are
// disjoint and inside a buffer that outlives the thread scope.
unsafe impl Send for SendPtr {}

/// Digit width. 11 bits is the measured sweet spot at the headline
/// N = 262144: the 2048 scatter destinations keep only 128 KiB of
/// output lines hot (L2-resident), the LSD path covers all 64 key bits
/// in 6 passes, and the MSD path's buckets average `n / 2048` elements
/// — small enough that the finishing comparison sorts run in L1.
const DIGIT_BITS: u32 = 11;
const RADIX: usize = 1 << DIGIT_BITS;
const DIGIT_MASK: u64 = RADIX as u64 - 1;
const PASSES: u32 = u64::BITS.div_ceil(DIGIT_BITS);

fn digit_histogram(part: &[(u64, u32)], shift: u32) -> Box<[u32; RADIX]> {
    let mut h = vec![0u32; RADIX].into_boxed_slice();
    for &(c, _) in part {
        h[((c >> shift) & DIGIT_MASK) as usize] += 1;
    }
    h.try_into().expect("histogram length is RADIX")
}

/// Below this the MSD bucket machinery (two 8 KiB histograms to zero,
/// a 2048-way fan-out over a handful of elements) costs more than it
/// saves; `sort_unstable` on the whole input is already cache-resident.
const MSD_MIN_N: usize = 512;

/// Buckets larger than this get a second 11-bit scatter before the
/// comparison finish. Plummer-clustered codes concentrate ~12% of the
/// particles in one top-digit cell; one extra level caps the
/// partitioner depth at `log₂(BIG)` instead of `log₂(n)`.
const MSD_BIG_BUCKET: usize = 8192;

/// A grow-only tuple buffer on its own 2 MiB-aligned allocation.
///
/// The scatter writes this buffer through 2048 bucket cursors at once,
/// and that access pattern turned out to be acutely sensitive to where
/// the block lands: the same sort measured ~65% slower when the
/// scratch was first allocated late in a long-running harness (malloc
/// arena placement) than when it came from a fresh heap (dedicated
/// mapping). Requesting 2 MiB alignment forces the allocator to carve
/// a dedicated mapping regardless of the arena's history, which makes
/// the sort's speed independent of what the surrounding process did
/// first. Freshly grown memory is zeroed once so the handed-out slice
/// is always initialized; every sort overwrites it anyway (the scatter
/// ranges tile `[0, n)`).
struct TupleBuf {
    ptr: std::ptr::NonNull<(u64, u32)>,
    cap: usize,
}

impl TupleBuf {
    const ALIGN: usize = 2 << 20;

    const fn new() -> TupleBuf {
        TupleBuf { ptr: std::ptr::NonNull::dangling(), cap: 0 }
    }

    fn layout(cap: usize) -> std::alloc::Layout {
        std::alloc::Layout::from_size_align(cap * size_of::<(u64, u32)>(), TupleBuf::ALIGN)
            .expect("tuple buffer layout")
    }

    /// A `&mut [(u64, u32)]` of length `n`, reusing the allocation when
    /// it is already big enough.
    fn ensure(&mut self, n: usize) -> &mut [(u64, u32)] {
        if n > self.cap {
            if self.cap > 0 {
                // SAFETY: `cap > 0` only ever holds together with a
                // `ptr` that `alloc_zeroed` below returned for
                // `layout(cap)` (both are set in one place and `new`
                // starts at 0), so pointer and layout match the
                // allocation; `cap` is zeroed before the re-allocation
                // can unwind, so `Drop` cannot free it a second time.
                unsafe { std::alloc::dealloc(self.ptr.as_ptr().cast(), TupleBuf::layout(self.cap)) }
                self.cap = 0;
            }
            let cap = n.next_power_of_two();
            let layout = TupleBuf::layout(cap);
            debug_assert!(layout.size() >= size_of::<(u64, u32)>(), "zero-sized tuple buffer");
            // SAFETY: `n > self.cap >= 0` gives `cap >= n >= 1`, so the
            // layout has non-zero size (asserted above); a null return
            // is handled on the next line.
            let raw = unsafe { std::alloc::alloc_zeroed(layout) };
            self.ptr = std::ptr::NonNull::new(raw.cast())
                .unwrap_or_else(|| std::alloc::handle_alloc_error(layout));
            self.cap = cap;
        }
        debug_assert!(n <= self.cap, "tuple buffer of {} asked for {n}", self.cap);
        // SAFETY: for `n > 0`, `ptr` is one live allocation of
        // `cap >= n` tuples (asserted), 2 MiB-aligned, zeroed when it
        // was made and only ever written with whole tuples since — so
        // `n` initialized elements; for `n == 0` a dangling aligned
        // pointer is a valid empty slice. The slice borrows `self`
        // mutably, so nothing else reaches the block while it lives.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), n) }
    }
}

impl Drop for TupleBuf {
    fn drop(&mut self) {
        if self.cap > 0 {
            // SAFETY: `cap > 0` means `ptr` is the block `ensure` got
            // from `alloc_zeroed(layout(cap))` and has not freed (it
            // zeroes `cap` when it does); `layout` is a pure function of
            // `cap`, so this is that allocation's layout, and `drop`
            // runs once.
            unsafe { std::alloc::dealloc(self.ptr.as_ptr().cast(), TupleBuf::layout(self.cap)) }
        }
    }
}

/// Reusable tuple buffers for the serial MSD path.
///
/// A sort at the headline N touches ~4 MB of scratch; allocating it
/// fresh every call means a page-fault storm whenever the surrounding
/// process has fragmented the heap (measured: +40% sort time inside
/// the host harness vs a standalone probe). The tree build runs this
/// sort every step, so the scratch is kept thread-local and reused —
/// same recycling discipline as the traversal plan buffers.
struct SerialScratch {
    /// The bucketed `(code, index)` tuples.
    buf: TupleBuf,
    /// Staging copy for second-level scatters of oversized buckets.
    sub: TupleBuf,
}

thread_local! {
    static SERIAL_SCRATCH: std::cell::RefCell<SerialScratch> =
        const { std::cell::RefCell::new(SerialScratch { buf: TupleBuf::new(), sub: TupleBuf::new() }) };
}

/// Serial MSD hybrid: scatter on the top 11 varying key bits, re-split
/// oversized buckets once, comparison-sort the rest.
///
/// Digits are taken from `code << lead` (the leading bits every code
/// agrees on are shifted away), so the top digit always spans actually
/// varying bits. Bucket membership is monotone in the code, each bucket
/// is a contiguous range of the final order, and within a bucket the
/// `(code, index)` tuples are unique — `sort_unstable` on them yields
/// exactly the stable `(code, index)` total order the LSD path and the
/// comparison referee produce. A bucket that still exceeds
/// [`MSD_BIG_BUCKET`] after the second scatter just falls back to the
/// `O(len log len)` finish — correct, merely slower, and unreachable
/// from 63-bit Morton codes at the problem sizes the tree feeds.
fn sort_serial_msd(codes: &[u64], diff: u64) -> Vec<u32> {
    SERIAL_SCRATCH.with(|cell| sort_serial_msd_with(codes, diff, &mut cell.borrow_mut()))
}

fn sort_serial_msd_with(codes: &[u64], diff: u64, scratch: &mut SerialScratch) -> Vec<u32> {
    let n = codes.len();
    if diff == 0 {
        // Every code equal: the (code, index) order is the identity.
        return (0..n as u32).collect();
    }
    if n < MSD_MIN_N {
        return sort_indices_comparison(codes);
    }
    let lead = diff.leading_zeros();
    let top = u64::BITS - DIGIT_BITS; // digit 0: bits 53..64 of code << lead
    let sub_shift = u64::BITS - 2 * DIGIT_BITS; // digit 1: bits 42..53
    let mut hist = [0u32; RADIX];
    for &c in codes {
        hist[((c << lead) >> top) as usize] += 1;
    }
    // Exclusive prefix: offs[d]..offs[d + 1] is bucket d's slot range.
    let mut offs = [0u32; RADIX + 1];
    let mut sum = 0u32;
    for (o, &h) in offs.iter_mut().zip(hist.iter()) {
        *o = sum;
        sum += h;
    }
    offs[RADIX] = sum;
    let SerialScratch { buf, sub } = scratch;
    let buf = buf.ensure(n);
    {
        let mut cur = offs;
        let bufp = buf.as_mut_ptr();
        for (i, &c) in codes.iter().enumerate() {
            let d = ((c << lead) >> top) as usize;
            debug_assert!(cur[d] < offs[d + 1], "digit {d} overran its slot range");
            // SAFETY: `hist` counted exactly these digits over exactly
            // these codes, so digit d is met `hist[d]` times and
            // `cur[d]` walks `offs[d]..offs[d + 1]` without reaching
            // its end (asserted); the ranges tile `[0, n)` and `buf`
            // is `n` long, so the write is in bounds. `bufp` is the
            // only path to `buf` inside this block.
            unsafe { bufp.add(cur[d] as usize).write((c, i as u32)) };
            cur[d] += 1;
        }
    }
    for d in 0..RADIX {
        let bucket = &mut buf[offs[d] as usize..offs[d + 1] as usize];
        if bucket.len() <= 1 {
            continue;
        }
        if bucket.len() <= MSD_BIG_BUCKET {
            bucket.sort_unstable();
            continue;
        }
        // Second level: stable 11-bit scatter within the bucket (the
        // staging copy preserves input order), then finish each
        // sub-bucket.
        let mut h2 = [0u32; RADIX];
        for &(c, _) in bucket.iter() {
            h2[(((c << lead) >> sub_shift) & DIGIT_MASK) as usize] += 1;
        }
        let mut o2 = [0u32; RADIX];
        let mut s2 = 0u32;
        for (o, &h) in o2.iter_mut().zip(h2.iter()) {
            *o = s2;
            s2 += h;
        }
        let sub = sub.ensure(bucket.len());
        sub.copy_from_slice(bucket);
        for &(c, i) in sub.iter() {
            let d2 = (((c << lead) >> sub_shift) & DIGIT_MASK) as usize;
            bucket[o2[d2] as usize] = (c, i);
            o2[d2] += 1;
        }
        let mut start = 0usize;
        for &len2 in h2.iter() {
            let len2 = len2 as usize;
            if len2 > 1 {
                bucket[start..start + len2].sort_unstable();
            }
            start += len2;
        }
    }
    buf.iter().map(|&(_, i)| i).collect()
}

/// Exclusive prefix sum in (digit-major, chunk-minor) order:
/// `hists[t][d]` becomes the first output slot for chunk t's digit-d
/// elements, which makes the scatter stable.
fn prefix_sum(hists: &mut [Box<[u32; RADIX]>]) {
    let mut sum = 0u32;
    for d in 0..RADIX {
        for h in hists.iter_mut() {
            let c = h[d];
            h[d] = sum;
            sum += c;
        }
    }
}

pub(crate) fn sort_indices_with_threads(codes: &[u64], threads: usize) -> Vec<u32> {
    let n = codes.len();
    assert!(n <= u32::MAX as usize, "point count exceeds u32 index space");
    if n <= 1 {
        return (0..n as u32).collect();
    }
    // Digits where every code agrees would be stable identity passes —
    // find them once and skip them.
    let first = codes[0];
    let mut diff = 0u64;
    for &c in codes {
        diff |= c ^ first;
    }
    let threads = threads.clamp(1, 64).min(n);
    if threads == 1 {
        return sort_serial_msd(codes, diff);
    }
    let chunk = n.div_ceil(threads);
    let mut src: Vec<(u64, u32)> = codes.iter().enumerate().map(|(i, &c)| (c, i as u32)).collect();
    let mut dst: Vec<(u64, u32)> = vec![(0, 0); n];
    for pass in 0..PASSES {
        let shift = pass * DIGIT_BITS;
        if (diff >> shift) & DIGIT_MASK == 0 {
            continue;
        }
        // Phase 1: one histogram per thread chunk (chunk contents
        // change every pass, so these cannot be hoisted like the
        // serial path's).
        let mut hists: Vec<Box<[u32; RADIX]>> = std::thread::scope(|s| {
            let handles: Vec<_> =
                src.chunks(chunk).map(|ch| s.spawn(move || digit_histogram(ch, shift))).collect();
            handles.into_iter().map(|h| h.join().expect("histogram worker panicked")).collect()
        });
        prefix_sum(&mut hists);
        // Phase 2: scatter. Each (chunk, digit) pair owns the disjoint
        // slot range [offset, offset + count), so concurrent writes
        // never alias.
        let dstp = SendPtr(dst.as_mut_ptr());
        std::thread::scope(|s| {
            for (ch, offs) in src.chunks(chunk).zip(hists) {
                let mut offs = offs;
                s.spawn(move || {
                    let dstp = dstp;
                    for &(c, i) in ch {
                        let d = ((c >> shift) & DIGIT_MASK) as usize;
                        debug_assert!((offs[d] as usize) < n, "scatter slot past the buffer");
                        // SAFETY: after `prefix_sum`, `offs[d]` is the
                        // first slot of this chunk's digit-d run, and
                        // the runs of all (chunk, digit) pairs are
                        // disjoint and tile `[0, n)`: each is as long
                        // as its histogram count, which phase 1 took
                        // over this very chunk at this shift. So the
                        // slot is inside `dst` (`n` long, asserted),
                        // no other thread writes it, nothing reads
                        // `dst` before the scope has joined, and `dst`
                        // outlives the scope.
                        unsafe { *dstp.0.add(offs[d] as usize) = (c, i) };
                        offs[d] += 1;
                    }
                });
            }
        });
        std::mem::swap(&mut src, &mut dst);
    }
    src.iter().map(|&(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn check(codes: &[u64]) {
        let want = sort_indices_comparison(codes);
        assert_eq!(sort_indices(codes), want, "radix != comparison on n={}", codes.len());
        for t in 1..=4 {
            assert_eq!(sort_indices_with_threads(codes, t), want, "threads={t}");
        }
    }

    #[test]
    fn radix_matches_comparison_on_edge_sizes() {
        for n in [0usize, 1, 2, 3, 255, 256, 257, 1000] {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(n as u64);
            let codes: Vec<u64> = (0..n).map(|_| rng.random::<u64>() >> 1).collect();
            check(&codes);
        }
    }

    #[test]
    fn radix_matches_comparison_on_degenerate_keys() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        // heavy duplicates: 4 distinct codes over 10k elements
        let dup: Vec<u64> = (0..10_000).map(|_| rng.random_range(0u64..4) << 40).collect();
        check(&dup);
        // all equal → every pass skipped, order must be identity
        let same = vec![0xABCDu64; 513];
        assert_eq!(sort_indices(&same), (0..513u32).collect::<Vec<_>>());
        // pre-sorted and reverse-sorted
        let sorted: Vec<u64> = (0..2000u64).collect();
        check(&sorted);
        let rev: Vec<u64> = (0..2000u64).rev().collect();
        check(&rev);
        // only high bytes vary (low passes all skipped)
        let high: Vec<u64> =
            (0..3000).map(|_| (rng.random::<u64>() >> 1) & !0xFFFF_FFFFu64).collect();
        check(&high);
    }

    #[test]
    fn stability_breaks_ties_by_index() {
        let codes = [5u64, 1, 5, 1, 5, 1];
        assert_eq!(sort_indices(&codes), vec![1, 3, 5, 0, 2, 4]);
    }

    #[test]
    fn frame_codes_round_trip_through_order() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        let pos: Vec<Vec3> = (0..4096)
            .map(|_| {
                Vec3::new(
                    rng.random_range(-3.0..3.0),
                    rng.random_range(-3.0..3.0),
                    rng.random_range(-3.0..3.0),
                )
            })
            .collect();
        let m = morton_order(&pos);
        assert_eq!(m.codes.len(), pos.len());
        assert_eq!(m.order.len(), pos.len());
        // order is a permutation sorted by (code, index)
        let mut seen = vec![false; pos.len()];
        for w in m.order.windows(2) {
            let (a, b) = (w[0], w[1]);
            let (ca, cb) = (m.codes[a as usize], m.codes[b as usize]);
            assert!(ca < cb || (ca == cb && a < b));
        }
        for &i in &m.order {
            assert!(!std::mem::replace(&mut seen[i as usize], true));
        }
    }

    /// Quick A/B probe at the headline size (the A/B of record is
    /// EXPERIMENTS.md E11, `BENCH_pr19.json`; g5spine's
    /// `morton_sort.ns_per_key` tracks the radix path):
    /// `cargo test -p g5util --release -- --ignored radix_probe --nocapture`.
    #[test]
    #[ignore = "perf probe, run manually in release"]
    fn radix_probe_beats_comparison_at_headline_n() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(262_144);
        let codes: Vec<u64> = (0..262_144).map(|_| rng.random::<u64>() >> 1).collect();
        let time = |f: &dyn Fn() -> Vec<u32>| {
            let mut best = f64::INFINITY;
            for _ in 0..5 {
                let t0 = std::time::Instant::now();
                let got = f();
                best = best.min(t0.elapsed().as_secs_f64());
                assert_eq!(got.len(), codes.len());
            }
            best
        };
        let radix = time(&|| sort_indices(&codes));
        let comparison = time(&|| sort_indices_comparison(&codes));
        println!(
            "radix {:.2} ms vs comparison {:.2} ms ({:.2}x)",
            radix * 1e3,
            comparison * 1e3,
            comparison / radix
        );
        assert_eq!(sort_indices(&codes), sort_indices_comparison(&codes));
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_positions_are_rejected() {
        let pos = vec![Vec3::new(0.0, 0.0, 0.0), Vec3::new(f64::NAN, 0.0, 0.0)];
        let frame = MortonFrame::for_points(&[Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0)]);
        let _ = frame.codes(&pos);
    }

    #[test]
    fn incremental_identity_when_nothing_drifts() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let codes: Vec<u64> = (0..5000).map(|_| rng.random::<u64>() >> 1).collect();
        let prev = sort_indices(&codes);
        // unchanged codes: the backbone is the whole hint, no merge
        assert_eq!(sort_indices_incremental(&codes, &prev), prev);
    }

    #[test]
    fn incremental_matches_scratch_under_light_drift() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(12);
        let mut codes: Vec<u64> = (0..20_000).map(|_| rng.random::<u64>() >> 1).collect();
        let prev = sort_indices(&codes);
        // drift 2% of the particles to arbitrary new cells
        for _ in 0..400 {
            let k = rng.random_range(0..codes.len());
            codes[k] = rng.random::<u64>() >> 1;
        }
        assert_eq!(sort_indices_incremental(&codes, &prev), sort_indices_comparison(&codes));
    }

    #[test]
    fn incremental_falls_back_on_heavy_drift_and_bad_hints() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(13);
        let codes: Vec<u64> = (0..4000).map(|_| rng.random::<u64>() >> 1).collect();
        let want = sort_indices_comparison(&codes);
        // reversed hint: nearly everything spills → from-scratch fallback
        let mut rev = sort_indices(&codes);
        rev.reverse();
        assert_eq!(sort_indices_incremental(&codes, &rev), want);
        // length-mismatched hint is rejected up front
        assert_eq!(sort_indices_incremental(&codes, &[0, 1, 2]), want);
        assert_eq!(sort_indices_incremental(&codes, &[]), want);
    }

    #[test]
    fn incremental_handles_radix_bucket_boundaries() {
        // codes sitting exactly on top-digit bucket edges (d << 53 and
        // its predecessor) for every 11-bit digit, shuffled, with a hint
        // from a drifted predecessor — exercises bucket 0, bucket 2047,
        // and every boundary in between through both code paths.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(14);
        let mut codes: Vec<u64> = Vec::new();
        for d in 0..RADIX as u64 {
            let edge = d << (u64::BITS - DIGIT_BITS);
            codes.push(edge);
            codes.push(edge.saturating_sub(1));
            codes.push(edge | rng.random_range(0..1u64 << 40));
        }
        let prev = sort_indices(&codes);
        for _ in 0..100 {
            let k = rng.random_range(0..codes.len());
            codes[k] = rng.random::<u64>() >> 1;
        }
        assert_eq!(sort_indices_incremental(&codes, &prev), sort_indices_comparison(&codes));
    }

    #[test]
    fn incremental_through_oversized_bucket_second_level() {
        // all codes share the top digit, so the serial MSD path (used
        // both for the hintless reference and the heavy-drift fallback)
        // funnels > MSD_BIG_BUCKET elements into one bucket and takes
        // the second-level scatter.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(15);
        let top = 7u64 << (u64::BITS - DIGIT_BITS - 3);
        let mut codes: Vec<u64> =
            (0..MSD_BIG_BUCKET + 4096).map(|_| top | rng.random_range(0..1u64 << 42)).collect();
        let prev = sort_indices(&codes);
        assert_eq!(prev, sort_indices_comparison(&codes), "oversized-bucket scratch sort");
        for _ in 0..256 {
            let k = rng.random_range(0..codes.len());
            codes[k] = top | rng.random_range(0..1u64 << 42);
        }
        assert_eq!(sort_indices_incremental(&codes, &prev), sort_indices_comparison(&codes));
    }

    #[test]
    fn morton_order_incremental_matches_from_scratch() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(16);
        let mut pos: Vec<Vec3> = (0..3000)
            .map(|_| {
                Vec3::new(
                    rng.random_range(-2.0..2.0),
                    rng.random_range(-2.0..2.0),
                    rng.random_range(-2.0..2.0),
                )
            })
            .collect();
        let prev = morton_order(&pos);
        for p in &mut pos {
            *p += Vec3::new(
                rng.random_range(-0.01..0.01),
                rng.random_range(-0.01..0.01),
                rng.random_range(-0.01..0.01),
            );
        }
        let inc = morton_order_incremental(&pos, &prev.order);
        let scratch = morton_order(&pos);
        assert_eq!(inc.order, scratch.order);
        assert_eq!(inc.codes, scratch.codes);
        assert_eq!(inc.frame, scratch.frame);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn radix_is_comparison_sort(codes in proptest::collection::vec(any::<u64>(), 0..2000)) {
            prop_assert_eq!(sort_indices(&codes), sort_indices_comparison(&codes));
        }

        #[test]
        fn forced_thread_counts_agree(codes in proptest::collection::vec(any::<u64>(), 0..800), t in 1usize..6) {
            prop_assert_eq!(sort_indices_with_threads(&codes, t), sort_indices_comparison(&codes));
        }

        /// Partially-drifted inputs: mutate a random subset of the codes
        /// after taking the hint. Whatever the drift pattern (including
        /// none, and including enough to trip the fallback), the
        /// incremental order must equal the from-scratch stable
        /// (code, index) order.
        #[test]
        fn incremental_is_from_scratch_sort(
            codes in proptest::collection::vec(any::<u64>(), 1..1500),
            drifts in proptest::collection::vec((any::<usize>(), any::<u64>()), 0..400),
        ) {
            let prev = sort_indices(&codes);
            let mut drifted = codes;
            for (at, val) in drifts {
                let k = at % drifted.len();
                drifted[k] = val;
            }
            prop_assert_eq!(
                sort_indices_incremental(&drifted, &prev),
                sort_indices_comparison(&drifted)
            );
        }

        /// Drift restricted to top-digit bucket edges, so displaced
        /// elements land exactly on 2048-bucket boundaries of the MSD
        /// path and merge adjacent to backbone runs.
        #[test]
        fn incremental_on_bucket_boundary_drift(
            codes in proptest::collection::vec(any::<u64>(), 2..1000),
            drifts in proptest::collection::vec(
                (any::<usize>(), 0u64..(RADIX as u64), any::<bool>()),
                1..120,
            ),
        ) {
            let prev = sort_indices(&codes);
            let mut drifted = codes;
            for (at, digit, minus_one) in drifts {
                let k = at % drifted.len();
                let edge = digit << (u64::BITS - DIGIT_BITS);
                drifted[k] = if minus_one { edge.saturating_sub(1) } else { edge };
            }
            prop_assert_eq!(
                sort_indices_incremental(&drifted, &prev),
                sort_indices_comparison(&drifted)
            );
        }
    }
}
