//! Hardware-faithful lookup tables for the LNS adder.
//!
//! The real G5 chip evaluates the Gaussian-logarithm functions
//! `sb(z) = log₂(1 + 2^z)` and `db(z) = log₂(1 − 2^z)` with ROM
//! tables: the (negative) argument `z` is truncated to a limited number
//! of address bits and the stored value has the word's fraction width.
//! [`crate::lns`] models the *ideal* table (full address resolution);
//! this module models the *finite* table, so the reproduction can
//! sweep table size against pairwise force error — the trade the
//! GRAPE-3 → GRAPE-5 redesign actually made.
//!
//! Address layout: arguments in `(-range, 0]` are quantized to
//! `2^addr_bits` equal steps (nearest-step rounding); arguments at or
//! below `-range` return the asymptote (0 for `sb`, handled sign-side
//! for `db`). Stored values are rounded to `frac_bits` fractional bits.

use crate::lns::{Lns, LnsConfig};
use serde::{Deserialize, Serialize};
use std::sync::{OnceLock, RwLock};

/// A quantized Gaussian-logarithm table pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaussLogTable {
    /// Number of address bits (table has `2^addr_bits` entries).
    pub addr_bits: u32,
    /// Fraction bits of the stored values.
    pub frac_bits: u32,
    /// Argument range covered: `z ∈ (-range, 0]`.
    pub range: f64,
    sb: Vec<f64>,
    db: Vec<f64>,
}

impl GaussLogTable {
    /// Build the ROM contents.
    ///
    /// # Panics
    /// On zero sizes or a non-positive range.
    pub fn new(addr_bits: u32, frac_bits: u32, range: f64) -> GaussLogTable {
        assert!((1..=24).contains(&addr_bits), "address bits {addr_bits} out of 1..=24");
        assert!(frac_bits <= 32, "fraction bits too large");
        assert!(range > 0.0, "non-positive table range");
        let n = 1usize << addr_bits;
        let step = range / n as f64;
        let quant = (frac_bits as f64).exp2();
        let round = |x: f64| (x * quant).round() / quant;
        let mut sb = Vec::with_capacity(n);
        let mut db = Vec::with_capacity(n);
        for i in 0..n {
            // table entry i covers z = -(i + 0.5) * step (cell center)
            let z = -((i as f64 + 0.5) * step);
            sb.push(round((1.0 + z.exp2()).log2()));
            // db is singular at z = 0; the first cell's center is already
            // away from the pole, matching the hardware's special-casing
            // of exact cancellation upstream of the table.
            db.push(round((1.0 - z.exp2()).log2()));
        }
        GaussLogTable { addr_bits, frac_bits, range, sb, db }
    }

    /// Table size in entries.
    pub fn len(&self) -> usize {
        self.sb.len()
    }

    /// `true` if the table has no entries (never: construction demands ≥ 2).
    pub fn is_empty(&self) -> bool {
        self.sb.is_empty()
    }

    #[inline]
    fn index(&self, z: f64) -> Option<usize> {
        debug_assert!(z <= 0.0, "table argument must be non-positive");
        if z <= -self.range {
            return None; // asymptotic region
        }
        let n = self.sb.len();
        let i = ((-z) / self.range * n as f64) as usize;
        Some(i.min(n - 1))
    }

    /// Table lookup of `sb(z) = log₂(1 + 2^z)` for `z ≤ 0`.
    /// Beyond the covered range the asymptote 0 is returned.
    #[inline]
    pub fn sb(&self, z: f64) -> f64 {
        match self.index(z) {
            Some(i) => self.sb[i],
            None => 0.0,
        }
    }

    /// Table lookup of `db(z) = log₂(1 − 2^z)` for `z < 0`.
    /// Beyond the covered range the asymptote 0 is returned.
    #[inline]
    pub fn db(&self, z: f64) -> f64 {
        match self.index(z) {
            Some(i) => self.db[i],
            None => 0.0,
        }
    }

    /// Worst-case absolute error of the `sb` lookup against the exact
    /// function, probed at `samples` points — used by the table-size
    /// ablation.
    pub fn sb_max_error(&self, samples: usize) -> f64 {
        assert!(samples > 1, "need at least two samples");
        let mut worst = 0.0f64;
        for s in 0..samples {
            let z = -(s as f64 + 0.5) / samples as f64 * self.range;
            let exact = (1.0 + z.exp2()).log2();
            worst = worst.max((self.sb(z) - exact).abs());
        }
        worst
    }
}

// ---------------------------------------------------------------------
// Table-driven format converters and integer adder tables
// ---------------------------------------------------------------------

/// Sentinel marking an adder-table entry whose rounding sits too close
/// to a half-integer to be hoisted out of the per-operand `f64` sum;
/// lookups hitting it fall back to the formula path.
const FALLBACK: i64 = i64::MIN;

/// Sentinel mantissa for "no breakpoint": far outside the 52-bit
/// mantissa range, so neither the `>=` classification nor the guard
/// distance can ever trigger on it.
const NO_BP: i64 = i64::MAX / 4;

/// Half-width (in mantissa ulps) of the guard band around each encoder
/// breakpoint. Within the band the encoder defers to `f64::log2`; the
/// band is ~180× wider than the worst-case zone where a ≤few-ulp `log2`
/// error could flip the rounded log word, so outside it the table and
/// the libm reference provably agree.
const ENC_GUARD: u64 = 1 << 16;

/// In-cell resolution of the packed lane encoder: the breakpoint
/// offset is kept to this many bits (plus one guard bit).
const LANE_OFF_BITS: u32 = 18;
/// Bit position of the `K` field in a packed lane encoder cell.
const LANE_K_SHIFT: u32 = LANE_OFF_BITS + 1;
const MANT_MASK: u64 = (1 << 52) - 1;

/// One mantissa cell of the encoder table.
#[derive(Clone, Copy)]
struct EncCell {
    /// Log-word fraction at the cell's left edge.
    k_lo: i64,
    /// Mantissa threshold where the fraction steps to `k_lo + 1`
    /// (`NO_BP` when the cell contains no breakpoint).
    bp: i64,
    /// Nearest breakpoint for the guard-band test (`NO_BP` when none is
    /// within reach of this cell).
    near_bp: i64,
}

/// Table-driven LNS format converters plus integer Gaussian-log adder
/// tables for one [`LnsConfig`] — the ROM set a real G5 input/output
/// stage carries, built once per format and shared process-wide.
///
/// Every lookup is constructed to reproduce the `f64`-formula reference
/// ([`LnsConfig::encode_libm`], [`Lns::to_f64`], [`Lns::add`]) bit for
/// bit: the decoder and adder tables memoize the reference computation
/// per word / per operand distance, and the encoder's breakpoints are
/// binary-searched against the reference with a guard-band fallback
/// where rounding ties could otherwise flip a word.
pub struct LnsConvTables {
    cfg: LnsConfig,
    raw_min: i64,
    raw_max: i64,
    cell_shift: u32,
    cells: Vec<EncCell>,
    dec: DecodeRom,
    /// `round(sb(-d·q)·2^f)` per raw operand distance `d`.
    sb: Vec<i64>,
    /// `round(db(-d·q)·2^f)` per raw operand distance `d` (entry 0 unused).
    db: Vec<i64>,
    /// Lane-friendly images of the encoder and `sb` ROMs (present when
    /// the decoder factors and no `sb` entry is a `FALLBACK`).
    lane: Option<LaneImages>,
}

/// The decoder ROM. `2^(raw·q)` factors as `2^e · 2^(i·q)` with
/// `raw = (e << f) + i`, so a `2^f`-entry mantissa table plus an
/// exponent field replaces the full-word memo — 2 KB instead of 2 MB
/// for the GRAPE-5 format, and `2^f` instead of `2^18` `exp2` calls to
/// build. The factored form is checked against the reference at build
/// time on a sample of words (and exhaustively by
/// `decode_table_exhaustive_vs_reference`); a format that fails the
/// check keeps the full memo.
enum DecodeRom {
    /// Mantissa-fraction bits of `2^(i·q)` for `i < 2^f`; the biased
    /// exponent `(raw >> f) + 1023` is OR-ed in above them.
    Factored(Vec<u64>),
    /// Decoded magnitude per raw word, indexed by `raw - raw_min`.
    Full(Vec<f64>),
}

/// Owned storage behind [`LnsLaneRoms`].
struct LaneImages {
    enc_cells: Vec<u32>,
    sb: Vec<i32>,
}

/// The converter ROMs in the layouts a lane kernel gathers from: every
/// field is a small integer or a flat slice, and every lookup is an
/// unconditional indexed load (flagging, never branching, on the inputs
/// that need the full-precision path).
///
/// * **Encoder** — `f64` bits `>> enc_shift` leave `[cell | offset]` in
///   the low `frac_bits + 1 + 18` bits: the mantissa-cell index and the
///   top 18 bits of the in-cell offset. `enc_cells[cell]` packs
///   `K << 19 | T`: with `o = offset + 1`, the log-word fraction is
///   `K − (o < T)` and the lookup needs the scalar encoder iff
///   `|o − T| ≤ 1` (one offset unit is ≥ `ENC_GUARD` mantissa ulps, so
///   that band covers the libm guard band and the one ambiguous unit).
/// * **Adder** — `sb[min(d, sb.len() − 1)]`; the last entry is the
///   asymptote 0, and no entry is an un-hoistable `FALLBACK` (a format
///   with one gets no lane ROMs; no tabulable format has been seen to).
/// * **Decoder** — output words are `raw + (1023 << frac_bits)` with
///   the sign in bit 31 and 0 for zero, so the word's high field *is*
///   the IEEE biased exponent: `dec_frac[w & (2^f − 1)] | (w >> f) << 52`.
#[derive(Debug, Clone, Copy)]
pub struct LnsLaneRoms<'a> {
    /// Fraction bits of the log word.
    pub frac_bits: u32,
    /// Smallest representable raw word.
    pub raw_min: i32,
    /// Largest representable raw word.
    pub raw_max: i32,
    /// Right shift that leaves `[cell | offset]` in the low bits.
    pub enc_shift: u32,
    /// Packed encoder cells, `2^(frac_bits + 1)` entries.
    pub enc_cells: &'a [u32],
    /// `sb` increments per operand distance, clamp-indexed.
    pub sb: &'a [i32],
    /// Mantissa-fraction bits per log-word fraction, `2^frac_bits` entries.
    pub dec_frac: &'a [u64],
}

impl LnsLaneRoms<'_> {
    /// Bias that turns a raw word into a decoder word.
    #[inline]
    pub fn word_bias(&self) -> i32 {
        1023 << self.frac_bits
    }

    /// Encode the magnitude of the `f64` with these bits: the raw log
    /// word **before** the range rules (`< raw_min` ⇒ zero, clamp at
    /// `raw_max`), and whether the lookup must be redone by
    /// [`LnsConvTables::encode`]. Valid for zero and normal inputs.
    #[inline]
    pub fn encode_word(&self, bits: u64) -> (i32, bool) {
        let hi = (bits >> 32) as u32;
        let v = (bits >> self.enc_shift) as u32;
        let cell_mask = (2u32 << self.frac_bits) - 1;
        let cell = self.enc_cells[((v >> LANE_OFF_BITS) & cell_mask) as usize];
        let o = (v & ((1 << LANE_OFF_BITS) - 1)) + 1;
        let diff = o as i32 - (cell & ((1 << LANE_K_SHIFT) - 1)) as i32;
        let k = (cell >> LANE_K_SHIFT) as i32 + (diff >> 31);
        let ebf = ((hi & 0x7ff0_0000) >> (20 - self.frac_bits)) as i32;
        (ebf + k - self.word_bias(), diff.abs() <= 1)
    }

    /// The `sb` increment for operand distance `d` (any `u32`; large
    /// distances read the asymptote).
    #[inline]
    pub fn sb_step(&self, d: u32) -> i32 {
        self.sb[(d as usize).min(self.sb.len() - 1)]
    }

    /// Decode an output word (see the type docs for its layout).
    #[inline]
    pub fn decode_word(&self, w: u32) -> f64 {
        let f = self.frac_bits;
        let frac = self.dec_frac[(w & ((1 << f) - 1)) as usize];
        let exp = u64::from((w & 0x7fff_ffff) >> f) << 52;
        f64::from_bits(frac | exp | u64::from(w >> 31) << 63)
    }
}

impl std::fmt::Debug for LnsConvTables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LnsConvTables")
            .field("cfg", &self.cfg)
            .field("cells", &self.cells.len())
            .field("dec_factored", &matches!(self.dec, DecodeRom::Factored(_)))
            .field("sb", &self.sb.len())
            .field("db", &self.db.len())
            .finish()
    }
}

/// `true` if `cfg` is small enough to tabulate (the hardware formats
/// are; pathological wide formats fall back to the formula converters).
fn tables_supported(cfg: LnsConfig) -> bool {
    let span = (cfg.exp_max as i64 - cfg.exp_min as i64 + 1) << cfg.frac_bits;
    cfg.frac_bits <= 12 && span <= (1 << 22)
}

/// Build the factored decoder ROM for `cfg`, or `None` when the format
/// does not factor: every decoded value must be a normal `f64`, and
/// `frac[i] | (e + 1023) << 52` must reproduce the reference
/// `exp2((e << f | i)·q)` on the sampled exponents (both ends of the
/// range and the words around 1.0, every fraction `i`).
fn factor_decode(cfg: LnsConfig) -> Option<Vec<u64>> {
    if cfg.exp_min < -1022 || cfg.exp_max > 1023 {
        return None;
    }
    let (f, q) = (cfg.frac_bits, cfg.quantum());
    let frac: Vec<u64> = (0..1i64 << f).map(|i| (i as f64 * q).exp2().to_bits()).collect();
    if frac.iter().any(|b| b >> 52 != 1023) {
        return None; // 2^(i·q) left [1, 2)
    }
    let frac: Vec<u64> = frac.iter().map(|b| b & MANT_MASK).collect();
    let (lo, hi) = (cfg.exp_min as i64, cfg.exp_max as i64);
    let exps = [lo, lo + 1, -1, 0, 1, hi - 1, hi];
    for e in exps.into_iter().filter(|e| (lo..=hi).contains(e)) {
        for i in 0..1i64 << f {
            let raw = (e << f) + i;
            if raw > cfg.raw_word_max() {
                break;
            }
            let want = (raw as f64 * q).exp2().to_bits();
            if want != frac[i as usize] | ((e + 1023) as u64) << 52 {
                return None;
            }
        }
    }
    Some(frac)
}

/// Pack encoder cell `c` for [`LnsLaneRoms`]: `K << 19 | T`, offsets in
/// units of `2^(cell_shift − 18)` mantissa ulps. A breakpoint at
/// in-cell offset `thr` gives `T = ⌊thr/unit⌋ + 1` and `K = k_lo + 1`,
/// so `k = K − (o < T)` steps exactly where `mant >= bp` does outside
/// the ambiguous unit. A guard-band neighbour below the cell (`thr ≤
/// 0`, already counted in `k_lo`) packs as `K = k_lo` with `T ≤ 1`, one
/// above it as `T = 2^18 + 1`; "no breakpoint in reach" is a `T` no
/// offset comes within one unit of.
fn pack_cell(c: usize, cell: &EncCell, frac_bits: u32) -> u32 {
    let cell_shift = 52 - (frac_bits + 1);
    let unit_shift = cell_shift - LANE_OFF_BITS;
    assert!(1u64 << unit_shift >= ENC_GUARD, "lane offset unit narrower than the guard band");
    assert!(cell.bp == NO_BP || cell.bp == cell.near_bp, "in-cell breakpoint is not the near one");
    let (k, t) = if cell.near_bp == NO_BP {
        (cell.k_lo + 1, (1i64 << LANE_OFF_BITS) + 3)
    } else {
        let thr = cell.near_bp - ((c as i64) << cell_shift);
        let counted = i64::from(thr <= 0); // at or below the cell start: inside k_lo
        (cell.k_lo + 1 - counted, (thr >> unit_shift) + 1)
    };
    assert!((0..1 << LANE_K_SHIFT).contains(&t) && (0..1 << (32 - LANE_K_SHIFT)).contains(&k));
    (k as u32) << LANE_K_SHIFT | t as u32
}

static CONV_CACHE: OnceLock<RwLock<Vec<&'static LnsConvTables>>> = OnceLock::new();

/// The process-wide conversion-table set for `cfg`, built on first use;
/// `None` when the format is too wide to tabulate.
pub fn conv_tables(cfg: LnsConfig) -> Option<&'static LnsConvTables> {
    if !tables_supported(cfg) {
        return None;
    }
    let cache = CONV_CACHE.get_or_init(|| RwLock::new(Vec::new()));
    if let Some(t) = cache.read().unwrap().iter().find(|t| t.cfg == cfg) {
        return Some(t);
    }
    let built: &'static LnsConvTables = Box::leak(Box::new(LnsConvTables::build(cfg)));
    let mut w = cache.write().unwrap();
    if let Some(t) = w.iter().find(|t| t.cfg == cfg) {
        return Some(t); // lost a build race; the duplicate leaks once
    }
    w.push(built);
    Some(built)
}

impl LnsConvTables {
    /// The format these tables serve.
    #[inline]
    pub fn config(&self) -> LnsConfig {
        self.cfg
    }

    fn build(cfg: LnsConfig) -> LnsConvTables {
        let f = cfg.frac_bits;
        let scale = (f as f64).exp2();
        let q = cfg.quantum();
        let raw_min = cfg.raw_word_min();
        let raw_max = cfg.raw_word_max();

        // --- encoder: breakpoint mantissas against the libm reference ---
        // reference fraction word for mantissa bits at exponent 0
        let k_ref = |mant: i64| -> i64 {
            let x = f64::from_bits((1023u64 << 52) | mant as u64);
            (x.log2() * scale).round() as i64
        };
        let nk = 1i64 << f;
        let mut bps: Vec<i64> = Vec::with_capacity(nk as usize);
        for k in 1..=nk {
            let (mut lo, mut hi) = (0i64, (1i64 << 52) - 1);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if k_ref(mid) >= k {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            // libm noise can make the predicate locally non-monotone;
            // nudge to the true first crossing (any residue stays well
            // inside the guard band)
            let mut bp = lo;
            let mut fuel = 128;
            while fuel > 0 && bp > 0 && k_ref(bp - 1) >= k {
                bp -= 1;
                fuel -= 1;
            }
            fuel = 128;
            while fuel > 0 && k_ref(bp) < k {
                bp += 1;
                fuel -= 1;
            }
            bps.push(bp);
        }
        assert!(bps.windows(2).all(|w| w[0] < w[1]), "encoder breakpoints not increasing");

        let cells_bits = f + 1; // ≤ 0.73 breakpoints per cell
        let cell_shift = 52 - cells_bits;
        let width = 1i64 << cell_shift;
        let guard = ENC_GUARD as i64;
        let mut cells = Vec::with_capacity(1usize << cells_bits);
        for c in 0..(1i64 << cells_bits) {
            let s = c << cell_shift;
            let e = s + width;
            let k_lo = bps.partition_point(|&b| b <= s) as i64;
            let idx = k_lo as usize;
            let bp = match bps.get(idx) {
                Some(&b) if b < e => b,
                _ => NO_BP,
            };
            assert!(
                bps.get(idx + 1).is_none_or(|&b| b >= e),
                "two encoder breakpoints in one cell"
            );
            let ni = bps.partition_point(|&b| b < s - guard);
            let near_bp = match bps.get(ni) {
                Some(&b) if b < e + guard => b,
                _ => NO_BP,
            };
            cells.push(EncCell { k_lo, bp, near_bp });
        }

        // --- decoder: mantissa ROM + exponent field, or the full memo ---
        let dec = match factor_decode(cfg) {
            Some(frac) => DecodeRom::Factored(frac),
            None => DecodeRom::Full((raw_min..=raw_max).map(|r| (r as f64 * q).exp2()).collect()),
        };

        // --- adders: integer Gaussian-log increments per distance ---
        let round_step = |s: f64| -> i64 {
            let scaled = s * scale;
            let k = scaled.round();
            // the increment is safe to hoist only when no representable
            // operand sum can push `scaled` across a rounding boundary
            if 0.5 - (scaled - k).abs() > 1e-9 {
                k as i64
            } else {
                FALLBACK
            }
        };
        let mut sb = Vec::new();
        for d in 0..(1i64 << 21) {
            let z = (-d) as f64 * q;
            let k = round_step(z.exp2().ln_1p() / std::f64::consts::LN_2);
            sb.push(k);
            if k == 0 {
                break;
            }
        }
        assert_eq!(*sb.last().unwrap(), 0, "sb table did not reach its asymptote");
        let mut db = vec![FALLBACK];
        for d in 1..(1i64 << 21) {
            let z = (-d) as f64 * q;
            let k = round_step((-z.exp2()).ln_1p() / std::f64::consts::LN_2);
            db.push(k);
            if k == 0 {
                break;
            }
        }
        assert_eq!(*db.last().unwrap(), 0, "db table did not reach its asymptote");

        // --- lane images: the same encoder cells and sb steps, packed ---
        let lane_ok = matches!(dec, DecodeRom::Factored(_)) && !sb.contains(&FALLBACK);
        let lane = lane_ok.then(|| LaneImages {
            enc_cells: cells.iter().enumerate().map(|(c, cell)| pack_cell(c, cell, f)).collect(),
            sb: sb.iter().map(|&k| k as i32).collect(),
        });

        LnsConvTables { cfg, raw_min, raw_max, cell_shift, cells, dec, sb, db, lane }
    }

    /// The lane-friendly ROM images, when this format has them (every
    /// hardware format does).
    pub fn lane_roms(&self) -> Option<LnsLaneRoms<'_>> {
        let (lane, DecodeRom::Factored(frac)) = (self.lane.as_ref()?, &self.dec) else {
            return None;
        };
        Some(LnsLaneRoms {
            frac_bits: self.cfg.frac_bits,
            raw_min: self.raw_min as i32,
            raw_max: self.raw_max as i32,
            enc_shift: self.cell_shift - LANE_OFF_BITS,
            enc_cells: &lane.enc_cells,
            sb: &lane.sb,
            dec_frac: frac,
        })
    }

    /// Table-driven encode; bit-identical to
    /// [`LnsConfig::encode_libm`] (guard-band inputs are delegated).
    #[inline]
    pub fn encode(&self, x: f64) -> Lns {
        if x == 0.0 || x.is_nan() {
            return Lns::zero(self.cfg);
        }
        let bits = x.to_bits();
        let eb = ((bits >> 52) & 0x7ff) as i64;
        if eb == 0 || eb == 0x7ff {
            return self.cfg.encode_libm(x); // subnormal / infinite
        }
        let mant = (bits & ((1u64 << 52) - 1)) as i64;
        let cell = &self.cells[(mant >> self.cell_shift) as usize];
        if mant.abs_diff(cell.near_bp) < ENC_GUARD {
            return self.cfg.encode_libm(x);
        }
        let k = cell.k_lo + i64::from(mant >= cell.bp);
        let raw = ((eb - 1023) << self.cfg.frac_bits) + k;
        if raw < self.raw_min {
            return Lns::zero(self.cfg);
        }
        let sign: i8 = if bits >> 63 == 0 { 1 } else { -1 };
        Lns::from_raw(sign, raw.min(self.raw_max), self.cfg)
    }

    /// Table-driven decode; bit-identical to [`Lns::to_f64`] (mantissa
    /// ROM plus exponent field, see `DecodeRom`).
    #[inline]
    pub fn decode(&self, v: Lns) -> f64 {
        let s = v.signum();
        if s == 0 {
            return 0.0;
        }
        let m = match &self.dec {
            DecodeRom::Factored(frac) => {
                let f = self.cfg.frac_bits;
                let w = v.raw() + (1023 << f); // biased exponent above the fraction
                f64::from_bits(frac[(w & ((1 << f) - 1)) as usize] | ((w >> f) as u64) << 52)
            }
            DecodeRom::Full(dec) => dec[(v.raw() - self.raw_min) as usize],
        };
        if s < 0 {
            -m
        } else {
            m
        }
    }

    /// Table-driven addition; bit-identical to [`Lns::add`] (entries
    /// whose rounding cannot be hoisted fall back to the formula).
    #[inline]
    pub fn add(&self, a: Lns, b: Lns) -> Lns {
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let (hi, lo) = if a.raw() >= b.raw() { (a, b) } else { (b, a) };
        let d = (hi.raw() - lo.raw()) as usize;
        if hi.signum() == lo.signum() {
            let k = if d < self.sb.len() { self.sb[d] } else { 0 };
            if k == FALLBACK {
                return a.add(b);
            }
            let raw = hi.raw() + k;
            Lns::from_raw(hi.signum(), raw.min(self.raw_max), self.cfg)
        } else {
            if d == 0 {
                return Lns::zero(self.cfg);
            }
            let k = if d < self.db.len() { self.db[d] } else { 0 };
            if k == FALLBACK {
                return a.add(b);
            }
            let raw = hi.raw() + k;
            if raw < self.raw_min {
                return Lns::zero(self.cfg);
            }
            Lns::from_raw(hi.signum(), raw, self.cfg)
        }
    }

    #[cfg(test)]
    fn breakpoints(&self) -> Vec<i64> {
        self.cells.iter().map(|c| c.bp).filter(|&b| b != NO_BP).collect()
    }

    #[cfg(test)]
    fn adder_lens(&self) -> (usize, usize) {
        (self.sb.len(), self.db.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sb_matches_exact_function_at_high_resolution() {
        let t = GaussLogTable::new(16, 24, 16.0);
        for &z in &[-0.001f64, -0.5, -1.0, -3.7, -10.0] {
            let exact = (1.0 + z.exp2()).log2();
            assert!((t.sb(z) - exact).abs() < 1e-3, "z={z}: {} vs {exact}", t.sb(z));
        }
    }

    #[test]
    fn db_matches_exact_function_away_from_pole() {
        let t = GaussLogTable::new(16, 24, 16.0);
        for &z in &[-0.5f64, -1.0, -4.0, -12.0] {
            let exact = (1.0 - z.exp2()).log2();
            assert!((t.db(z) - exact).abs() < 1e-3, "z={z}");
        }
    }

    #[test]
    fn asymptote_beyond_range() {
        let t = GaussLogTable::new(8, 12, 8.0);
        assert_eq!(t.sb(-100.0), 0.0);
        assert_eq!(t.db(-100.0), 0.0);
        assert_eq!(t.sb(-8.0), 0.0);
    }

    #[test]
    fn error_shrinks_with_address_bits() {
        let coarse = GaussLogTable::new(6, 20, 16.0).sb_max_error(4096);
        let fine = GaussLogTable::new(12, 20, 16.0).sb_max_error(4096);
        assert!(fine < coarse / 8.0, "doubling address bits x6 must cut error: {coarse} -> {fine}");
    }

    #[test]
    fn stored_values_are_on_the_fraction_grid() {
        let t = GaussLogTable::new(6, 8, 8.0);
        let q = 256.0;
        for i in 0..t.len() {
            let v = t.sb[i] * q;
            assert!((v - v.round()).abs() < 1e-9, "entry {i} not on the grid");
        }
    }

    #[test]
    fn table_sizes() {
        assert_eq!(GaussLogTable::new(10, 8, 16.0).len(), 1024);
        assert!(!GaussLogTable::new(1, 8, 16.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of 1..=24")]
    fn zero_address_bits_rejected() {
        GaussLogTable::new(0, 8, 8.0);
    }

    #[test]
    #[should_panic(expected = "non-positive table range")]
    fn bad_range_rejected() {
        GaussLogTable::new(8, 8, 0.0);
    }
}

#[cfg(test)]
mod conv_tests {
    use super::*;

    const CFGS: [LnsConfig; 3] = [
        LnsConfig::GRAPE5,
        LnsConfig::GRAPE3,
        LnsConfig { frac_bits: 11, exp_min: -64, exp_max: 63 },
    ];

    // deterministic pseudo-random f64 bit patterns (splitmix64)
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn sweeps() -> usize {
        if cfg!(debug_assertions) {
            20_000
        } else {
            400_000
        }
    }

    fn assert_same(t: &LnsConvTables, cfg: LnsConfig, x: f64) {
        let tab = t.encode(x);
        let refv = cfg.encode_libm(x);
        assert_eq!(
            (tab.signum(), if tab.is_zero() { 0 } else { tab.raw() }),
            (refv.signum(), if refv.is_zero() { 0 } else { refv.raw() }),
            "encode divergence at x = {x:e} ({:016x}) cfg {cfg:?}",
            x.to_bits()
        );
    }

    #[test]
    fn decode_table_exhaustive_vs_reference() {
        for cfg in CFGS {
            let t = conv_tables(cfg).expect("test formats are tabulable");
            for raw in cfg.raw_word_min()..=cfg.raw_word_max() {
                for sign in [-1i8, 1] {
                    let v = Lns::from_raw(sign, raw, cfg);
                    assert_eq!(
                        t.decode(v).to_bits(),
                        v.to_f64().to_bits(),
                        "decode divergence at sign {sign} raw {raw} cfg {cfg:?}"
                    );
                }
            }
            assert_eq!(t.decode(Lns::zero(cfg)).to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn encode_specials_match_reference() {
        for cfg in CFGS {
            let t = conv_tables(cfg).unwrap();
            for x in [
                0.0,
                -0.0,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MIN_POSITIVE,
                f64::MIN_POSITIVE / 2.0, // subnormal
                f64::MAX,
                -f64::MAX,
                1.0,
                -1.0,
                1.0 + f64::EPSILON,
                1.0 - f64::EPSILON / 2.0,
            ] {
                assert_same(t, cfg, x);
            }
            for e in -700..700 {
                let x = f64::exp2(e as f64);
                assert_same(t, cfg, x);
                assert_same(t, cfg, -x);
                assert_same(t, cfg, x * 1.5);
            }
        }
    }

    #[test]
    fn encode_random_bit_patterns_match_reference() {
        let mut state = 0x5eed_u64;
        for cfg in CFGS {
            let t = conv_tables(cfg).unwrap();
            for _ in 0..sweeps() {
                // random finite f64: random sign/mantissa, exponent biased
                // toward the representable band
                let bits = splitmix(&mut state);
                let eb = 1023i64 + ((bits >> 52) as i64 % 1400) - 700;
                let eb = eb.clamp(1, 0x7fe) as u64;
                let x = f64::from_bits((bits & !(0x7ffu64 << 52)) | (eb << 52));
                assert_same(t, cfg, x);
            }
        }
    }

    #[test]
    fn encode_breakpoint_edges_match_reference() {
        // scan every mantissa in a window around each breakpoint, just
        // inside and just outside the guard band, at several exponents
        for cfg in [LnsConfig::GRAPE5, LnsConfig::GRAPE3] {
            let t = conv_tables(cfg).unwrap();
            let bps = t.breakpoints();
            assert!(bps.len() > (1 << (cfg.frac_bits - 1)) as usize);
            let window: Vec<i64> = [
                -(ENC_GUARD as i64) - 2,
                -(ENC_GUARD as i64),
                -(ENC_GUARD as i64) + 1,
                -3,
                -1,
                0,
                1,
                3,
                ENC_GUARD as i64 - 1,
                ENC_GUARD as i64,
                ENC_GUARD as i64 + 2,
            ]
            .to_vec();
            for &bp in &bps {
                for &off in &window {
                    let mant = bp + off;
                    if !(0..(1i64 << 52)).contains(&mant) {
                        continue;
                    }
                    for eb in [1i64, 512, 1023, 1024, 1534, 2046] {
                        let x = f64::from_bits(((eb as u64) << 52) | mant as u64);
                        assert_same(t, cfg, x);
                        assert_same(t, cfg, -x);
                    }
                }
            }
        }
    }

    #[test]
    fn adder_tables_exhaustive_vs_reference() {
        for cfg in [LnsConfig::GRAPE5, LnsConfig::GRAPE3] {
            let t = conv_tables(cfg).unwrap();
            let (sb_len, db_len) = t.adder_lens();
            let max_d = sb_len.max(db_len) as i64 + 64;
            let raws = [
                cfg.raw_word_min(),
                cfg.raw_word_min() + 1,
                -1,
                0,
                1,
                cfg.raw_word_max() / 2,
                cfg.raw_word_max() - 1,
                cfg.raw_word_max(),
            ];
            for d in 0..max_d {
                for hi_raw in raws {
                    let lo_raw = hi_raw - d;
                    if lo_raw < cfg.raw_word_min() {
                        continue;
                    }
                    for (sa, sb_sign) in [(1i8, 1i8), (1, -1), (-1, 1), (-1, -1)] {
                        let a = Lns::from_raw(sa, hi_raw, cfg);
                        let b = Lns::from_raw(sb_sign, lo_raw, cfg);
                        for (x, y) in [(a, b), (b, a)] {
                            let got = t.add(x, y);
                            let want = x.add(y);
                            assert_eq!(
                                (got.signum(), if got.is_zero() { 0 } else { got.raw() }),
                                (want.signum(), if want.is_zero() { 0 } else { want.raw() }),
                                "add divergence d={d} hi={hi_raw} signs=({sa},{sb_sign}) cfg {cfg:?}"
                            );
                        }
                    }
                }
            }
            // zero identities
            let a = Lns::from_raw(1, 0, cfg);
            let z = Lns::zero(cfg);
            assert_eq!(t.add(a, z), a);
            assert_eq!(t.add(z, a), a);
            assert!(t.add(z, z).is_zero());
        }
    }

    /// What the scalar encoder's range rules make of a lane raw word.
    fn lane_encode(t: &LnsConvTables, x: f64) -> Option<(i8, i64)> {
        let roms = t.lane_roms().expect("test formats have lane ROMs");
        let (raw, redo) = roms.encode_word(x.to_bits());
        if redo {
            return None;
        }
        Some(if raw < roms.raw_min {
            (0, 0)
        } else {
            (if x.is_sign_negative() { -1 } else { 1 }, i64::from(raw.min(roms.raw_max)))
        })
    }

    fn assert_lane_encode(t: &LnsConvTables, x: f64) {
        if let Some(got) = lane_encode(t, x) {
            let want = t.encode(x);
            assert_eq!(
                got,
                (want.signum(), if want.is_zero() { 0 } else { want.raw() }),
                "lane encode divergence at x = {x:e} ({:016x}) cfg {:?}",
                x.to_bits(),
                t.config()
            );
        }
    }

    #[test]
    fn lane_rom_encode_matches_table_encode_on_sweeps() {
        let mut state = 0x1a9e_u64;
        for cfg in CFGS {
            let t = conv_tables(cfg).unwrap();
            // specials the lane path may see: zero and normal powers of two
            assert_eq!(lane_encode(t, 0.0), Some((0, 0)));
            for e in -700..700 {
                let x = f64::exp2(e as f64);
                for y in [x, -x, x * 1.5, x * (1.0 + f64::EPSILON), x * (2.0 - f64::EPSILON)] {
                    assert_lane_encode(t, y);
                }
            }
            // random normal bit patterns, as in the table-encode sweep
            let mut redone = 0usize;
            for _ in 0..sweeps() {
                let bits = splitmix(&mut state);
                let eb = (1023i64 + ((bits >> 52) as i64 % 1400) - 700).clamp(1, 0x7fe) as u64;
                let x = f64::from_bits((bits & !(0x7ffu64 << 52)) | (eb << 52));
                redone += usize::from(lane_encode(t, x).is_none());
                assert_lane_encode(t, x);
            }
            // the redo band is 3 offset units of 2^18 per breakpoint
            assert!(redone * 10_000 < sweeps(), "lane encoder redoes too often: {redone}");
        }
    }

    #[test]
    fn lane_rom_encode_flags_every_guard_band_mantissa() {
        // every cell edge and a window around every breakpoint: inside
        // the libm guard band the lane lookup must ask for the scalar
        // encoder; outside it must agree with the table
        for cfg in CFGS {
            let t = conv_tables(cfg).unwrap();
            let g = ENC_GUARD as i64;
            let mut probes: Vec<i64> = Vec::new();
            for &bp in &t.breakpoints() {
                for off in [-g - 2, -g, -g + 1, -3, -1, 0, 1, 3, g - 1, g, g + 2, 1 << 30] {
                    probes.push(bp + off);
                    probes.push(bp - off);
                }
            }
            for c in 0..=(2i64 << cfg.frac_bits) {
                for off in [-1, 0, 1] {
                    probes.push((c << t.cell_shift) + off);
                }
            }
            for mant in probes.into_iter().filter(|m| (0..1i64 << 52).contains(m)) {
                let cell = &t.cells[(mant >> t.cell_shift) as usize];
                let guarded = mant.abs_diff(cell.near_bp) < ENC_GUARD;
                for eb in [1u64, 1023, 1024, 2046] {
                    let x = f64::from_bits((eb << 52) | mant as u64);
                    assert!(
                        !guarded || lane_encode(t, x).is_none(),
                        "guard-band mantissa {mant:#x} not flagged, cfg {cfg:?}"
                    );
                    assert_lane_encode(t, x);
                    assert_lane_encode(t, -x);
                }
            }
        }
    }

    #[test]
    fn lane_rom_sb_and_decode_match_tables_exhaustively() {
        for cfg in CFGS {
            let t = conv_tables(cfg).unwrap();
            let roms = t.lane_roms().unwrap();
            // adder: clamped-index read == the table add, same-sign operands
            let (sb_len, _) = t.adder_lens();
            assert_eq!(roms.sb.len(), sb_len);
            assert_eq!(roms.sb[sb_len - 1], 0, "clamp target must be the asymptote");
            let his = [cfg.raw_word_min(), -1, 0, 1, cfg.raw_word_max() / 2, cfg.raw_word_max()];
            for d in (0..sb_len as i64 + 64).chain([1 << 22, 1 << 27, u32::MAX as i64]) {
                let k = roms.sb_step(d as u32);
                for hi_raw in his {
                    let lo_raw = hi_raw - d;
                    if lo_raw < cfg.raw_word_min() {
                        continue;
                    }
                    let (a, b) = (Lns::from_raw(1, hi_raw, cfg), Lns::from_raw(1, lo_raw, cfg));
                    let got = (hi_raw + i64::from(k)).min(cfg.raw_word_max());
                    assert_eq!(got, t.add(a, b).raw(), "lane sb divergence d={d} hi={hi_raw}");
                    assert_eq!(got, t.add(b, a).raw());
                }
            }
            // decoder: every word and sign, plus the zero word
            for raw in cfg.raw_word_min()..=cfg.raw_word_max() {
                for (sign, bit) in [(1i8, 0u32), (-1, 1 << 31)] {
                    let w = (raw + i64::from(roms.word_bias())) as u32 | bit;
                    let want = t.decode(Lns::from_raw(sign, raw, cfg));
                    assert_eq!(roms.decode_word(w).to_bits(), want.to_bits(), "word {w:#x}");
                }
            }
            assert_eq!(roms.decode_word(0).to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn unfactorable_format_keeps_the_full_decode_memo() {
        // 2^-1030 is subnormal: no exponent field can carry it
        let deep = LnsConfig { frac_bits: 4, exp_min: -1040, exp_max: 100 };
        let t = conv_tables(deep).expect("small enough to tabulate");
        assert!(t.lane_roms().is_none());
        for raw in [deep.raw_word_min(), deep.raw_word_min() + 7, -(1030 << 4), 0, 333] {
            let v = Lns::from_raw(1, raw, deep);
            assert_eq!(t.decode(v).to_bits(), v.to_f64().to_bits());
        }
    }

    #[test]
    fn routed_encode_uses_tables_and_cache_is_shared() {
        let a = conv_tables(LnsConfig::GRAPE5).unwrap();
        let b = conv_tables(LnsConfig::GRAPE5).unwrap();
        assert!(std::ptr::eq(a, b), "cache must hand out one table set per format");
        assert_eq!(a.config(), LnsConfig::GRAPE5);
        // LnsConfig::encode routes through the same tables
        let x = 0.12345;
        assert_eq!(LnsConfig::GRAPE5.encode(x), a.encode(x));
    }

    #[test]
    fn oversized_format_falls_back_to_libm() {
        let wide = LnsConfig { frac_bits: 20, exp_min: -512, exp_max: 511 };
        assert!(conv_tables(wide).is_none());
        let x = 2.5;
        assert_eq!(wide.encode(x), wide.encode_libm(x));
    }
}
