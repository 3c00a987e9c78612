//! Compact binary snapshot I/O.
//!
//! Format `G5SNAP2\n`: magic, little-endian `u64` particle count and
//! `f64` simulation time, positions, velocities and masses as
//! contiguous `f64` arrays, then a CRC32 (IEEE) footer over everything
//! after the magic. Simple, versioned, endian-explicit — enough for
//! checkpointing the experiment runs without an external serialization
//! dependency, and self-validating: a truncated or bit-rotted
//! checkpoint is rejected at load instead of resuming a run from
//! garbage. The previous `G5SNAP1\n` format (no footer) is still
//! readable.

use g5ic::Snapshot;
use g5util::vec3::Vec3;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC_V1: &[u8; 8] = b"G5SNAP1\n";
const MAGIC_V2: &[u8; 8] = b"G5SNAP2\n";

// ----------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, poly 0xEDB88320)
// ----------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// Streaming CRC32 (IEEE) — the checksum in `G5SNAP2` footers.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Start a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Fold `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = CRC_TABLE[((self.state ^ b as u32) & 0xFF) as usize] ^ (self.state >> 8);
        }
    }

    /// Final checksum value.
    pub fn finish(self) -> u32 {
        !self.state
    }

    /// One-shot checksum of a byte slice.
    pub fn of(bytes: &[u8]) -> u32 {
        let mut c = Crc32::new();
        c.update(bytes);
        c.finish()
    }
}

/// Writer adapter that checksums everything passing through.
struct CrcWriter<W: Write> {
    inner: W,
    crc: Crc32,
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Reader adapter that checksums everything passing through.
struct CrcReader<R: Read> {
    inner: R,
    crc: Crc32,
}

impl<R: Read> Read for CrcReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }
}

// ----------------------------------------------------------------------
// Save / load
// ----------------------------------------------------------------------

/// Save a snapshot and its simulation time (current `G5SNAP2` format,
/// with CRC32 footer).
pub fn save(path: &Path, snap: &Snapshot, time: f64) -> io::Result<()> {
    snap.validate();
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    w.write_all(MAGIC_V2)?;
    let mut w = CrcWriter { inner: w, crc: Crc32::new() };
    w.write_all(&(snap.len() as u64).to_le_bytes())?;
    w.write_all(&time.to_le_bytes())?;
    for p in &snap.pos {
        write_vec3(&mut w, *p)?;
    }
    for v in &snap.vel {
        write_vec3(&mut w, *v)?;
    }
    for &m in &snap.mass {
        w.write_all(&m.to_le_bytes())?;
    }
    let crc = w.crc.finish();
    let mut inner = w.inner;
    inner.write_all(&crc.to_le_bytes())?;
    inner.flush()
}

/// Bytes in front of the particle arrays: magic, count, time.
const HEADER_BYTES: u64 = 24;
/// Bytes per particle: position, velocity, mass as `f64`s.
const PARTICLE_BYTES: u64 = 56;

fn invalid(what: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Load a snapshot; returns `(snapshot, time)`. Reads both `G5SNAP2`
/// (verifying the CRC32 footer) and the legacy unchecksummed
/// `G5SNAP1`.
///
/// Any byte string is answered with a snapshot or an [`io::Error`]:
/// the particle count is held to the file's own length before a byte
/// is allocated for it, and values [`Snapshot::validate`] would refuse
/// (non-finite, or a non-positive mass) are `InvalidData` even under a
/// valid checksum.
pub fn load(path: &Path) -> io::Result<(Snapshot, f64)> {
    let file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    read_snapshot(BufReader::new(file), len)
}

/// [`load`] from any reader holding `len` bytes in all.
fn read_snapshot<R: Read>(mut file: R, len: u64) -> io::Result<(Snapshot, f64)> {
    let mut magic = [0u8; 8];
    file.read_exact(&mut magic)?;
    let checksummed = match &magic {
        m if m == MAGIC_V2 => true,
        m if m == MAGIC_V1 => false,
        _ => return Err(invalid("bad snapshot magic")),
    };
    let mut r = CrcReader { inner: file, crc: Crc32::new() };
    let n = read_u64(&mut r)?;
    let time = read_f64(&mut r)?;
    // The count must be one the file can hold — exactly, when a footer
    // marks the end — so a corrupt header can ask for no more memory
    // than the file is long.
    let footer = if checksummed { 4 } else { 0 };
    let body = len.saturating_sub(HEADER_BYTES + footer);
    if n == 0 || n > body / PARTICLE_BYTES || (checksummed && n * PARTICLE_BYTES != body) {
        return Err(invalid("particle count does not match the file length"));
    }
    let n = usize::try_from(n).map_err(|_| invalid("particle count exceeds the address space"))?;
    let mut snap = Snapshot {
        pos: Vec::with_capacity(n),
        vel: Vec::with_capacity(n),
        mass: Vec::with_capacity(n),
    };
    for _ in 0..n {
        snap.pos.push(read_vec3(&mut r)?);
    }
    for _ in 0..n {
        snap.vel.push(read_vec3(&mut r)?);
    }
    for _ in 0..n {
        snap.mass.push(read_f64(&mut r)?);
    }
    if checksummed {
        let computed = r.crc.finish();
        let mut footer = [0u8; 4];
        r.inner.read_exact(&mut footer)?;
        if computed != u32::from_le_bytes(footer) {
            return Err(invalid("snapshot checksum mismatch (truncated or corrupted file)"));
        }
    }
    // what `save` would have refused to write (`Snapshot::validate`)
    // is not a snapshot, whatever the checksum says
    if !(time.is_finite()
        && snap.pos.iter().chain(&snap.vel).all(|v| v.is_finite())
        && snap.mass.iter().all(|&m| m.is_finite() && m > 0.0))
    {
        return Err(invalid("non-finite time, position or velocity, or non-positive mass"));
    }
    Ok((snap, time))
}

fn write_vec3<W: Write>(w: &mut W, v: Vec3) -> io::Result<()> {
    w.write_all(&v.x.to_le_bytes())?;
    w.write_all(&v.y.to_le_bytes())?;
    w.write_all(&v.z.to_le_bytes())
}

fn read_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_vec3<R: Read>(r: &mut R) -> io::Result<Vec3> {
    Ok(Vec3::new(read_f64(r)?, read_f64(r)?, read_f64(r)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("g5snap_test_{}_{name}", std::process::id()))
    }

    fn sample() -> Snapshot {
        Snapshot {
            pos: vec![Vec3::new(1.0, 2.0, 3.0), Vec3::new(-0.5, 0.0, 9.9)],
            vel: vec![Vec3::new(0.1, 0.2, 0.3), Vec3::ZERO],
            mass: vec![0.25, 0.75],
        }
    }

    #[test]
    fn crc32_known_vector() {
        // the classic IEEE test vector
        assert_eq!(Crc32::of(b"123456789"), 0xCBF4_3926);
        assert_eq!(Crc32::of(b""), 0);
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let path = tmp("roundtrip");
        let snap = sample();
        save(&path, &snap, 12.5).unwrap();
        let (back, time) = load(&path).unwrap();
        assert_eq!(back.pos, snap.pos);
        assert_eq!(back.vel, snap.vel);
        assert_eq!(back.mass, snap.mass);
        assert_eq!(time, 12.5);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn legacy_v1_still_loads() {
        // hand-write the old unchecksummed format
        let path = tmp("legacy");
        let snap = sample();
        let mut data = Vec::new();
        data.extend_from_slice(MAGIC_V1);
        data.extend_from_slice(&(snap.len() as u64).to_le_bytes());
        data.extend_from_slice(&3.25f64.to_le_bytes());
        for p in snap.pos.iter().chain(&snap.vel) {
            for c in [p.x, p.y, p.z] {
                data.extend_from_slice(&c.to_le_bytes());
            }
        }
        for &m in &snap.mass {
            data.extend_from_slice(&m.to_le_bytes());
        }
        std::fs::write(&path, &data).unwrap();
        let (back, time) = load(&path).unwrap();
        assert_eq!(back.pos, snap.pos);
        assert_eq!(time, 3.25);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("badmagic");
        std::fs::write(&path, b"NOTASNAPxxxxxxxxxxxxxxxx").unwrap();
        let err = load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_file_rejected() {
        let path = tmp("truncated");
        let snap = sample();
        save(&path, &snap, 0.0).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert!(load(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn every_single_flipped_bit_is_caught() {
        // corrupt each byte of the payload in turn: the CRC must catch
        // all of them (bit-rot round trip)
        let path = tmp("bitrot");
        let snap = sample();
        save(&path, &snap, 7.0).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for i in 8..clean.len() - 4 {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            let res = load(&path);
            assert!(res.is_err(), "flipped byte {i} loaded successfully");
        }
        // and the pristine file still loads
        std::fs::write(&path, &clean).unwrap();
        load(&path).unwrap();
        std::fs::remove_file(path).ok();
    }

    /// `sample()` at time 7 in the current format, and the same data
    /// in the legacy one.
    fn sample_bytes() -> (Vec<u8>, Vec<u8>) {
        let path = tmp("fuzz_seed");
        save(&path, &sample(), 7.0).unwrap();
        let v2 = std::fs::read(&path).unwrap();
        std::fs::remove_file(path).ok();
        let mut v1 = v2[..v2.len() - 4].to_vec();
        v1[..8].copy_from_slice(MAGIC_V1);
        (v2, v1)
    }

    /// The loader's whole contract on one byte string: an error, or a
    /// consistent all-finite snapshot no larger than the bytes allow.
    fn load_bytes(bytes: &[u8]) -> io::Result<(Snapshot, f64)> {
        let res = read_snapshot(bytes, bytes.len() as u64);
        if let Ok((snap, time)) = &res {
            assert!(time.is_finite());
            assert!(!snap.pos.is_empty());
            assert_eq!((snap.vel.len(), snap.mass.len()), (snap.len(), snap.len()));
            assert!(snap.len() as u64 * PARTICLE_BYTES + HEADER_BYTES <= bytes.len() as u64);
            snap.validate();
        }
        res
    }

    #[test]
    fn truncation_at_every_offset_is_a_typed_error() {
        let (v2, v1) = sample_bytes();
        for bytes in [&v2, &v1] {
            load_bytes(bytes).unwrap();
            for cut in 0..bytes.len() {
                assert!(load_bytes(&bytes[..cut]).is_err(), "cut at {cut} loaded");
            }
        }
        // bytes past the footer are not part of a snapshot either
        let mut long = v2.clone();
        long.push(0);
        assert_eq!(load_bytes(&long).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn every_single_bit_flip_is_a_typed_error_or_a_sane_legacy_snapshot() {
        let (v2, v1) = sample_bytes();
        for bit in 0..v2.len() * 8 {
            let mut bytes = v2.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            // header, body or footer: the count check or the CRC has it
            assert!(load_bytes(&bytes).is_err(), "bit {bit} flipped and loaded");
        }
        // the legacy format has no checksum: a flipped body bit is
        // another finite snapshot or an error, a flipped count or
        // exponent never an allocation the file cannot back
        for bit in 0..v1.len() * 8 {
            let mut bytes = v1.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            let _ = load_bytes(&bytes);
        }
    }

    #[test]
    fn a_header_promising_two_billion_particles_allocates_nothing() {
        // 24 bytes, n = 2^31: passed the old "implausible count" bound
        // and reserved ~120 GB before reading a body byte
        for magic in [MAGIC_V2, MAGIC_V1] {
            let mut data = magic.to_vec();
            data.extend_from_slice(&(1u64 << 31).to_le_bytes());
            data.extend_from_slice(&0.0f64.to_le_bytes());
            assert_eq!(load_bytes(&data).unwrap_err().kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn non_finite_values_are_rejected_under_a_valid_checksum() {
        let (v2, _) = sample_bytes();
        // time, a position, a velocity, a mass
        for at in [16, 24, 24 + 48, v2.len() - 4 - 8] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut bytes = v2.clone();
                bytes[at..at + 8].copy_from_slice(&bad.to_le_bytes());
                let crc = Crc32::of(&bytes[8..bytes.len() - 4]);
                let end = bytes.len() - 4;
                bytes[end..].copy_from_slice(&crc.to_le_bytes());
                let err = load_bytes(&bytes).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad} at {at}");
                assert!(err.to_string().contains("non-finite"), "{err}");
            }
        }
    }

    #[test]
    fn random_byte_strings_never_panic() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5a4f);
        let (v2, v1) = sample_bytes();
        for round in 0..4000 {
            let len = rng.random_range(0..200);
            let mut bytes: Vec<u8> = (0..len).map(|_| rng.random()).collect();
            match round % 4 {
                // a valid magic in front of noise
                0 if bytes.len() >= 8 => bytes[..8].copy_from_slice(MAGIC_V2),
                1 if bytes.len() >= 8 => bytes[..8].copy_from_slice(MAGIC_V1),
                // a real file with a burst of noise in it
                2 => {
                    let mut real = if round % 8 == 2 { v2.clone() } else { v1.clone() };
                    let at = rng.random_range(0..real.len());
                    let n = bytes.len().min(real.len() - at);
                    real[at..at + n].copy_from_slice(&bytes[..n]);
                    bytes = real;
                }
                _ => {}
            }
            let _ = load_bytes(&bytes);
        }
    }

    #[test]
    fn implausible_count_rejected() {
        let path = tmp("hugecount");
        let mut data = Vec::new();
        data.extend_from_slice(MAGIC_V2);
        data.extend_from_slice(&u64::MAX.to_le_bytes());
        data.extend_from_slice(&0.0f64.to_le_bytes());
        std::fs::write(&path, &data).unwrap();
        let err = load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(path).ok();
    }
}
