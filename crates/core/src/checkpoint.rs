//! Periodic checkpoint / restart for long runs.
//!
//! The paper's headline run is 8.37 wall-clock hours; a production
//! force service cannot afford to lose that to one late failure. A
//! checkpoint is a pair of files in a checkpoint directory:
//!
//! * `step_NNNNNNNN.snap` — the particle state in the checksummed
//!   `G5SNAP2` format ([`crate::snapshot_io`]), self-validating
//!   against truncation and bit-rot;
//! * `step_NNNNNNNN.ckpt` — a small text manifest holding the step
//!   index, the integrator time as an exact `f64` bit pattern, and the
//!   backend's [`ResumeState`] (fault-injector RNG words, a cluster's
//!   shard count and lifecycle), so a resumed run replays the *same*
//!   fault schedule and supervisor decisions it would have seen
//!   uninterrupted.
//!
//! One writer ([`Checkpointer::write`]) emits every manifest, one
//! lister finds them, and one call ([`Checkpoint::resume`]) takes a
//! manifest and a freshly built backend back to a running
//! [`Simulation`]. What a backend saves and restores is the backend's
//! own business ([`ForceBackend::resume_state`] /
//! [`ForceBackend::restore`]); no caller assembles it by hand.
//!
//! The snapshot is written first and the manifest second, so a kill
//! mid-checkpoint leaves no manifest pointing at a complete pair;
//! [`latest`] additionally verifies the snapshot checksum and falls
//! back to the newest *valid* checkpoint.
//!
//! Restarts are bit-identical: kick–drift–kick holds only `(pos, vel)`
//! at the top of a step and forces are a pure function of positions, so
//! [`crate::Simulation::resume`] recomputes exactly the accelerations
//! the uninterrupted run was carrying (see the resume proptests).

use crate::integrator::Simulation;
use crate::{
    backends::{ForceBackend, ForceError},
    snapshot_io,
};
use g5ic::Snapshot;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Manifest format marker (first line of every `.ckpt` file).
const MANIFEST_MAGIC: &str = "G5CKPT1";

/// A parsed checkpoint manifest plus the path of its snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Steps completed when the checkpoint was taken.
    pub step: u64,
    /// Integrator time, bit-exact.
    pub time: f64,
    /// Snapshot file the manifest points at (always beside it).
    pub snapshot: PathBuf,
    /// Owning job id of a job-scoped checkpoint directory (`None` for
    /// manifests written by single-run binaries). A multi-tenant
    /// server writes its job id into every manifest and refuses to
    /// resume a job from a manifest carrying someone else's id — the
    /// guard against two jobs ever sharing (or being pointed at) one
    /// directory.
    pub job_id: Option<String>,
    /// The backend state the manifest carries.
    pub state: ResumeState,
}

/// What a backend must carry across a checkpoint, beyond the particles,
/// to resume bit-identically ([`ForceBackend::resume_state`]): nothing
/// for a host backend; the fault-injector words of a single device;
/// the alive-shard count, per-shard fault words and lifecycle of a
/// cluster. [`ForceBackend::restore`] rejects any field its backend
/// family does not own, so a manifest cannot resume silently on a
/// backend that computes different forces.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResumeState {
    /// Serialized fault-injector state of a single device
    /// ([`grape5::Grape5::fault_state_words`]), if an injector is armed.
    pub fault_state: Option<Vec<u64>>,
    /// Alive shard count of a cluster run.
    pub shards: Option<usize>,
    /// Per-shard fault-injector state of a cluster run, as
    /// `(shard slot, state words)` for every armed slot, dead or alive.
    pub shard_fault_states: Vec<(usize, Vec<u64>)>,
    /// Shard lifecycle supervisor state (`None` for manifests written
    /// before the lifecycle layer). Stored under additive keys a
    /// pre-lifecycle reader skips as unknown.
    pub lifecycle: Option<ClusterLifecycle>,
}

/// Why [`Checkpoint::resume`] could not produce a simulation.
#[derive(Debug)]
pub enum ResumeError {
    /// The snapshot would not load, or the backend refused the
    /// manifest's resume state: this checkpoint cannot resume here.
    Corrupt(io::Error),
    /// The force evaluation at the restored state failed.
    Force(ForceError),
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Corrupt(e) => write!(f, "{e}"),
            ResumeError::Force(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ResumeError {}

/// The shard lifecycle supervisor's state at checkpoint time — what a
/// resumed run needs to re-create the interrupted run's decomposition
/// and fault history bit-exactly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterLifecycle {
    /// Evaluations completed (the supervisor's probe/deadline clock).
    pub evals: u64,
    /// `(slot, ShardHealth code)` for every shard slot.
    pub healths: Vec<(usize, u8)>,
    /// `(slot, f64 bit pattern)` measured interactions/s per shard —
    /// the capacity estimate the *next* re-decomposition will weight by.
    pub rates: Vec<(usize, u64)>,
    /// Cut weights of the decomposition in force at checkpoint time
    /// (one per in-service shard, domain order) — the resume replays
    /// these exactly so the recomputed partition matches.
    pub cut_weights: Vec<u64>,
    /// Recovery ledger: every fault / kill / probe / readmit /
    /// re-decompose event so far, in order, as preformatted lines.
    pub ledger: Vec<String>,
}

impl Checkpoint {
    /// Load and validate the particle state this checkpoint points at.
    pub fn load_snapshot(&self) -> io::Result<(Snapshot, f64)> {
        let (snap, time) = snapshot_io::load(&self.snapshot)?;
        if time.to_bits() != self.time.to_bits() {
            return Err(invalid("manifest/snapshot time mismatch".into()));
        }
        Ok((snap, time))
    }

    /// Resume the run on `backend`, built as for the interrupted run
    /// with its fault injectors armed: load the snapshot, restore the
    /// backend's resume state, recompute the forces.
    pub fn resume<B: ForceBackend>(&self, mut backend: B) -> Result<Simulation<B>, ResumeError> {
        let (snap, time) = self.load_snapshot().map_err(|e| {
            ResumeError::Corrupt(io::Error::new(e.kind(), format!("snapshot load failed: {e}")))
        })?;
        backend.restore(&self.state).map_err(ResumeError::Corrupt)?;
        Simulation::resume(snap, backend, time, self.step).map_err(ResumeError::Force)
    }
}

/// An `InvalidData` error: a manifest or resume state that cannot be
/// taken.
pub(crate) fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A `u64` word list as the manifest writes it: space-separated
/// 16-digit hex.
fn hex_words(words: &[u64]) -> String {
    words.iter().map(|w| format!("{w:016x}")).collect::<Vec<_>>().join(" ")
}

/// Every manifest in `dir`, oldest step first; a missing directory
/// holds none.
fn manifests(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let entries = match std::fs::read_dir(dir) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        entries => entries?,
    };
    let mut manifests: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    manifests.sort();
    Ok(manifests)
}

/// Remove `path`; one already gone counts as removed.
fn remove_if_present(path: &Path) -> io::Result<()> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        removed => removed,
    }
}

/// Writes periodic checkpoints into a directory.
#[derive(Debug, Clone)]
pub struct Checkpointer {
    dir: PathBuf,
    every: u64,
    keep: Option<usize>,
    job_id: Option<String>,
}

impl Checkpointer {
    /// Checkpoint into `dir` every `every` steps (`every` ≥ 1). The
    /// directory is created if missing.
    pub fn new(dir: &Path, every: u64) -> io::Result<Checkpointer> {
        assert!(every >= 1, "checkpoint interval must be at least 1");
        std::fs::create_dir_all(dir)?;
        Ok(Checkpointer { dir: dir.to_path_buf(), every, keep: None, job_id: None })
    }

    /// Stamp every manifest with a job id (single whitespace-free
    /// token), making the directory job-scoped: readers that expect a
    /// job ([`latest_for_job`]) reject manifests carrying a different
    /// id or none at all.
    pub fn with_job_id(mut self, job_id: &str) -> Checkpointer {
        assert!(
            !job_id.is_empty() && !job_id.contains(char::is_whitespace),
            "job id must be a nonempty whitespace-free token: {job_id:?}"
        );
        self.job_id = Some(job_id.to_string());
        self
    }

    /// Retain only the newest `keep` checkpoint pairs (`keep` ≥ 1),
    /// pruning older `.ckpt`/`.snap` pairs after each write — a
    /// multi-day endurance run must not fill the disk with
    /// per-interval snapshots it will never resume from.
    pub fn with_retention(mut self, keep: usize) -> Checkpointer {
        assert!(keep >= 1, "retention must keep at least one checkpoint");
        self.keep = Some(keep);
        self
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Delete checkpoint pairs beyond the retention window (oldest
    /// first), the snapshot before its manifest: a kill between the two
    /// removes leaves a manifest that [`latest`] skips and the next
    /// prune lists again, never an orphaned snapshot. A file already
    /// gone counts as removed, so a pair that lost its snapshot cannot
    /// fail the write that triggered the prune. The just-written
    /// checkpoint is never touched: retention keeps ≥ 1.
    fn prune(&self) -> io::Result<()> {
        let Some(keep) = self.keep else { return Ok(()) };
        let manifests = manifests(&self.dir)?;
        let excess = manifests.len().saturating_sub(keep);
        for path in &manifests[..excess] {
            remove_if_present(&path.with_extension("snap"))?;
            remove_if_present(path)?;
        }
        Ok(())
    }

    /// Write a checkpoint (snapshot first, manifest second), then prune
    /// to the retention window. Returns the manifest path.
    ///
    /// The manifest keys come in one fixed order — magic, step, time,
    /// snapshot, job, then `state`'s: `fault_state`, `shards`,
    /// `shard_fault_state`…, and the lifecycle block (`evals`,
    /// `shard_health`…, `shard_rate`…, `cut_weights`, `ledger_event`…)
    /// — so a manifest's bytes depend on the run alone.
    pub fn write(
        &self,
        snap: &Snapshot,
        time: f64,
        step: u64,
        state: &ResumeState,
    ) -> io::Result<PathBuf> {
        let snap_path = self.dir.join(format!("step_{step:08}.snap"));
        snapshot_io::save(&snap_path, snap, time)?;

        let manifest_path = snap_path.with_extension("ckpt");
        let mut f = std::fs::File::create(&manifest_path)?;
        writeln!(f, "{MANIFEST_MAGIC}")?;
        writeln!(f, "step {step}")?;
        // f64 as its exact bit pattern: a text manifest must not round
        writeln!(f, "time {:016x}", time.to_bits())?;
        writeln!(f, "snapshot step_{step:08}.snap")?;
        if let Some(job) = &self.job_id {
            writeln!(f, "job {job}")?;
        }
        if let Some(words) = &state.fault_state {
            writeln!(f, "fault_state {}", hex_words(words))?;
        }
        if let Some(shards) = state.shards {
            writeln!(f, "shards {shards}")?;
        }
        for (slot, words) in &state.shard_fault_states {
            writeln!(f, "shard_fault_state {slot} {}", hex_words(words))?;
        }
        if let Some(lc) = &state.lifecycle {
            // additive keys: a pre-lifecycle reader skips all of these
            // through its unknown-key arm. `evals` doubles as the
            // presence sentinel for the whole lifecycle block.
            writeln!(f, "evals {}", lc.evals)?;
            for (slot, code) in &lc.healths {
                writeln!(f, "shard_health {slot} {code}")?;
            }
            for (slot, bits) in &lc.rates {
                writeln!(f, "shard_rate {slot} {bits:016x}")?;
            }
            if !lc.cut_weights.is_empty() {
                let w: Vec<String> = lc.cut_weights.iter().map(|w| w.to_string()).collect();
                writeln!(f, "cut_weights {}", w.join(" "))?;
            }
            for event in &lc.ledger {
                writeln!(f, "ledger_event {event}")?;
            }
        }
        f.flush()?;
        self.prune()?;
        Ok(manifest_path)
    }

    /// Checkpoint the simulation, with its backend's resume state, if
    /// its step count hits the interval.
    pub fn maybe_write<B: ForceBackend>(&self, sim: &Simulation<B>) -> io::Result<Option<PathBuf>> {
        if sim.steps > 0 && sim.steps.is_multiple_of(self.every) {
            let state = sim.backend().resume_state();
            return self.write(&sim.state, sim.time, sim.steps, &state).map(Some);
        }
        Ok(None)
    }
}

/// Parse one manifest file.
pub fn read_manifest(path: &Path) -> io::Result<Checkpoint> {
    let text = std::fs::read_to_string(path)?;
    let bad = |m: &str| invalid(format!("{m}: {path:?}"));
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_MAGIC) {
        return Err(bad("bad manifest magic"));
    }
    let mut step = None;
    let mut time = None;
    let mut snapshot = None;
    let mut job_id = None;
    let mut state = ResumeState::default();
    let mut evals = None;
    let mut healths = Vec::new();
    let mut rates = Vec::new();
    let mut cut_weights = Vec::new();
    let mut ledger = Vec::new();
    for line in lines {
        let Some((key, value)) = line.split_once(' ') else { continue };
        match key {
            "step" => step = Some(value.parse::<u64>().map_err(|_| bad("bad step"))?),
            "time" => {
                let bits =
                    u64::from_str_radix(value, 16).map_err(|_| bad("bad time bit pattern"))?;
                time = Some(f64::from_bits(bits));
            }
            "snapshot" => {
                // a bare file name beside the manifest: a path could
                // point this job at another directory's state
                if Path::new(value).file_name().is_none_or(|name| name != value) {
                    return Err(bad("snapshot is not a file name beside its manifest"));
                }
                snapshot = Some(path.parent().unwrap_or(Path::new(".")).join(value));
            }
            "fault_state" => {
                let words: Result<Vec<u64>, _> =
                    value.split_whitespace().map(|w| u64::from_str_radix(w, 16)).collect();
                state.fault_state = Some(words.map_err(|_| bad("bad fault state"))?);
            }
            "shards" => {
                state.shards = Some(value.parse::<usize>().map_err(|_| bad("bad shard count"))?);
            }
            "job" => {
                if value.is_empty() || value.contains(char::is_whitespace) {
                    return Err(bad("bad job id"));
                }
                job_id = Some(value.to_string());
            }
            "shard_fault_state" => {
                let mut it = value.split_whitespace();
                let slot = it
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .ok_or_else(|| bad("bad shard fault slot"))?;
                let words: Result<Vec<u64>, _> = it.map(|w| u64::from_str_radix(w, 16)).collect();
                state
                    .shard_fault_states
                    .push((slot, words.map_err(|_| bad("bad shard fault state"))?));
            }
            "evals" => {
                evals = Some(value.parse::<u64>().map_err(|_| bad("bad eval count"))?);
            }
            "shard_health" => {
                let (slot, code) = value.split_once(' ').ok_or_else(|| bad("bad shard health"))?;
                healths.push((
                    slot.parse::<usize>().map_err(|_| bad("bad shard health slot"))?,
                    code.parse::<u8>().map_err(|_| bad("bad shard health code"))?,
                ));
            }
            "shard_rate" => {
                let (slot, bits) = value.split_once(' ').ok_or_else(|| bad("bad shard rate"))?;
                rates.push((
                    slot.parse::<usize>().map_err(|_| bad("bad shard rate slot"))?,
                    u64::from_str_radix(bits, 16).map_err(|_| bad("bad shard rate bits"))?,
                ));
            }
            "cut_weights" => {
                let w: Result<Vec<u64>, _> =
                    value.split_whitespace().map(|w| w.parse::<u64>()).collect();
                cut_weights = w.map_err(|_| bad("bad cut weights"))?;
            }
            // the rest of the line verbatim: events contain spaces
            "ledger_event" => ledger.push(value.to_string()),
            _ => {} // unknown keys: forward compatibility
        }
    }
    state.lifecycle =
        evals.map(|evals| ClusterLifecycle { evals, healths, rates, cut_weights, ledger });
    Ok(Checkpoint {
        step: step.ok_or_else(|| bad("missing step"))?,
        time: time.ok_or_else(|| bad("missing time"))?,
        snapshot: snapshot.ok_or_else(|| bad("missing snapshot"))?,
        job_id,
        state,
    })
}

/// Newest *valid* checkpoint in a directory: manifests are scanned in
/// descending step order and the first whose snapshot passes its CRC is
/// returned. `Ok(None)` if the directory holds no usable checkpoint.
pub fn latest(dir: &Path) -> io::Result<Option<Checkpoint>> {
    latest_filtered(dir, |_| true)
}

/// Newest valid checkpoint in a job-scoped directory, *validating
/// ownership*: manifests whose `job` key is absent or differs from
/// `job_id` are skipped exactly like corrupt ones. This is how a
/// multi-tenant server refuses to resume job A from a directory that a
/// collision, copy mistake, or stale symlink filled with job B's
/// checkpoints.
pub fn latest_for_job(dir: &Path, job_id: &str) -> io::Result<Option<Checkpoint>> {
    latest_filtered(dir, |c| c.job_id.as_deref() == Some(job_id))
}

fn latest_filtered(
    dir: &Path,
    accept: impl Fn(&Checkpoint) -> bool,
) -> io::Result<Option<Checkpoint>> {
    for path in manifests(dir)?.iter().rev() {
        let Ok(ckpt) = read_manifest(path) else { continue };
        if accept(&ckpt) && ckpt.load_snapshot().is_ok() {
            return Ok(Some(ckpt));
        }
    }
    Ok(None)
}

/// What a [`scrub`] pass over a checkpoint directory found.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScrubReport {
    /// Manifests examined (≤ the requested window).
    pub checked: usize,
    /// Manifests that parsed and whose snapshot passed its checksum.
    pub valid: usize,
    /// Manifest paths that failed parse or checksum, newest first.
    pub corrupt: Vec<PathBuf>,
}

/// Verify the newest `last` checkpoints in `dir`: parse each manifest
/// and re-check its snapshot's CRC, without loading anything into a
/// simulation. An endurance run scrubs periodically so bit-rot is
/// found while older, still-valid checkpoints remain to fall back to —
/// not at restore time when it is too late.
pub fn scrub(dir: &Path, last: usize) -> io::Result<ScrubReport> {
    let mut report = ScrubReport::default();
    for path in manifests(dir)?.iter().rev().take(last) {
        report.checked += 1;
        let ok = read_manifest(path).and_then(|c| c.load_snapshot()).is_ok();
        if ok {
            report.valid += 1;
        } else {
            report.corrupt.push(path.clone());
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use g5util::vec3::Vec3;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("g5ckpt_test_{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn sample(seed: f64) -> Snapshot {
        Snapshot {
            pos: vec![Vec3::new(seed, 2.0, 3.0), Vec3::new(-0.5, seed, 9.9)],
            vel: vec![Vec3::new(0.1, 0.2, seed), Vec3::ZERO],
            mass: vec![0.25, 0.75],
        }
    }

    fn device(words: &[u64]) -> ResumeState {
        ResumeState { fault_state: Some(words.to_vec()), ..ResumeState::default() }
    }

    fn cluster(
        shards: usize,
        states: &[(usize, Vec<u64>)],
        lifecycle: Option<&ClusterLifecycle>,
    ) -> ResumeState {
        ResumeState {
            shards: Some(shards),
            shard_fault_states: states.to_vec(),
            lifecycle: lifecycle.cloned(),
            ..ResumeState::default()
        }
    }

    #[test]
    fn write_then_latest_roundtrips() {
        let dir = tmpdir("roundtrip");
        let ck = Checkpointer::new(&dir, 5).unwrap();
        // a time value with a messy bit pattern must survive exactly
        let time = 0.1 + 0.2;
        ck.write(&sample(1.0), time, 5, &device(&[1, 0xdead_beef, 42])).unwrap();
        ck.write(&sample(2.0), time * 2.0, 10, &ResumeState::default()).unwrap();

        let latest = latest(&dir).unwrap().unwrap();
        assert_eq!(latest.step, 10);
        assert_eq!(latest.time.to_bits(), (time * 2.0).to_bits());
        assert_eq!(latest.state.fault_state, None);
        let (snap, t) = latest.load_snapshot().unwrap();
        assert_eq!(snap.pos, sample(2.0).pos);
        assert_eq!(t.to_bits(), (time * 2.0).to_bits());

        // the older one still parses, with its fault state intact
        let older = read_manifest(&dir.join("step_00000005.ckpt")).unwrap();
        assert_eq!(older.state.fault_state, Some(vec![1, 0xdead_beef, 42]));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let dir = tmpdir("fallback");
        let ck = Checkpointer::new(&dir, 1).unwrap();
        ck.write(&sample(1.0), 1.0, 1, &ResumeState::default()).unwrap();
        ck.write(&sample(2.0), 2.0, 2, &ResumeState::default()).unwrap();
        // bit-rot the newest snapshot: CRC fails, latest() must fall
        // back to step 1
        let snap2 = dir.join("step_00000002.snap");
        let mut bytes = std::fs::read(&snap2).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&snap2, &bytes).unwrap();

        let got = latest(&dir).unwrap().unwrap();
        assert_eq!(got.step, 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn cluster_manifest_roundtrips() {
        let dir = tmpdir("cluster_roundtrip");
        let ck = Checkpointer::new(&dir, 1).unwrap();
        let states = vec![(0usize, vec![7u64, 8, 9]), (2usize, vec![0xfeed_f00d])];
        ck.write(&sample(3.0), 1.5, 12, &cluster(3, &states, None)).unwrap();

        let got = latest(&dir).unwrap().unwrap();
        assert_eq!(got.step, 12);
        assert_eq!(got.state.shards, Some(3));
        assert_eq!(got.state.shard_fault_states, states);
        assert_eq!(got.state.fault_state, None);
        assert_eq!(got.state.lifecycle, None);
        let (snap, _) = got.load_snapshot().unwrap();
        assert_eq!(snap.pos, sample(3.0).pos);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn single_device_reader_view_of_cluster_manifest() {
        // a cluster manifest read through the common path simply
        // carries the extra fields; a single-shard manifest reports
        // shards: None — the two formats coexist in one directory
        let dir = tmpdir("mixed_view");
        let ck = Checkpointer::new(&dir, 1).unwrap();
        ck.write(&sample(1.0), 1.0, 1, &device(&[5])).unwrap();
        ck.write(&sample(2.0), 2.0, 2, &cluster(4, &[], None)).unwrap();

        let old = read_manifest(&dir.join("step_00000001.ckpt")).unwrap();
        assert_eq!(old.state.shards, None);
        assert_eq!(old.state.fault_state, Some(vec![5]));
        let new = read_manifest(&dir.join("step_00000002.ckpt")).unwrap();
        assert_eq!(new.state.shards, Some(4));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn latest_resumes_cluster_manifest_next_to_corrupt_single_shard() {
        // mixed-version directory: an old single-shard checkpoint at
        // step 1, a *corrupt* single-shard one at step 3, and a valid
        // cluster-format one at step 2. latest() must return the
        // newest VALID checkpoint (the cluster one), not error on the
        // corrupt neighbor or stop at the oldest.
        let dir = tmpdir("mixed_fallback");
        let ck = Checkpointer::new(&dir, 1).unwrap();
        ck.write(&sample(1.0), 1.0, 1, &ResumeState::default()).unwrap();
        ck.write(&sample(2.0), 2.0, 2, &cluster(2, &[(0, vec![1, 2])], None)).unwrap();
        ck.write(&sample(3.0), 3.0, 3, &device(&[9])).unwrap();
        let snap3 = dir.join("step_00000003.snap");
        let mut bytes = std::fs::read(&snap3).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&snap3, &bytes).unwrap();

        let got = latest(&dir).unwrap().unwrap();
        assert_eq!(got.step, 2);
        assert_eq!(got.state.shards, Some(2));
        assert_eq!(got.state.shard_fault_states, vec![(0, vec![1, 2])]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn latest_resumes_single_shard_next_to_corrupt_cluster() {
        // and the mirror image: newest is a corrupt cluster-format
        // checkpoint, the fallback a valid single-shard one
        let dir = tmpdir("mixed_fallback_rev");
        let ck = Checkpointer::new(&dir, 1).unwrap();
        ck.write(&sample(1.0), 1.0, 1, &ResumeState::default()).unwrap();
        ck.write(&sample(2.0), 2.0, 2, &cluster(3, &[], None)).unwrap();
        let snap2 = dir.join("step_00000002.snap");
        let mut bytes = std::fs::read(&snap2).unwrap();
        bytes.truncate(bytes.len() / 2); // truncation, not just bit-rot
        std::fs::write(&snap2, &bytes).unwrap();

        let got = latest(&dir).unwrap().unwrap();
        assert_eq!(got.step, 1);
        assert_eq!(got.state.shards, None);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_final_manifest_falls_back_to_previous() {
        // a kill mid-manifest-write leaves a truncated .ckpt next to a
        // complete snapshot; latest() must walk past it to the previous
        // checkpoint instead of erroring or resuming garbage
        let dir = tmpdir("torn");
        let ck = Checkpointer::new(&dir, 1).unwrap();
        ck.write(&sample(1.0), 1.0, 1, &ResumeState::default()).unwrap();
        ck.write(&sample(2.0), 2.0, 2, &device(&[1, 2, 3])).unwrap();
        let m2 = dir.join("step_00000002.ckpt");
        let bytes = std::fs::read(&m2).unwrap();
        // tear mid-line: the magic and step lines survive ("G5CKPT1\n"
        // + "step 2\n" = 15 bytes), the time line is cut short
        std::fs::write(&m2, &bytes[..16]).unwrap();

        assert!(read_manifest(&m2).is_err(), "torn manifest must not parse");
        let got = latest(&dir).unwrap().unwrap();
        assert_eq!(got.step, 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn lifecycle_roundtrips_through_manifest() {
        let dir = tmpdir("lifecycle");
        let ck = Checkpointer::new(&dir, 1).unwrap();
        let lc = ClusterLifecycle {
            evals: 17,
            healths: vec![(0, 0), (1, 2), (2, 1)],
            rates: vec![(0, 1.5e9_f64.to_bits()), (2, 7.25e8_f64.to_bits())],
            cut_weights: vec![16, 3],
            ledger: vec![
                "eval 3: shard 1 killed (all boards quarantined)".into(),
                "eval 9: re-decomposed over 2 shards, weights [16, 3]".into(),
            ],
        };
        ck.write(&sample(4.0), 2.5, 9, &cluster(2, &[(0, vec![1])], Some(&lc))).unwrap();

        let got = latest(&dir).unwrap().unwrap();
        assert_eq!(got.state.shards, Some(2));
        assert_eq!(got.state.lifecycle, Some(lc), "spaces in ledger events must survive");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn mixed_manifest_versions_coexist_and_old_keys_still_parse() {
        // satellite: once the recovery-ledger keys exist, a directory
        // can mix pre-lifecycle (PR 6) cluster manifests with new ones.
        // The shared parser must read both — and, symmetrically, a
        // manifest carrying keys from a *future* version must still
        // parse through the unknown-key arm (which is exactly how a
        // PR 6 reader survives our ledger keys).
        let dir = tmpdir("mixed_versions");
        let ck = Checkpointer::new(&dir, 1).unwrap();
        ck.write(&sample(1.0), 1.0, 1, &cluster(3, &[], None)).unwrap(); // old format
        let lc = ClusterLifecycle { evals: 2, ..Default::default() };
        ck.write(&sample(2.0), 2.0, 2, &cluster(3, &[], Some(&lc))).unwrap();

        let old = read_manifest(&dir.join("step_00000001.ckpt")).unwrap();
        assert_eq!(old.state.lifecycle, None);
        let new = read_manifest(&dir.join("step_00000002.ckpt")).unwrap();
        assert_eq!(new.state.lifecycle, Some(lc));

        // future keys are skipped, known keys around them still land
        let future = dir.join("step_00000003.ckpt");
        let mut text = std::fs::read_to_string(dir.join("step_00000002.ckpt")).unwrap();
        text = text.replace("step 2", "step 3");
        text.push_str("hologram_parity 3 0xabc\nledger_event eval 5: future note\n");
        std::fs::write(&future, text).unwrap();
        let got = read_manifest(&future).unwrap();
        assert_eq!(got.step, 3);
        let got_lc = got.state.lifecycle.unwrap();
        assert_eq!(got_lc.evals, 2);
        assert_eq!(got_lc.ledger, vec!["eval 5: future note".to_string()]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn retention_prunes_oldest_pairs() {
        let dir = tmpdir("retention");
        let ck = Checkpointer::new(&dir, 1).unwrap().with_retention(2);
        for step in 1..=5u64 {
            ck.write(&sample(step as f64), step as f64, step, &ResumeState::default()).unwrap();
        }
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(
            files,
            vec![
                "step_00000004.ckpt",
                "step_00000004.snap",
                "step_00000005.ckpt",
                "step_00000005.snap"
            ]
        );
        assert_eq!(latest(&dir).unwrap().unwrap().step, 5);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_pair_that_lost_its_snapshot_neither_fails_the_next_write_nor_lingers() {
        // the oldest retained pair has lost its snapshot (a kill between
        // the two removes of an earlier prune, or an operator): the next
        // write's own pair is on disk, so the prune it triggers must not
        // turn into an error, and the stale manifest must go
        let dir = tmpdir("pruned_orphan");
        let ck = Checkpointer::new(&dir, 1).unwrap().with_retention(2);
        let none = ResumeState::default();
        ck.write(&sample(1.0), 1.0, 1, &none).unwrap();
        ck.write(&sample(2.0), 2.0, 2, &none).unwrap();
        std::fs::remove_file(dir.join("step_00000001.snap")).unwrap();

        ck.write(&sample(3.0), 3.0, 3, &none)
            .expect("a prune of a half-gone pair failed the write");
        assert!(!dir.join("step_00000001.ckpt").exists(), "the stale manifest lingers");
        assert_eq!(manifests(&dir).unwrap().len(), 2);
        assert_eq!(latest(&dir).unwrap().unwrap().step, 3);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn one_writer_emits_every_key_in_the_fixed_order() {
        // the manifest bytes every run of record has on disk: any state
        // the writer is given comes out in this order and no other
        let dir = tmpdir("key_order");
        let ck = Checkpointer::new(&dir, 1).unwrap().with_job_id("job-0003");
        let lc = ClusterLifecycle {
            evals: 6,
            healths: vec![(0, 0), (1, 2)],
            rates: vec![(0, 2.0f64.to_bits())],
            cut_weights: vec![8, 8],
            ledger: vec!["eval 2: shard 1 killed by operator".into()],
        };
        let state =
            ResumeState { fault_state: Some(vec![7]), ..cluster(1, &[(0, vec![1, 2])], Some(&lc)) };
        let path = ck.write(&sample(1.0), 0.5, 4, &state).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            "G5CKPT1\nstep 4\ntime 3fe0000000000000\nsnapshot step_00000004.snap\njob job-0003\n\
             fault_state 0000000000000007\nshards 1\n\
             shard_fault_state 0 0000000000000001 0000000000000002\nevals 6\nshard_health 0 0\n\
             shard_health 1 2\nshard_rate 0 4000000000000000\ncut_weights 8 8\n\
             ledger_event eval 2: shard 1 killed by operator\n"
        );
        assert_eq!(read_manifest(&path).unwrap().state, state);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn scrub_counts_valid_and_flags_corrupt() {
        let dir = tmpdir("scrub");
        let ck = Checkpointer::new(&dir, 1).unwrap();
        for step in 1..=3u64 {
            ck.write(&sample(step as f64), step as f64, step, &ResumeState::default()).unwrap();
        }
        // bit-rot the middle snapshot
        let snap2 = dir.join("step_00000002.snap");
        let mut bytes = std::fs::read(&snap2).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&snap2, &bytes).unwrap();

        let report = scrub(&dir, 10).unwrap();
        assert_eq!(report.checked, 3);
        assert_eq!(report.valid, 2);
        assert_eq!(report.corrupt, vec![dir.join("step_00000002.ckpt")]);

        // a window of 1 only examines the newest (valid) checkpoint
        let newest = scrub(&dir, 1).unwrap();
        assert_eq!((newest.checked, newest.valid), (1, 1));
        assert!(newest.corrupt.is_empty());

        // missing directory: clean empty report
        let none = scrub(&dir.join("nope"), 4).unwrap();
        assert_eq!(none, ScrubReport::default());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn empty_or_missing_dir_is_none() {
        let dir = tmpdir("empty");
        assert_eq!(latest(&dir).unwrap(), None);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(latest(&dir).unwrap(), None);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn job_id_roundtrips_and_gates_resume() {
        let dir = tmpdir("job_scoped");
        let ck = Checkpointer::new(&dir, 1).unwrap().with_job_id("job-0007");
        ck.write(&sample(1.0), 1.0, 1, &device(&[3])).unwrap();

        let got = latest_for_job(&dir, "job-0007").unwrap().unwrap();
        assert_eq!(got.job_id.as_deref(), Some("job-0007"));
        assert_eq!(got.state.fault_state, Some(vec![3]));
        // a different job must not resume from this directory, and the
        // unvalidated reader still sees the manifest (forward compat)
        assert_eq!(latest_for_job(&dir, "job-0008").unwrap(), None);
        assert_eq!(latest(&dir).unwrap().unwrap().step, 1);
        // an unstamped manifest is equally unacceptable to a job reader
        let unstamped = Checkpointer::new(&dir, 1).unwrap();
        unstamped.write(&sample(2.0), 2.0, 2, &ResumeState::default()).unwrap();
        assert_eq!(latest_for_job(&dir, "job-0007").unwrap().unwrap().step, 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn job_id_stamps_cluster_manifests_too() {
        let dir = tmpdir("job_cluster");
        let ck = Checkpointer::new(&dir, 1).unwrap().with_job_id("fleet-3");
        ck.write(&sample(1.0), 1.0, 4, &cluster(2, &[(0, vec![9])], None)).unwrap();
        let got = latest_for_job(&dir, "fleet-3").unwrap().unwrap();
        assert_eq!(got.state.shards, Some(2));
        assert_eq!(got.job_id.as_deref(), Some("fleet-3"));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    #[should_panic(expected = "whitespace-free")]
    fn job_id_with_spaces_rejected() {
        let dir = tmpdir("job_bad_id");
        let _ = Checkpointer::new(&dir, 1).unwrap().with_job_id("two words");
    }

    #[test]
    fn concurrent_job_writers_retention_and_scrub_stay_isolated() {
        // satellite: many jobs checkpoint concurrently, each into its
        // own job-scoped directory with retention; pruning and scrub
        // in one directory must never disturb a neighbor's files.
        let root = tmpdir("concurrent_jobs");
        std::fs::create_dir_all(&root).unwrap();
        let mut handles = Vec::new();
        for j in 0..8 {
            let dir = root.join(format!("job-{j:04}"));
            handles.push(std::thread::spawn(move || {
                let id = format!("job-{j:04}");
                let ck = Checkpointer::new(&dir, 1).unwrap().with_retention(3).with_job_id(&id);
                for step in 1..=20u64 {
                    ck.write(
                        &sample(j as f64 + step as f64),
                        step as f64,
                        step,
                        &ResumeState::default(),
                    )
                    .unwrap();
                }
                let report = scrub(&dir, 10).unwrap();
                assert_eq!(report.checked, 3, "retention must leave exactly 3");
                assert_eq!(report.valid, 3);
                assert!(report.corrupt.is_empty());
                let got = latest_for_job(&dir, &id).unwrap().unwrap();
                assert_eq!(got.step, 20);
                got
            }));
        }
        for (j, h) in handles.into_iter().enumerate() {
            let ckpt = h.join().unwrap();
            assert_eq!(ckpt.job_id.as_deref(), Some(format!("job-{j:04}").as_str()));
            let (snap, _) = ckpt.load_snapshot().unwrap();
            assert_eq!(snap.pos, sample(j as f64 + 20.0).pos, "cross-job bleed");
        }
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn manifest_garbage_rejected() {
        let dir = tmpdir("garbage");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("step_00000001.ckpt");
        std::fs::write(&p, "NOTAMANIFEST\n").unwrap();
        assert!(read_manifest(&p).is_err());
        assert_eq!(latest(&dir).unwrap(), None);

        // a snapshot must be a file beside its manifest: a path into
        // another job's directory, or anywhere, is not
        let elsewhere = dir.join("elsewhere.snap");
        snapshot_io::save(&elsewhere, &sample(1.0), 1.0).unwrap();
        for snapshot in ["../job-7/step_00000010.snap", elsewhere.to_str().unwrap(), "..", ".", ""]
        {
            let text = format!("G5CKPT1\nstep 1\ntime 3ff0000000000000\nsnapshot {snapshot}\n");
            std::fs::write(&p, text).unwrap();
            let err = read_manifest(&p).expect_err(snapshot);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{snapshot:?}");
        }
        assert_eq!(latest(&dir).unwrap(), None);
        std::fs::remove_dir_all(dir).ok();
    }
}
