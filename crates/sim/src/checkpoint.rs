//! Durable, integrity-checked checkpoint storage for the dispatch daemon.
//!
//! A checkpoint generation is one file `ckpt-<gen>.json` in the store
//! directory, written **atomically** (write to a `.tmp` sibling, fsync,
//! rename) so a crash can never leave a half-written file under the final
//! name. The file carries a one-line header
//!
//! ```text
//! WATTERCKPT1 <payload-bytes> <fnv1a64-hex>
//! ```
//!
//! followed by the JSON payload, so *any* damage — a torn tail from a
//! crash landing mid-write, a flipped bit from silent media corruption,
//! an unrelated file dropped into the directory — is detected at read
//! time and surfaces as a typed [`CheckpointError`], never a panic. The
//! error distinguishes truncation, checksum mismatch, a snapshot written
//! in another schema version and JSON parse failure so operators (and
//! `tests/chaos.rs`) can tell torn writes from bit rot from format drift.
//!
//! The store keeps the last *N* generations ([`CheckpointStore::keep`]).
//! Recovery walks generations newest-first and returns the first one that
//! passes both integrity checks **and** parses
//! ([`CheckpointStore::latest_valid`]) — a corrupted newest checkpoint
//! costs one generation of progress, not the run.
//!
//! Transient write failures (injected via
//! [`FaultPlan::io_failures`](watter_core::FaultPlan), or real `EIO`s)
//! are retried with exponential backoff; the attempt counters land in
//! [`CheckpointOps`], which is *operational* telemetry — deliberately not
//! part of the checkpointed state, because a crashed-and-recovered run
//! legitimately performs different checkpoint IO than an uninterrupted
//! one while producing bit-identical dispatch statistics.

use crate::daemon::DaemonCheckpoint;
use crate::snapshot::{json_field, DispatchSnapshot, SnapshotError};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fs;
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use watter_core::{CorruptKind, FaultPlan};

/// Magic tag of the checkpoint header line.
const MAGIC: &str = "WATTERCKPT1";
/// Write attempts per checkpoint before giving up.
const MAX_ATTEMPTS: u32 = 4;

/// Why a checkpoint file could not be loaded.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckpointError {
    /// Filesystem-level failure (open/read/write/rename).
    Io(String),
    /// The file does not start with a well-formed `WATTERCKPT1` header.
    BadHeader,
    /// The payload is shorter than the header promised — a torn write.
    Truncated {
        /// Bytes the header declared.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The payload length matches but its checksum does not — bit-level
    /// corruption.
    ChecksumMismatch {
        /// Checksum the header declared.
        expected: u64,
        /// Checksum of the bytes on disk.
        got: u64,
    },
    /// Integrity checks passed but the dispatch snapshot inside declares a
    /// schema this build does not read
    /// ([`SnapshotError::Version`]) — a checkpoint from an older build.
    Snapshot(SnapshotError),
    /// Integrity checks passed but the payload is not a valid checkpoint
    /// document (a foreign file with a forged header).
    Parse(String),
    /// No generation in the directory passed validation.
    NoValidCheckpoint,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint io: {e}"),
            Self::BadHeader => write!(f, "checkpoint header missing or malformed"),
            Self::Truncated { expected, got } => {
                write!(
                    f,
                    "checkpoint truncated: header declares {expected} B, file has {got} B"
                )
            }
            Self::ChecksumMismatch { expected, got } => write!(
                f,
                "checkpoint checksum mismatch: header {expected:016x}, payload {got:016x}"
            ),
            Self::Snapshot(e) => write!(f, "checkpoint refused: {e}"),
            Self::Parse(e) => write!(f, "checkpoint parse: {e}"),
            Self::NoValidCheckpoint => write!(f, "no valid checkpoint generation found"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Operational counters of one store's lifetime (not checkpointed state —
/// see the module docs for why).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct CheckpointOps {
    /// Generations successfully written.
    pub written: u64,
    /// Write attempts that failed and were retried.
    pub retries: u64,
    /// Failures injected by the fault plan (a subset of `retries`).
    pub injected_failures: u64,
    /// Generations skipped as corrupt/unreadable during recovery.
    pub discarded: u64,
    /// Generation recovery actually restored from, if any.
    pub resumed_from: Option<u64>,
}

/// FNV-1a 64-bit over `bytes` — tiny, dependency-free, and plenty to
/// catch torn tails and flipped bits (this is corruption *detection*, not
/// an adversarial MAC).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Generation-rotated checkpoint directory (see the module docs).
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
    /// Generations this store believes are on disk, ascending: scanned once
    /// in [`CheckpointStore::open`], extended by every `save`, trimmed by
    /// `prune` — so rotation costs one `remove_file`, not a directory scan.
    /// `keep >= 1`, so once anything was written the newest stays listed.
    gens: VecDeque<u64>,
    io_failures_left: u32,
    ops: CheckpointOps,
}

impl CheckpointStore {
    /// Open (creating if needed) the store at `dir`, keeping the last
    /// `keep` generations. Numbering continues after any generation
    /// already present, so a recovered daemon never overwrites history.
    pub fn open(dir: &Path, keep: usize, fault: FaultPlan) -> Result<Self, CheckpointError> {
        fs::create_dir_all(dir).map_err(|e| CheckpointError::Io(e.to_string()))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            keep: keep.max(1),
            gens: Self::generations(dir)?.into(),
            io_failures_left: fault.io_failures,
            ops: CheckpointOps::default(),
        })
    }

    /// Generations present on disk, ascending.
    fn generations(dir: &Path) -> Result<Vec<u64>, CheckpointError> {
        let mut gens = Vec::new();
        for entry in fs::read_dir(dir).map_err(|e| CheckpointError::Io(e.to_string()))? {
            let entry = entry.map_err(|e| CheckpointError::Io(e.to_string()))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(g) = name
                .strip_prefix("ckpt-")
                .and_then(|s| s.strip_suffix(".json"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                gens.push(g);
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    /// The number the next `save` writes: one past the newest known.
    fn next_gen(&self) -> u64 {
        self.gens.back().map_or(0, |&g| g + 1)
    }

    fn path_of(&self, gen: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{gen}.json"))
    }

    /// Persist `ckpt` as the next generation: atomic write-then-rename
    /// with the checksum header, retrying transient failures with
    /// exponential backoff, then pruning generations older than `keep`.
    /// Returns the generation number written.
    pub fn save(&mut self, ckpt: &DaemonCheckpoint) -> Result<u64, CheckpointError> {
        let body =
            serde_json::to_string(ckpt).map_err(|e| CheckpointError::Parse(format!("{e:?}")))?;
        // Header and payload leave in one write.
        let mut file = format!("{MAGIC} {} {:016x}\n", body.len(), fnv1a64(body.as_bytes()));
        file.push_str(&body);
        let gen = self.next_gen();
        let tmp = self.dir.join(format!("ckpt-{gen}.tmp"));
        let final_path = self.path_of(gen);

        let mut last_err = None;
        for attempt in 0..MAX_ATTEMPTS {
            match self.try_write(&tmp, &final_path, file.as_bytes()) {
                Ok(()) => {
                    last_err = None;
                    break;
                }
                Err(e) => {
                    self.ops.retries += 1;
                    last_err = Some(e);
                    // Exponential backoff: 1, 2, 4 ms. Long enough to ride
                    // out a transient EIO, short enough for tests.
                    std::thread::sleep(std::time::Duration::from_millis(1 << attempt));
                }
            }
        }
        if let Some(e) = last_err {
            return Err(e);
        }
        self.gens.push_back(gen);
        self.ops.written += 1;
        self.prune()?;
        Ok(gen)
    }

    fn try_write(
        &mut self,
        tmp: &Path,
        final_path: &Path,
        bytes: &[u8],
    ) -> Result<(), CheckpointError> {
        // Injected transient failure (FaultPlan::io_failures): fail the
        // attempt *before* any bytes land, like a full disk would.
        if self.io_failures_left > 0 {
            self.io_failures_left -= 1;
            self.ops.injected_failures += 1;
            return Err(CheckpointError::Io("injected checkpoint IO failure".into()));
        }
        let io = |e: std::io::Error| CheckpointError::Io(e.to_string());
        let mut f = fs::File::create(tmp).map_err(io)?;
        f.write_all(bytes).map_err(io)?;
        f.sync_all().map_err(io)?;
        fs::rename(tmp, final_path).map_err(io)?;
        Ok(())
    }

    /// Unlink the oldest known generations down to `keep`. A file already
    /// gone (removed behind the store's back) is what pruning wanted.
    fn prune(&mut self) -> Result<(), CheckpointError> {
        while self.gens.len() > self.keep {
            match fs::remove_file(self.path_of(self.gens[0])) {
                Ok(()) => {}
                Err(e) if e.kind() == ErrorKind::NotFound => {}
                Err(e) => return Err(CheckpointError::Io(e.to_string())),
            }
            self.gens.pop_front();
        }
        Ok(())
    }

    /// Read and fully validate one generation file.
    pub fn read_file(path: &Path) -> Result<DaemonCheckpoint, CheckpointError> {
        let bytes = fs::read(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
        let newline = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or(CheckpointError::BadHeader)?;
        let header =
            std::str::from_utf8(&bytes[..newline]).map_err(|_| CheckpointError::BadHeader)?;
        let mut parts = header.split_ascii_whitespace();
        let (magic, len, sum) = (parts.next(), parts.next(), parts.next());
        if magic != Some(MAGIC) || parts.next().is_some() {
            return Err(CheckpointError::BadHeader);
        }
        let expected_len: usize = len
            .and_then(|s| s.parse().ok())
            .ok_or(CheckpointError::BadHeader)?;
        let expected_sum = sum
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or(CheckpointError::BadHeader)?;
        let payload = &bytes[newline + 1..];
        if payload.len() != expected_len {
            return Err(CheckpointError::Truncated {
                expected: expected_len,
                got: payload.len(),
            });
        }
        let got_sum = fnv1a64(payload);
        if got_sum != expected_sum {
            return Err(CheckpointError::ChecksumMismatch {
                expected: expected_sum,
                got: got_sum,
            });
        }
        let text =
            std::str::from_utf8(payload).map_err(|e| CheckpointError::Parse(e.to_string()))?;
        let parse = |e: serde_json::Error| CheckpointError::Parse(format!("{e:?}"));
        let doc = serde_json::parse_value(text).map_err(parse)?;
        // The schema check comes before the typed parse, which an older
        // schema would fail at some arbitrary missing field.
        if let Some(snap) = json_field(&doc, "snap") {
            DispatchSnapshot::check_document_version(snap).map_err(CheckpointError::Snapshot)?;
        }
        DaemonCheckpoint::from_json_value(&doc).map_err(parse)
    }

    /// The newest generation that passes integrity checks, is of this
    /// build's snapshot schema and parses, walking backwards over corrupt
    /// or refused generations (each skip is counted in
    /// [`CheckpointOps::discarded`]). `Ok(None)` means the directory holds
    /// no generations at all — a fresh start, not an error.
    ///
    /// Reads the directory, not the list `save` keeps: recovery must see
    /// files dropped or damaged behind the store's back.
    pub fn latest_valid(&mut self) -> Result<Option<(u64, DaemonCheckpoint)>, CheckpointError> {
        let gens = Self::generations(&self.dir)?;
        if gens.is_empty() {
            return Ok(None);
        }
        for &g in gens.iter().rev() {
            match Self::read_file(&self.path_of(g)) {
                Ok(ckpt) => {
                    self.ops.resumed_from = Some(g);
                    return Ok(Some((g, ckpt)));
                }
                Err(_) => self.ops.discarded += 1,
            }
        }
        Err(CheckpointError::NoValidCheckpoint)
    }

    /// Damage the newest generation file in place — the torn/bit-flipped
    /// checkpoint a crash mid-write leaves behind. Hosts that script a
    /// crash call it (the chaos harness, `watter-daemon
    /// --fault-corrupt`). No-op when the store is empty.
    ///
    /// Reads the directory, not the list `save` keeps: "newest" is whatever
    /// a crash would find on disk.
    pub fn corrupt_newest(&self, kind: CorruptKind) -> Result<(), CheckpointError> {
        let Some(&gen) = Self::generations(&self.dir)?.last() else {
            return Ok(());
        };
        let path = self.path_of(gen);
        let bytes = fs::read(&path).map_err(|e| CheckpointError::Io(e.to_string()))?;
        let damaged = match kind {
            // Drop the second half: header intact, payload short.
            CorruptKind::Torn => bytes[..bytes.len() / 2].to_vec(),
            CorruptKind::BitFlip => {
                let mut b = bytes;
                // Flip a bit well inside the payload, past the header.
                let idx = b.len().saturating_sub(1).max(1) / 2 + b.len() / 4;
                let idx = idx.min(b.len() - 1);
                b[idx] ^= 0x10;
                b
            }
        };
        fs::write(&path, damaged).map_err(|e| CheckpointError::Io(e.to_string()))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Generations currently on disk, ascending — a directory scan on
    /// every call, deliberately not the list `save` keeps, so tests and
    /// operators see what is really there.
    pub fn on_disk(&self) -> Result<Vec<u64>, CheckpointError> {
        Self::generations(&self.dir)
    }

    /// Operational counters accumulated by this store instance.
    pub fn ops(&self) -> CheckpointOps {
        self.ops
    }

    /// How many generations the store retains.
    pub fn keep(&self) -> usize {
        self.keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::DaemonCheckpoint;
    use crate::snapshot::{CoreState, DispatchSnapshot, DispatcherState, FleetSnapshot};
    use crate::SimConfig;
    use watter_core::{Kpis, Measurements, RobustnessReport};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "watter_ckpt_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn checkpoint(lines: u64) -> DaemonCheckpoint {
        DaemonCheckpoint {
            lines_consumed: lines,
            engaged: false,
            ingest: crate::ingest::OrderIngest::default().snapshot(),
            robustness: RobustnessReport::default(),
            snap: DispatchSnapshot {
                version: crate::snapshot::SNAPSHOT_VERSION,
                core: CoreState {
                    config: SimConfig::default(),
                    clock: lines as i64,
                    next_check: None,
                    closed: false,
                    last_release: 0,
                    drained: false,
                    buffered: Vec::new(),
                    fleet: FleetSnapshot {
                        workers: Vec::new(),
                        locations: Vec::new(),
                        busy_until: Vec::new(),
                    },
                    measurements: Measurements::default(),
                    kpis: Kpis::new(0),
                    trace_seq: 0,
                },
                dispatcher: DispatcherState::Stateless,
            },
        }
    }

    #[test]
    fn round_trip_and_rotation() {
        let dir = temp_dir("rot");
        let mut store = CheckpointStore::open(&dir, 3, FaultPlan::NONE).expect("open");
        for i in 0..10 {
            let gen = store.save(&checkpoint(i)).expect("save");
            assert_eq!(gen, i);
        }
        // Keep-last-3: exactly generations 7, 8, 9 survive, no `.tmp` left.
        assert_eq!(store.on_disk().expect("list"), vec![7, 8, 9]);
        assert_eq!(fs::read_dir(&dir).expect("list").count(), 3);
        let (gen, ckpt) = store.latest_valid().expect("read").expect("non-empty");
        assert_eq!((gen, ckpt.lines_consumed), (9, 9));
        assert_eq!(store.ops().written, 10);
        assert_eq!(store.ops().discarded, 0);
        // A reopened store continues numbering after existing generations.
        let store2 = CheckpointStore::open(&dir, 3, FaultPlan::NONE).expect("reopen");
        assert_eq!(store2.next_gen(), 10);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_tolerates_files_removed_behind_its_back() {
        let dir = temp_dir("gone");
        let mut store = CheckpointStore::open(&dir, 2, FaultPlan::NONE).expect("open");
        store.save(&checkpoint(0)).expect("save");
        store.save(&checkpoint(1)).expect("save");
        // An operator (or a tmp cleaner) removes the generation the next
        // save is about to rotate out.
        fs::remove_file(dir.join("ckpt-0.json")).expect("remove");
        assert_eq!(store.save(&checkpoint(2)).expect("save"), 2);
        assert_eq!(store.on_disk().expect("list"), vec![1, 2]);
        assert_eq!(store.save(&checkpoint(3)).expect("save"), 3);
        assert_eq!(store.on_disk().expect("list"), vec![2, 3]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopened_store_prunes_inherited_generations_on_first_save() {
        let dir = temp_dir("inherit");
        let mut wide = CheckpointStore::open(&dir, 5, FaultPlan::NONE).expect("open");
        for i in 0..5 {
            wide.save(&checkpoint(i)).expect("save");
        }
        assert_eq!(wide.on_disk().expect("list"), vec![0, 1, 2, 3, 4]);
        // The same directory under a tighter retention: the first save
        // brings it down to `keep`, counting the inherited files.
        let mut narrow = CheckpointStore::open(&dir, 2, FaultPlan::NONE).expect("reopen");
        assert_eq!(narrow.save(&checkpoint(5)).expect("save"), 5);
        assert_eq!(narrow.on_disk().expect("list"), vec![4, 5]);
        fs::remove_dir_all(&dir).ok();
    }

    /// `tests/fixtures/ckpt-v2.json` was written by the last build that
    /// serialised through a `Value` tree (a daemon killed mid-run: 12×12
    /// city, 150 orders, seed 7, timeout policy, 90 lines in). Reading it
    /// and saving what was read must reproduce it byte for byte; if this
    /// fails, the wire format drifted without a `SNAPSHOT_VERSION` bump.
    #[test]
    fn committed_fixture_reads_and_rewrites_byte_for_byte() {
        let fixture =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/ckpt-v2.json");
        let ckpt = CheckpointStore::read_file(&fixture).expect("fixture reads");
        assert_eq!(ckpt.lines_consumed, 90);
        assert_eq!(ckpt.snap.version, crate::snapshot::SNAPSHOT_VERSION);
        let dir = temp_dir("fixture");
        let mut store = CheckpointStore::open(&dir, 1, FaultPlan::NONE).expect("open");
        store.save(&ckpt).expect("save");
        let rewritten = fs::read(dir.join("ckpt-0.json")).expect("read back");
        assert!(
            rewritten == fs::read(&fixture).expect("read fixture"),
            "re-saved fixture differs from the committed bytes"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_file_is_a_typed_truncation_error() {
        let dir = temp_dir("torn");
        let mut store = CheckpointStore::open(&dir, 2, FaultPlan::NONE).expect("open");
        store.save(&checkpoint(7)).expect("save");
        store.corrupt_newest(CorruptKind::Torn).expect("corrupt");
        let err = CheckpointStore::read_file(&dir.join("ckpt-0.json")).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Truncated { expected, got } if got < expected),
            "torn file must report truncation, got {err:?}"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bitflipped_file_is_a_checksum_mismatch() {
        let dir = temp_dir("flip");
        let mut store = CheckpointStore::open(&dir, 2, FaultPlan::NONE).expect("open");
        store.save(&checkpoint(9)).expect("save");
        store.corrupt_newest(CorruptKind::BitFlip).expect("corrupt");
        let err = CheckpointStore::read_file(&dir.join("ckpt-0.json")).unwrap_err();
        assert!(
            matches!(err, CheckpointError::ChecksumMismatch { expected, got } if expected != got),
            "bit flip must report checksum mismatch, got {err:?}"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn valid_checksum_over_garbage_is_a_parse_error() {
        let dir = temp_dir("forge");
        fs::create_dir_all(&dir).ok();
        let body = b"{\"not\": \"a checkpoint\"}";
        let header = format!("{MAGIC} {} {:016x}\n", body.len(), fnv1a64(body));
        let path = dir.join("ckpt-0.json");
        fs::write(&path, [header.as_bytes(), body].concat()).expect("write");
        let err = CheckpointStore::read_file(&path).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Parse(_)),
            "forged-but-wrong payload must be a parse error, got {err:?}"
        );
        // And a file with no header at all is BadHeader.
        fs::write(&path, b"plain json without header").expect("write");
        assert!(matches!(
            CheckpointStore::read_file(&path).unwrap_err(),
            CheckpointError::BadHeader
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_falls_back_over_corrupt_generations() {
        let dir = temp_dir("fallback");
        let mut store = CheckpointStore::open(&dir, 4, FaultPlan::NONE).expect("open");
        store.save(&checkpoint(1)).expect("save");
        store.save(&checkpoint(2)).expect("save");
        store.save(&checkpoint(3)).expect("save");
        store.corrupt_newest(CorruptKind::BitFlip).expect("corrupt");
        let (gen, ckpt) = store.latest_valid().expect("read").expect("non-empty");
        assert_eq!(
            (gen, ckpt.lines_consumed),
            (1, 2),
            "must fall back one generation"
        );
        assert_eq!(store.ops().discarded, 1);
        assert_eq!(store.ops().resumed_from, Some(1));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_generations_corrupt_is_a_typed_error() {
        let dir = temp_dir("allbad");
        let mut store = CheckpointStore::open(&dir, 4, FaultPlan::NONE).expect("open");
        store.save(&checkpoint(1)).expect("save");
        store.corrupt_newest(CorruptKind::Torn).expect("corrupt");
        assert_eq!(
            store.latest_valid().unwrap_err(),
            CheckpointError::NoValidCheckpoint
        );
        // An empty directory, by contrast, is a clean fresh start.
        let empty = temp_dir("empty");
        let mut store = CheckpointStore::open(&empty, 4, FaultPlan::NONE).expect("open");
        assert!(store.latest_valid().expect("ok").is_none());
        fs::remove_dir_all(&dir).ok();
        fs::remove_dir_all(&empty).ok();
    }

    #[test]
    fn injected_io_failures_are_retried_with_backoff() {
        let dir = temp_dir("retry");
        let fault = FaultPlan { io_failures: 2 };
        let mut store = CheckpointStore::open(&dir, 2, fault).expect("open");
        // Two injected failures, then the third attempt succeeds.
        let gen = store
            .save(&checkpoint(5))
            .expect("save survives transient failures");
        assert_eq!(gen, 0);
        assert_eq!(store.ops().retries, 2);
        assert_eq!(store.ops().injected_failures, 2);
        let (_, ckpt) = store.latest_valid().expect("read").expect("non-empty");
        assert_eq!(ckpt.lines_consumed, 5);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn too_many_io_failures_surface_as_io_error() {
        let dir = temp_dir("exhaust");
        let fault = FaultPlan {
            io_failures: MAX_ATTEMPTS,
        };
        let mut store = CheckpointStore::open(&dir, 2, fault).expect("open");
        assert!(matches!(
            store.save(&checkpoint(5)).unwrap_err(),
            CheckpointError::Io(_)
        ));
        fs::remove_dir_all(&dir).ok();
    }
}
