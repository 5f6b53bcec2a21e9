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
//! The store keeps the last *N* generations (`keep` of [`CheckpointStore::open`]).
//! Recovery walks generations newest-first and returns the first one that
//! passes both integrity checks **and** parses
//! ([`CheckpointStore::latest_valid`]) — a corrupted newest checkpoint
//! costs one generation of progress, not the run.
//!
//! # Who does what
//!
//! A generation passes through two threads. The caller's — the daemon's
//! dispatch thread — serializes the [`DaemonCheckpoint`] into one of two
//! recycled buffers and hands it over a rendezvous channel
//! ([`CheckpointStore::save`]). The store's writer thread, started on the
//! first save, does the rest and sends the buffer back: it numbers the
//! generation, computes the header, writes the `.tmp`, fsyncs, renames
//! and rotates. Dispatch goes on meanwhile.
//!
//! * **One generation in flight.** A save waits only while the writer is
//!   still on the previous generation. Nothing queues behind it, and the
//!   store holds the two buffers, never an owned snapshot.
//! * **Durable points.** [`CheckpointStore::wait`] returns once the
//!   generation in flight is renamed into place (or has failed).
//!   [`CheckpointStore::ops`], every directory read through the store and
//!   dropping it wait too, so the counters describe finished generations
//!   and a dropped store leaves complete files. A *kill* can lose the
//!   generation in flight; recovery then starts one interval earlier and
//!   replays, which the kill → restore → replay contract covers.
//! * **Failures.** Transient write failures (injected via
//!   [`FaultPlan::io_failures`](watter_core::FaultPlan), or real `EIO`s)
//!   are retried with exponential backoff. A generation that still fails
//!   is counted in [`CheckpointOps::failed`] when it comes back — at the
//!   next save, wait or `ops` — and `wait` returns its error. A writer
//!   that stopped fails the next save with a [`CheckpointError`], never a
//!   hang or a panic.
//!
//! [`CheckpointOps`] is *operational* telemetry — deliberately not part
//! of the checkpointed state, because a crashed-and-recovered run
//! legitimately performs different checkpoint IO than an uninterrupted
//! one while producing bit-identical dispatch statistics.

use crate::daemon::DaemonCheckpoint;
use crate::snapshot::{json_field, DispatchSnapshot, SnapshotError};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fs;
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::thread::JoinHandle;
use watter_core::{CorruptKind, FaultPlan};

/// Magic tag of the checkpoint header line.
const MAGIC: &str = "WATTERCKPT1";
/// Write attempts per checkpoint before giving up.
pub(crate) const MAX_ATTEMPTS: u32 = 4;

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

fn io(e: std::io::Error) -> CheckpointError {
    CheckpointError::Io(e.to_string())
}

/// What a save or wait reports once the writer thread is gone.
fn stopped() -> CheckpointError {
    CheckpointError::Io("checkpoint writer stopped".into())
}

/// Operational counters of one store's lifetime (not checkpointed state —
/// see the module docs for why).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct CheckpointOps {
    /// Generations successfully written.
    pub written: u64,
    /// Generations that never reached the disk: their write still failed
    /// after every retry, or the writer had stopped.
    pub failed: u64,
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

/// The file of generation `gen` in `dir`.
fn gen_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("ckpt-{gen}.json"))
}

/// Generations present in `dir`, ascending.
fn generations(dir: &Path) -> Result<Vec<u64>, CheckpointError> {
    let mut gens = Vec::new();
    for entry in fs::read_dir(dir).map_err(io)? {
        let entry = entry.map_err(io)?;
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

/// Generation-rotated checkpoint directory (see the module docs).
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    /// The writing half, until the first save moves it onto its thread.
    idle: Option<Disk>,
    /// The running writer; `None` before the first save, and for good
    /// if its thread could not start.
    link: Option<Link>,
    /// What a returning generation updates, in a cell so that
    /// [`CheckpointStore::ops`] can wait through `&self`.
    desk: RefCell<Desk>,
}

/// The dispatch thread's ends of a running writer.
#[derive(Debug)]
struct Link {
    /// Payloads out, one at a time: a rendezvous channel.
    jobs: SyncSender<String>,
    /// Generations back, each with its buffer.
    landed: Receiver<Landed>,
    thread: JoinHandle<()>,
}

/// The dispatch thread's books.
#[derive(Debug, Default)]
struct Desk {
    /// A generation is with the writer.
    in_flight: bool,
    /// The buffer the next save serializes into.
    spare: String,
    /// The last generation back from the writer, until a wait takes it.
    landed: Option<Result<u64, CheckpointError>>,
    ops: CheckpointOps,
}

/// One generation back from the writer.
struct Landed {
    /// The payload buffer, returned for reuse.
    body: String,
    /// The generation written, or why none was.
    gen: Result<u64, CheckpointError>,
    /// Attempts that failed and were retried.
    retries: u64,
    /// Of those, the ones the fault plan injected.
    injected: u64,
}

impl CheckpointStore {
    /// Open (creating if needed) the store at `dir`, keeping the last
    /// `keep` generations. Numbering continues after any generation
    /// already present, so a recovered daemon never overwrites history.
    pub fn open(dir: &Path, keep: usize, fault: FaultPlan) -> Result<Self, CheckpointError> {
        fs::create_dir_all(dir).map_err(io)?;
        let keep = keep.max(1);
        Ok(Self {
            dir: dir.to_path_buf(),
            idle: Some(Disk {
                dir: dir.to_path_buf(),
                keep,
                gens: generations(dir)?.into(),
                io_failures_left: fault.io_failures,
            }),
            link: None,
            desk: RefCell::default(),
        })
    }

    /// Hand `ckpt` to the writer as the next generation: serialize it into
    /// the spare buffer, wait while the writer is still on the previous
    /// generation, then pass the bytes over. The writer persists it
    /// atomically with the checksum header, retrying transient failures
    /// with exponential backoff, and prunes generations older than
    /// `keep`; [`CheckpointStore::wait`] says how that went.
    ///
    /// `Err` means `ckpt` was not handed over because the writer has
    /// stopped (counted in [`CheckpointOps::failed`]).
    pub fn save(&mut self, ckpt: &DaemonCheckpoint) -> Result<(), CheckpointError> {
        if let Some(disk) = self.idle.take() {
            // A writer that cannot start is one that stopped.
            self.link = disk.start().ok();
        }
        let mut body = std::mem::take(&mut self.desk.get_mut().spare);
        body.clear();
        ckpt.write_json(&mut body);
        self.settle();
        let desk = self.desk.get_mut();
        desk.landed = None;
        let handed = match &self.link {
            Some(link) => link.jobs.send(body).map_err(|_| stopped()),
            None => Err(stopped()),
        };
        match handed {
            Ok(()) => desk.in_flight = true,
            Err(_) => desk.ops.failed += 1,
        }
        handed
    }

    /// Block until the generation in flight is renamed into place or has
    /// failed. `Ok(Some(gen))` is the generation written, `Err` why it was
    /// not, and `Ok(None)` means nothing came back since the last save or
    /// wait.
    pub fn wait(&mut self) -> Result<Option<u64>, CheckpointError> {
        self.settle();
        self.desk.get_mut().landed.take().transpose()
    }

    /// Wait for the generation in flight, if any, and book what comes
    /// back.
    fn settle(&self) {
        let mut desk = self.desk.borrow_mut();
        if !std::mem::take(&mut desk.in_flight) {
            return;
        }
        let gen = match self.link.as_ref().and_then(|l| l.landed.recv().ok()) {
            Some(landed) => {
                desk.spare = landed.body;
                desk.ops.retries += landed.retries;
                desk.ops.injected_failures += landed.injected;
                landed.gen
            }
            None => Err(stopped()),
        };
        match gen {
            Ok(_) => desk.ops.written += 1,
            Err(_) => desk.ops.failed += 1,
        }
        desk.landed = Some(gen);
    }

    /// Read and fully validate one generation file.
    pub fn read_file(path: &Path) -> Result<DaemonCheckpoint, CheckpointError> {
        let bytes = fs::read(path).map_err(io)?;
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
    /// Reads the directory, not the list the writer keeps: recovery must
    /// see files dropped or damaged behind the store's back.
    pub fn latest_valid(&mut self) -> Result<Option<(u64, DaemonCheckpoint)>, CheckpointError> {
        let gens = self.on_disk()?;
        if gens.is_empty() {
            return Ok(None);
        }
        let ops = &mut self.desk.get_mut().ops;
        for &g in gens.iter().rev() {
            match Self::read_file(&gen_path(&self.dir, g)) {
                Ok(ckpt) => {
                    ops.resumed_from = Some(g);
                    return Ok(Some((g, ckpt)));
                }
                Err(_) => ops.discarded += 1,
            }
        }
        Err(CheckpointError::NoValidCheckpoint)
    }

    /// Damage the newest generation file in place — the torn/bit-flipped
    /// checkpoint a crash mid-write leaves behind. Hosts that script a
    /// crash call it (the chaos harness, `watter-daemon
    /// --fault-corrupt`). No-op when the store is empty, and a bit flip
    /// leaves an empty file as it is.
    ///
    /// Reads the directory, not the list the writer keeps: "newest" is
    /// whatever a crash would find on disk.
    pub fn corrupt_newest(&self, kind: CorruptKind) -> Result<(), CheckpointError> {
        let Some(&gen) = self.on_disk()?.last() else {
            return Ok(());
        };
        let path = gen_path(&self.dir, gen);
        let bytes = fs::read(&path).map_err(io)?;
        let damaged = match kind {
            // Drop the second half: header intact, payload short.
            CorruptKind::Torn => bytes[..bytes.len() / 2].to_vec(),
            // Nothing to flip; an empty file fails `read_file` as
            // `BadHeader` already.
            CorruptKind::BitFlip if bytes.is_empty() => return Ok(()),
            CorruptKind::BitFlip => {
                let mut b = bytes;
                // Flip a bit well inside the payload, past the header.
                let idx = b.len().saturating_sub(1).max(1) / 2 + b.len() / 4;
                let idx = idx.min(b.len() - 1);
                b[idx] ^= 0x10;
                b
            }
        };
        fs::write(&path, damaged).map_err(io)
    }

    /// Generations on disk once the generation in flight has landed,
    /// ascending — a directory scan on every call, deliberately not the
    /// list the writer keeps, so tests and operators see what is really
    /// there.
    pub(crate) fn on_disk(&self) -> Result<Vec<u64>, CheckpointError> {
        self.settle();
        generations(&self.dir)
    }

    /// Operational counters accumulated by this store instance, once the
    /// generation in flight has landed.
    pub fn ops(&self) -> CheckpointOps {
        self.settle();
        self.desk.borrow().ops
    }
}

impl Drop for CheckpointStore {
    /// Let the writer finish the generation in flight, then join it, so a
    /// dropped store leaves complete files.
    fn drop(&mut self) {
        if let Some(Link { jobs, thread, .. }) = self.link.take() {
            // Hanging up ends the writer's loop after its current job.
            drop(jobs);
            // A writer that panicked has nothing left to finish.
            let _ = thread.join();
        }
    }
}

/// The writing half of a store: everything after serialization, owned by
/// the writer thread once the first save starts it.
#[derive(Debug)]
struct Disk {
    dir: PathBuf,
    keep: usize,
    /// Generations this store believes are on disk, ascending: scanned once
    /// in [`CheckpointStore::open`], extended by every write, trimmed by
    /// `prune` — so rotation costs one `remove_file`, not a directory scan.
    /// `keep >= 1`, so once anything was written the newest stays listed.
    gens: VecDeque<u64>,
    io_failures_left: u32,
}

impl Disk {
    /// Move `self` onto a new writer thread.
    fn start(self) -> std::io::Result<Link> {
        let (jobs, inbox) = mpsc::sync_channel(0);
        let (outbox, landed) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("ckpt-writer".into())
            .spawn(move || self.run(inbox, outbox))?;
        Ok(Link {
            jobs,
            landed,
            thread,
        })
    }

    /// Write each payload that arrives and send it back, until the store
    /// hangs up.
    fn run(mut self, inbox: Receiver<String>, outbox: Sender<Landed>) {
        for body in inbox {
            if outbox.send(self.write(body)).is_err() {
                break;
            }
        }
    }

    /// Persist `body` as the next generation — header and payload into a
    /// `.tmp` sibling, fsync, rename, each attempt retried with
    /// exponential backoff — then rotate.
    fn write(&mut self, body: String) -> Landed {
        let header = format!("{MAGIC} {} {:016x}\n", body.len(), fnv1a64(body.as_bytes()));
        let gen = self.gens.back().map_or(0, |&g| g + 1);
        let tmp = self.dir.join(format!("ckpt-{gen}.tmp"));
        let path = gen_path(&self.dir, gen);
        let (mut retries, mut injected) = (0, 0);
        let mut last_err = None;
        for attempt in 0..MAX_ATTEMPTS {
            let tried = if self.io_failures_left > 0 {
                // Injected transient failure (FaultPlan::io_failures): fail
                // the attempt *before* any bytes land, like a full disk would.
                self.io_failures_left -= 1;
                injected += 1;
                Err(CheckpointError::Io("injected checkpoint IO failure".into()))
            } else {
                write_atomically(&tmp, &path, header.as_bytes(), body.as_bytes())
            };
            match tried {
                Ok(()) => {
                    last_err = None;
                    break;
                }
                Err(e) => {
                    retries += 1;
                    last_err = Some(e);
                    // Exponential backoff: 1, 2, 4 ms. Long enough to ride
                    // out a transient EIO, short enough for tests.
                    std::thread::sleep(std::time::Duration::from_millis(1 << attempt));
                }
            }
        }
        let gen = match last_err {
            Some(e) => Err(e),
            None => {
                self.gens.push_back(gen);
                self.prune();
                Ok(gen)
            }
        };
        Landed {
            body,
            gen,
            retries,
            injected,
        }
    }

    /// Unlink the oldest listed generations down to `keep`. A file already
    /// gone (removed behind the store's back) is what pruning wanted. One
    /// that will not go stays listed and is tried again at the next
    /// rotation: the generation just written is durable either way.
    fn prune(&mut self) {
        let mut excess = self.gens.len().saturating_sub(self.keep);
        let dir = &self.dir;
        self.gens.retain(|&g| {
            if excess == 0 {
                return true;
            }
            excess -= 1;
            match fs::remove_file(gen_path(dir, g)) {
                Ok(()) => false,
                Err(e) => e.kind() != ErrorKind::NotFound,
            }
        });
    }
}

/// Write `header` then `body` to `tmp`, fsync it, and rename it to `path`.
fn write_atomically(
    tmp: &Path,
    path: &Path,
    header: &[u8],
    body: &[u8],
) -> Result<(), CheckpointError> {
    let mut f = fs::File::create(tmp).map_err(io)?;
    f.write_all(header).map_err(io)?;
    f.write_all(body).map_err(io)?;
    f.sync_all().map_err(io)?;
    fs::rename(tmp, path).map_err(io)
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

    /// Save `checkpoint(lines)` and wait for it: the generation written.
    fn write(store: &mut CheckpointStore, lines: u64) -> u64 {
        store.save(&checkpoint(lines)).expect("hand over");
        store
            .wait()
            .expect("write")
            .expect("a generation in flight")
    }

    #[test]
    fn round_trip_and_rotation() {
        let dir = temp_dir("rot");
        let mut store = CheckpointStore::open(&dir, 3, FaultPlan::NONE).expect("open");
        // Back to back: each save waits only for the one before it.
        for i in 0..10 {
            store.save(&checkpoint(i)).expect("save");
        }
        assert_eq!(store.wait(), Ok(Some(9)));
        // Keep-last-3: exactly generations 7, 8, 9 survive, no `.tmp` left.
        assert_eq!(store.on_disk().expect("list"), vec![7, 8, 9]);
        assert_eq!(fs::read_dir(&dir).expect("list").count(), 3);
        let (gen, ckpt) = store.latest_valid().expect("read").expect("non-empty");
        assert_eq!((gen, ckpt.lines_consumed), (9, 9));
        assert_eq!(store.ops().written, 10);
        assert_eq!(store.ops().discarded, 0);
        // A reopened store continues numbering after existing generations.
        let mut store2 = CheckpointStore::open(&dir, 3, FaultPlan::NONE).expect("reopen");
        assert_eq!(write(&mut store2, 10), 10);
        fs::remove_dir_all(&dir).ok();
    }

    /// The bytes on disk are the header line, then exactly what
    /// `serde_json::to_string` makes of the value saved.
    #[test]
    fn saved_bytes_are_the_header_then_the_serialized_checkpoint() {
        let dir = temp_dir("bytes");
        let mut store = CheckpointStore::open(&dir, 2, FaultPlan::NONE).expect("open");
        let c = checkpoint(42);
        store.save(&c).expect("save");
        let gen = store.wait().expect("write").expect("in flight");
        let body = serde_json::to_string(&c).expect("serialize");
        let want = format!(
            "WATTERCKPT1 {} {:016x}\n{body}",
            body.len(),
            fnv1a64(body.as_bytes())
        );
        let got = fs::read(gen_path(&dir, gen)).expect("read back");
        assert!(
            got == want.as_bytes(),
            "file differs from header + to_string"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_tolerates_files_removed_behind_its_back() {
        let dir = temp_dir("gone");
        let mut store = CheckpointStore::open(&dir, 2, FaultPlan::NONE).expect("open");
        write(&mut store, 0);
        write(&mut store, 1);
        // An operator (or a tmp cleaner) removes the generation the next
        // save is about to rotate out.
        fs::remove_file(dir.join("ckpt-0.json")).expect("remove");
        assert_eq!(write(&mut store, 2), 2);
        assert_eq!(store.on_disk().expect("list"), vec![1, 2]);
        assert_eq!(write(&mut store, 3), 3);
        assert_eq!(store.on_disk().expect("list"), vec![2, 3]);
        fs::remove_dir_all(&dir).ok();
    }

    /// A generation rotation cannot remove stays listed, and each later
    /// rotation tries it again; every save meanwhile is a good save.
    #[test]
    fn a_failed_rotation_keeps_the_old_file_listed_and_fails_no_save() {
        let dir = temp_dir("squat");
        let mut store = CheckpointStore::open(&dir, 1, FaultPlan::NONE).expect("open");
        assert_eq!(write(&mut store, 0), 0);
        // A directory squats on generation 0's name: unlinking it fails.
        fs::remove_file(dir.join("ckpt-0.json")).expect("remove");
        fs::create_dir(dir.join("ckpt-0.json")).expect("squat");
        assert_eq!(write(&mut store, 1), 1);
        assert_eq!(write(&mut store, 2), 2);
        assert_eq!(store.on_disk().expect("list"), vec![0, 2]);
        let ops = store.ops();
        assert_eq!((ops.written, ops.failed), (3, 0));
        // Once the squatter leaves, the next rotation drops its name.
        fs::remove_dir(dir.join("ckpt-0.json")).expect("unsquat");
        assert_eq!(write(&mut store, 3), 3);
        assert_eq!(store.on_disk().expect("list"), vec![3]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopened_store_prunes_inherited_generations_on_first_save() {
        let dir = temp_dir("inherit");
        let mut wide = CheckpointStore::open(&dir, 5, FaultPlan::NONE).expect("open");
        for i in 0..5 {
            write(&mut wide, i);
        }
        assert_eq!(wide.on_disk().expect("list"), vec![0, 1, 2, 3, 4]);
        // The same directory under a tighter retention: the first save
        // brings it down to `keep`, counting the inherited files.
        let mut narrow = CheckpointStore::open(&dir, 2, FaultPlan::NONE).expect("reopen");
        assert_eq!(write(&mut narrow, 5), 5);
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
        assert_eq!(store.wait(), Ok(Some(0)));
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

    /// A newest generation of 0 or 1 bytes takes either damage without a
    /// panic, and stays unreadable.
    #[test]
    fn corrupting_a_tiny_newest_file_never_panics() {
        let dir = temp_dir("tiny");
        let store = CheckpointStore::open(&dir, 2, FaultPlan::NONE).expect("open");
        let path = dir.join("ckpt-0.json");
        for bytes in [&b""[..], b"W"] {
            for kind in [CorruptKind::Torn, CorruptKind::BitFlip] {
                fs::write(&path, bytes).expect("write");
                store.corrupt_newest(kind).expect("corrupt");
                assert_eq!(
                    CheckpointStore::read_file(&path).unwrap_err(),
                    CheckpointError::BadHeader,
                    "{kind:?} on {} bytes",
                    bytes.len()
                );
            }
        }
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
        assert_eq!(write(&mut store, 5), 0);
        assert_eq!(store.ops().retries, 2);
        assert_eq!(store.ops().injected_failures, 2);
        assert_eq!(store.ops().failed, 0);
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
        store.save(&checkpoint(5)).expect("handed over");
        assert!(matches!(store.wait().unwrap_err(), CheckpointError::Io(_)));
        assert_eq!((store.ops().written, store.ops().failed), (0, 1));
        fs::remove_dir_all(&dir).ok();
    }

    /// A generation that fails in the background is booked once, by the
    /// next save, which goes ahead under the failed generation's number.
    #[test]
    fn a_failed_generation_surfaces_once_at_the_next_save() {
        let dir = temp_dir("late");
        let fault = FaultPlan {
            io_failures: MAX_ATTEMPTS + 1,
        };
        let mut store = CheckpointStore::open(&dir, 2, fault).expect("open");
        store.save(&checkpoint(1)).expect("handed over");
        store.save(&checkpoint(2)).expect("handed over");
        assert_eq!(store.wait(), Ok(Some(0)));
        let ops = store.ops();
        assert_eq!((ops.written, ops.failed), (1, 1));
        assert_eq!(ops.injected_failures, u64::from(MAX_ATTEMPTS) + 1);
        let (_, ckpt) = store.latest_valid().expect("read").expect("non-empty");
        assert_eq!(ckpt.lines_consumed, 2);
        fs::remove_dir_all(&dir).ok();
    }

    /// A writer whose channels break with a generation in flight fails
    /// the wait and every later save with a typed error, and the store
    /// still drops cleanly.
    #[test]
    fn a_stopped_writer_is_a_typed_error_not_a_hang() {
        let dir = temp_dir("stopped");
        let mut store = CheckpointStore::open(&dir, 2, FaultPlan::NONE).expect("open");
        store.save(&checkpoint(1)).expect("handed over");
        let link = store
            .link
            .as_mut()
            .expect("the first save starts the writer");
        link.jobs = mpsc::sync_channel(0).0;
        link.landed = mpsc::channel().1;
        assert_eq!(store.wait(), Err(stopped()));
        assert_eq!(store.save(&checkpoint(2)), Err(stopped()));
        assert_eq!(store.wait(), Ok(None));
        assert_eq!((store.ops().written, store.ops().failed), (0, 2));
        drop(store);
        fs::remove_dir_all(&dir).ok();
    }
}
