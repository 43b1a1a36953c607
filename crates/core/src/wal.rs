//! Durable control plane: write-ahead log + checkpointed recovery (§V).
//!
//! Worker death became survivable with leases; this module makes the **Token
//! Server itself** survivable. Every mutating control-plane call — grants,
//! reports, sync watermarks, lease fires, fault/restart events — appends one
//! [`CoordOp`] record to a write-ahead log *before* the result becomes
//! externally visible, and periodic [checkpoints](WalRecord::Checkpoint)
//! serialize the [`ServerSnapshot`] (the byte-exact conformance currency)
//! together with the live token table and an opaque runtime payload. The
//! plane retires each iteration once it has synced at every level, so a
//! checkpoint holds only the live window — about (levels + staleness)
//! iterations of tokens — and nothing behind it is needed to recover. A crashed
//! server [recovers](recover) by restoring the latest checkpoint and replaying
//! the log suffix through [`apply_op`], verifying the recorded outcome digest
//! at every step — so a restarted plane is provably snapshot-equal to the one
//! that died, and resumes mid-iteration with exactly-once token application.
//!
//! ## Log format
//!
//! The framing reuses the `wire.rs` idioms: one record is
//!
//! ```text
//! [body_len: u32 LE] [crc32: u32 LE] [tag: u8] [fields, LE, declaration order]
//! ```
//!
//! with the CRC taken over the body (tag + fields). The `Begin` record
//! carries the format version ([`WAL_VERSION`]); a log written in another
//! layout — including the version-1 layout, whose checkpoints carried every
//! token ever minted — is refused with [`WalError::Version`]. Decoding **never
//! panics** on arbitrary bytes: element counts are range-guarded before any
//! allocation, unknown tags and short bodies are structured [`WalError`]s,
//! and a *torn tail* — a final record cut short by a crash mid-write — is
//! dropped cleanly ([`ReadLog::torn_bytes`]) rather than erroring the whole
//! replay. A full-length record with a bad checksum is *corruption* (torn
//! writes only truncate, they do not scribble), and does fail the replay.
//!
//! ## Fsync discipline
//!
//! Appends stage into the writer's buffer; [`WalWriter::commit`] writes the
//! staged bytes to the [`WalSink`] and syncs it in one step. The control
//! plane commits after **every** logged operation before returning the
//! result to the caller — the `no-unflushed-wal` lint rule enforces that an
//! `append_op`/`append_checkpoint` on the grant/report path is always
//! followed by the `commit` call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;

use fela_sim::SimTime;

use crate::oplog::{apply_op, CoordOp, OpKind, OpOutcome};
use crate::server::LevelMeta;
use crate::snapshot::ServerSnapshot;
use crate::token::{Token, TokenId};
use crate::{ControlPlane, FelaConfig, ScheduleError, TokenPlan};

/// Maximum accepted record body, a defensive bound against corrupt length
/// prefixes. Checkpoints carry the live window's tokens and snapshot, which
/// grow with the cluster and the staleness bound, so the bound is far more
/// generous than a wire frame's.
pub const MAX_RECORD: u32 = 256 * 1024 * 1024;

/// The record layout this build writes and reads, stamped in every `Begin`
/// record. Version 2 checkpoints carry only the live window: retired
/// iterations are gone from the token table and the snapshot.
pub const WAL_VERSION: u32 = 2;

/// File name of the log inside a `--wal-dir` directory.
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join("fela.wal")
}

// ---- CRC32 (IEEE 802.3, table-driven) -----------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// The checksum every record body is verified against on replay.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---- errors --------------------------------------------------------------

/// Replay failure: the log bytes are not a valid record stream, or the
/// stream does not reproduce the plane that wrote it.
///
/// Structured (not a bare `io::Error`) so `fela-check`'s WAL rule can give
/// each corruption mode a distinct diagnostic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WalError {
    /// The body ended before a field could be read.
    Truncated {
        /// Bytes the field needed.
        wanted: usize,
        /// Offset the read started at.
        offset: usize,
        /// Total body length.
        body: usize,
    },
    /// Bytes remained after the record's last field.
    Trailing {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// A tag byte (record, op, outcome or error tag) is not part of the
    /// format.
    UnknownTag(u8),
    /// An embedded element count is impossible for the bytes that follow it
    /// (guards `Vec::with_capacity` against corrupt counts).
    BadCount {
        /// Which field carried the count.
        what: &'static str,
        /// The claimed element count.
        count: usize,
        /// Bytes actually remaining in the body.
        remaining: usize,
    },
    /// A length prefix exceeded [`MAX_RECORD`].
    Oversized {
        /// The claimed body length.
        len: u64,
        /// The format bound.
        max: u32,
    },
    /// A full-length record's checksum does not match its body — corruption,
    /// not a torn write (torn writes only truncate).
    BadChecksum {
        /// Byte offset of the record's length prefix.
        offset: usize,
        /// The checksum stored in the record.
        stored: u32,
        /// The checksum of the bytes actually present.
        computed: u32,
    },
    /// A field held a value outside its domain (bad bool byte, duplicate
    /// `Begin`, out-of-range integer).
    Malformed {
        /// What was malformed.
        what: &'static str,
    },
    /// The log does not open with a `Begin` record.
    MissingBegin,
    /// The `Begin` record names a layout this build does not read.
    Version {
        /// The log's format version (1 for the unversioned first layout).
        found: u32,
        /// The version this build reads ([`WAL_VERSION`]).
        supported: u32,
    },
    /// The `Begin` record disagrees with the plane shape (cluster size,
    /// iteration count) the caller is recovering into.
    BeginMismatch,
    /// An op record broke the dense sequence chain (dropped, duplicated or
    /// reordered record).
    SeqBroken {
        /// The sequence number the chain required next.
        expected: u64,
        /// The sequence number found.
        found: u64,
    },
    /// Replaying a logged op against the restored plane produced a different
    /// outcome than the one recorded — the log does not describe this plane.
    Diverged {
        /// Sequence number of the diverging op.
        seq: u64,
    },
    /// Restoring the checkpoint snapshot failed.
    Restore(ScheduleError),
    /// An elastic log describes more epochs than the caller provided shapes
    /// for.
    EpochOutOfRange {
        /// Epoch index the log's live segment belongs to.
        epoch: usize,
        /// Number of epoch shapes the caller supplied.
        epochs: usize,
    },
    /// The underlying log store failed.
    Io(io::ErrorKind),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Truncated {
                wanted,
                offset,
                body,
            } => write!(
                f,
                "record truncated: wanted {wanted} bytes at offset {offset}, body is {body}"
            ),
            WalError::Trailing { extra } => {
                write!(f, "{extra} trailing byte(s) after record body")
            }
            WalError::UnknownTag(tag) => write!(f, "unknown record tag {tag}"),
            WalError::BadCount {
                what,
                count,
                remaining,
            } => write!(
                f,
                "{what} count {count} is impossible with {remaining} body byte(s) remaining"
            ),
            WalError::Oversized { len, max } => {
                write!(f, "record of {len} bytes exceeds the {max}-byte bound")
            }
            WalError::BadChecksum {
                offset,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch at offset {offset}: stored {stored:#010x}, computed {computed:#010x}"
            ),
            WalError::Malformed { what } => write!(f, "malformed field: {what}"),
            WalError::MissingBegin => write!(f, "log does not open with a Begin record"),
            WalError::Version { found, supported } => write!(
                f,
                "log is format version {found}, this build reads version {supported}"
            ),
            WalError::BeginMismatch => {
                write!(f, "Begin record disagrees with the recovering plane's shape")
            }
            WalError::SeqBroken { expected, found } => write!(
                f,
                "op sequence broken: expected seq {expected}, found {found}"
            ),
            WalError::Diverged { seq } => write!(
                f,
                "replayed op {seq} produced a different outcome than recorded"
            ),
            WalError::Restore(e) => write!(f, "checkpoint restore failed: {e}"),
            WalError::EpochOutOfRange { epoch, epochs } => write!(
                f,
                "log's live segment is epoch {epoch} but only {epochs} epoch shape(s) were given"
            ),
            WalError::Io(kind) => write!(f, "log store failed: {kind}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> WalError {
        WalError::Io(e.kind())
    }
}

// ---- primitive codec -----------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    put_u8(out, v as u8);
}

fn put_count(out: &mut Vec<u8>, n: usize) {
    put_u32(out, n as u32);
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WalError> {
        if n > self.buf.len() - self.pos {
            return Err(WalError::Truncated {
                wanted: n,
                offset: self.pos,
                body: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn u8(&mut self) -> Result<u8, WalError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WalError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WalError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn usize(&mut self) -> Result<usize, WalError> {
        usize::try_from(self.u64()?).map_err(|_| WalError::Malformed {
            what: "usize out of range",
        })
    }

    fn boolean(&mut self) -> Result<bool, WalError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WalError::Malformed { what: "bool byte" }),
        }
    }

    /// Reads an element count and guards it against the bytes remaining
    /// (`min_elem` = smallest possible encoded element).
    fn count(&mut self, what: &'static str, min_elem: usize) -> Result<usize, WalError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem) > self.remaining() {
            return Err(WalError::BadCount {
                what,
                count: n,
                remaining: self.remaining(),
            });
        }
        Ok(n)
    }

    fn done(&self) -> Result<(), WalError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WalError::Trailing {
                extra: self.buf.len() - self.pos,
            })
        }
    }
}

// ---- list codecs ---------------------------------------------------------

fn put_u64_list(out: &mut Vec<u8>, list: &[u64]) {
    put_count(out, list.len());
    for &v in list {
        put_u64(out, v);
    }
}

fn get_u64_list(c: &mut Cursor<'_>, what: &'static str) -> Result<Vec<u64>, WalError> {
    let n = c.count(what, 8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(c.u64()?);
    }
    Ok(out)
}

fn put_usize_list(out: &mut Vec<u8>, list: &[usize]) {
    put_count(out, list.len());
    for &v in list {
        put_usize(out, v);
    }
}

fn get_usize_list(c: &mut Cursor<'_>, what: &'static str) -> Result<Vec<usize>, WalError> {
    let n = c.count(what, 8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(c.usize()?);
    }
    Ok(out)
}

fn put_bool_list(out: &mut Vec<u8>, list: &[bool]) {
    put_count(out, list.len());
    for &v in list {
        put_bool(out, v);
    }
}

fn get_bool_list(c: &mut Cursor<'_>, what: &'static str) -> Result<Vec<bool>, WalError> {
    let n = c.count(what, 1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(c.boolean()?);
    }
    Ok(out)
}

fn put_u64_usize_pairs(out: &mut Vec<u8>, list: &[(u64, usize)]) {
    put_count(out, list.len());
    for &(a, b) in list {
        put_u64(out, a);
        put_usize(out, b);
    }
}

fn get_u64_usize_pairs(
    c: &mut Cursor<'_>,
    what: &'static str,
) -> Result<Vec<(u64, usize)>, WalError> {
    let n = c.count(what, 16)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push((c.u64()?, c.usize()?));
    }
    Ok(out)
}

fn put_usize_u64_pairs(out: &mut Vec<u8>, list: &[(usize, u64)]) {
    put_count(out, list.len());
    for &(a, b) in list {
        put_usize(out, a);
        put_u64(out, b);
    }
}

fn get_usize_u64_pairs(
    c: &mut Cursor<'_>,
    what: &'static str,
) -> Result<Vec<(usize, u64)>, WalError> {
    let n = c.count(what, 16)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push((c.usize()?, c.u64()?));
    }
    Ok(out)
}

fn put_u64_u64_pairs(out: &mut Vec<u8>, list: &[(u64, u64)]) {
    put_count(out, list.len());
    for &(a, b) in list {
        put_u64(out, a);
        put_u64(out, b);
    }
}

fn get_u64_u64_pairs(c: &mut Cursor<'_>, what: &'static str) -> Result<Vec<(u64, u64)>, WalError> {
    let n = c.count(what, 16)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push((c.u64()?, c.u64()?));
    }
    Ok(out)
}

// ---- ScheduleError codec -------------------------------------------------

const ERR_INVALID_WORKER: u8 = 1;
const ERR_UNKNOWN_TOKEN: u8 = 2;
const ERR_DUPLICATE_REPORT: u8 = 3;
const ERR_CORRUPT_BUCKET: u8 = 4;
const ERR_MISSING_SAMPLE_OWNER: u8 = 5;
const ERR_MISSING_DEP_HOLDER: u8 = 6;
const ERR_CTD_CONFIG_MISSING: u8 = 7;
const ERR_EMPTY_CTD_SUBSET: u8 = 8;
const ERR_LEVEL_OUT_OF_RANGE: u8 = 9;
const ERR_DUPLICATE_SYNC: u8 = 10;
const ERR_OVER_GENERATION: u8 = 11;
const ERR_STALE_REPORT: u8 = 12;
const ERR_WORKER_UNAVAILABLE: u8 = 13;
const ERR_BAD_LIVENESS: u8 = 14;
const ERR_NO_ALIVE_WORKERS: u8 = 15;

fn put_schedule_error(out: &mut Vec<u8>, e: &ScheduleError) {
    match e {
        ScheduleError::InvalidWorker { worker, n_workers } => {
            put_u8(out, ERR_INVALID_WORKER);
            put_usize(out, *worker);
            put_usize(out, *n_workers);
        }
        ScheduleError::UnknownToken { token } => {
            put_u8(out, ERR_UNKNOWN_TOKEN);
            put_u64(out, token.0);
        }
        ScheduleError::DuplicateReport { token } => {
            put_u8(out, ERR_DUPLICATE_REPORT);
            put_u64(out, token.0);
        }
        ScheduleError::CorruptBucket {
            bucket,
            level,
            position,
        } => {
            put_u8(out, ERR_CORRUPT_BUCKET);
            put_usize(out, *bucket);
            put_usize(out, *level);
            put_usize(out, *position);
        }
        ScheduleError::MissingSampleOwner { token } => {
            put_u8(out, ERR_MISSING_SAMPLE_OWNER);
            put_u64(out, token.0);
        }
        ScheduleError::MissingDependencyHolder { token, dep } => {
            put_u8(out, ERR_MISSING_DEP_HOLDER);
            put_u64(out, token.0);
            put_u64(out, dep.0);
        }
        ScheduleError::CtdConfigMissing { level } => {
            put_u8(out, ERR_CTD_CONFIG_MISSING);
            put_usize(out, *level);
        }
        ScheduleError::EmptyCtdSubset { level } => {
            put_u8(out, ERR_EMPTY_CTD_SUBSET);
            put_usize(out, *level);
        }
        ScheduleError::LevelOutOfRange { level, levels } => {
            put_u8(out, ERR_LEVEL_OUT_OF_RANGE);
            put_usize(out, *level);
            put_usize(out, *levels);
        }
        ScheduleError::DuplicateSync { level, iteration } => {
            put_u8(out, ERR_DUPLICATE_SYNC);
            put_usize(out, *level);
            put_u64(out, *iteration);
        }
        ScheduleError::OverGeneration { level, iteration } => {
            put_u8(out, ERR_OVER_GENERATION);
            put_usize(out, *level);
            put_u64(out, *iteration);
        }
        ScheduleError::StaleReport { worker, token } => {
            put_u8(out, ERR_STALE_REPORT);
            put_usize(out, *worker);
            put_u64(out, token.0);
        }
        ScheduleError::WorkerUnavailable { worker } => {
            put_u8(out, ERR_WORKER_UNAVAILABLE);
            put_usize(out, *worker);
        }
        ScheduleError::BadLivenessTransition { worker, alive } => {
            put_u8(out, ERR_BAD_LIVENESS);
            put_usize(out, *worker);
            put_bool(out, *alive);
        }
        ScheduleError::NoAliveWorkers => put_u8(out, ERR_NO_ALIVE_WORKERS),
    }
}

fn get_schedule_error(c: &mut Cursor<'_>) -> Result<ScheduleError, WalError> {
    Ok(match c.u8()? {
        ERR_INVALID_WORKER => ScheduleError::InvalidWorker {
            worker: c.usize()?,
            n_workers: c.usize()?,
        },
        ERR_UNKNOWN_TOKEN => ScheduleError::UnknownToken {
            token: TokenId(c.u64()?),
        },
        ERR_DUPLICATE_REPORT => ScheduleError::DuplicateReport {
            token: TokenId(c.u64()?),
        },
        ERR_CORRUPT_BUCKET => ScheduleError::CorruptBucket {
            bucket: c.usize()?,
            level: c.usize()?,
            position: c.usize()?,
        },
        ERR_MISSING_SAMPLE_OWNER => ScheduleError::MissingSampleOwner {
            token: TokenId(c.u64()?),
        },
        ERR_MISSING_DEP_HOLDER => ScheduleError::MissingDependencyHolder {
            token: TokenId(c.u64()?),
            dep: TokenId(c.u64()?),
        },
        ERR_CTD_CONFIG_MISSING => ScheduleError::CtdConfigMissing { level: c.usize()? },
        ERR_EMPTY_CTD_SUBSET => ScheduleError::EmptyCtdSubset { level: c.usize()? },
        ERR_LEVEL_OUT_OF_RANGE => ScheduleError::LevelOutOfRange {
            level: c.usize()?,
            levels: c.usize()?,
        },
        ERR_DUPLICATE_SYNC => ScheduleError::DuplicateSync {
            level: c.usize()?,
            iteration: c.u64()?,
        },
        ERR_OVER_GENERATION => ScheduleError::OverGeneration {
            level: c.usize()?,
            iteration: c.u64()?,
        },
        ERR_STALE_REPORT => ScheduleError::StaleReport {
            worker: c.usize()?,
            token: TokenId(c.u64()?),
        },
        ERR_WORKER_UNAVAILABLE => ScheduleError::WorkerUnavailable { worker: c.usize()? },
        ERR_BAD_LIVENESS => ScheduleError::BadLivenessTransition {
            worker: c.usize()?,
            alive: c.boolean()?,
        },
        ERR_NO_ALIVE_WORKERS => ScheduleError::NoAliveWorkers,
        tag => return Err(WalError::UnknownTag(tag)),
    })
}

// ---- CoordOp codec -------------------------------------------------------

const KIND_REQUEST: u8 = 1;
const KIND_POP: u8 = 2;
const KIND_REPORT: u8 = 3;
const KIND_SYNC_FINISHED: u8 = 4;
const KIND_WORKER_CRASHED: u8 = 5;
const KIND_WORKER_RESTARTED: u8 = 6;
const KIND_LEASE_EXPIRED: u8 = 7;

fn put_op_kind(out: &mut Vec<u8>, kind: &OpKind) {
    match kind {
        OpKind::Request { worker, now } => {
            put_u8(out, KIND_REQUEST);
            put_usize(out, *worker);
            put_u64(out, now.as_nanos());
        }
        OpKind::PopReadyGrant { now } => {
            put_u8(out, KIND_POP);
            put_u64(out, now.as_nanos());
        }
        OpKind::Report { worker, token } => {
            put_u8(out, KIND_REPORT);
            put_usize(out, *worker);
            put_u64(out, *token);
        }
        OpKind::SyncFinished { level, iteration } => {
            put_u8(out, KIND_SYNC_FINISHED);
            put_usize(out, *level);
            put_u64(out, *iteration);
        }
        OpKind::WorkerCrashed { worker } => {
            put_u8(out, KIND_WORKER_CRASHED);
            put_usize(out, *worker);
        }
        OpKind::WorkerRestarted { worker } => {
            put_u8(out, KIND_WORKER_RESTARTED);
            put_usize(out, *worker);
        }
        OpKind::LeaseExpired { token, attempt } => {
            put_u8(out, KIND_LEASE_EXPIRED);
            put_u64(out, *token);
            put_u64(out, *attempt);
        }
    }
}

fn get_op_kind(c: &mut Cursor<'_>) -> Result<OpKind, WalError> {
    Ok(match c.u8()? {
        KIND_REQUEST => OpKind::Request {
            worker: c.usize()?,
            now: SimTime::from_nanos(c.u64()?),
        },
        KIND_POP => OpKind::PopReadyGrant {
            now: SimTime::from_nanos(c.u64()?),
        },
        KIND_REPORT => OpKind::Report {
            worker: c.usize()?,
            token: c.u64()?,
        },
        KIND_SYNC_FINISHED => OpKind::SyncFinished {
            level: c.usize()?,
            iteration: c.u64()?,
        },
        KIND_WORKER_CRASHED => OpKind::WorkerCrashed { worker: c.usize()? },
        KIND_WORKER_RESTARTED => OpKind::WorkerRestarted { worker: c.usize()? },
        KIND_LEASE_EXPIRED => OpKind::LeaseExpired {
            token: c.u64()?,
            attempt: c.u64()?,
        },
        tag => return Err(WalError::UnknownTag(tag)),
    })
}

const OUT_GRANTED: u8 = 1;
const OUT_NO_GRANT: u8 = 2;
const OUT_SYNCED: u8 = 3;
const OUT_REVOKED: u8 = 4;
const OUT_EXPIRED: u8 = 5;
const OUT_NO_LEASE: u8 = 6;
const OUT_DONE: u8 = 7;
const OUT_FAILED: u8 = 8;

fn put_op_outcome(out: &mut Vec<u8>, outcome: &OpOutcome) {
    match outcome {
        OpOutcome::Granted {
            worker,
            token,
            attempt,
            conflict,
            fetches,
        } => {
            put_u8(out, OUT_GRANTED);
            put_usize(out, *worker);
            put_u64(out, *token);
            put_u64(out, *attempt);
            put_bool(out, *conflict);
            put_usize_u64_pairs(out, fetches);
        }
        OpOutcome::NoGrant => put_u8(out, OUT_NO_GRANT),
        OpOutcome::Synced { syncs } => {
            put_u8(out, OUT_SYNCED);
            put_usize_u64_pairs(out, syncs);
        }
        OpOutcome::Revoked { tokens } => {
            put_u8(out, OUT_REVOKED);
            put_u64_list(out, tokens);
        }
        OpOutcome::Expired {
            worker,
            revoked,
            quarantined,
        } => {
            put_u8(out, OUT_EXPIRED);
            put_usize(out, *worker);
            put_u64_list(out, revoked);
            put_bool(out, *quarantined);
        }
        OpOutcome::NoLease => put_u8(out, OUT_NO_LEASE),
        OpOutcome::Done => put_u8(out, OUT_DONE),
        OpOutcome::Failed(e) => {
            put_u8(out, OUT_FAILED);
            put_schedule_error(out, e);
        }
    }
}

fn get_op_outcome(c: &mut Cursor<'_>) -> Result<OpOutcome, WalError> {
    Ok(match c.u8()? {
        OUT_GRANTED => OpOutcome::Granted {
            worker: c.usize()?,
            token: c.u64()?,
            attempt: c.u64()?,
            conflict: c.boolean()?,
            fetches: get_usize_u64_pairs(c, "fetches")?,
        },
        OUT_NO_GRANT => OpOutcome::NoGrant,
        OUT_SYNCED => OpOutcome::Synced {
            syncs: get_usize_u64_pairs(c, "syncs")?,
        },
        OUT_REVOKED => OpOutcome::Revoked {
            tokens: get_u64_list(c, "revoked tokens")?,
        },
        OUT_EXPIRED => OpOutcome::Expired {
            worker: c.usize()?,
            revoked: get_u64_list(c, "expired revocations")?,
            quarantined: c.boolean()?,
        },
        OUT_NO_LEASE => OpOutcome::NoLease,
        OUT_DONE => OpOutcome::Done,
        OUT_FAILED => OpOutcome::Failed(get_schedule_error(c)?),
        tag => return Err(WalError::UnknownTag(tag)),
    })
}

fn put_coord_op(out: &mut Vec<u8>, op: &CoordOp) {
    put_op_kind(out, &op.kind);
    put_op_outcome(out, &op.outcome);
}

fn get_coord_op(c: &mut Cursor<'_>) -> Result<CoordOp, WalError> {
    Ok(CoordOp {
        kind: get_op_kind(c)?,
        outcome: get_op_outcome(c)?,
    })
}

// ---- Token codec ---------------------------------------------------------

fn put_token(out: &mut Vec<u8>, t: &Token) {
    put_u64(out, t.id.0);
    put_usize(out, t.level);
    put_u64(out, t.iteration);
    put_u64(out, t.seq);
    put_u64(out, t.batch);
    put_count(out, t.deps.len());
    for d in &t.deps {
        put_u64(out, d.0);
    }
    match t.sample_owner {
        Some(w) => {
            put_u8(out, 1);
            put_usize(out, w);
        }
        None => put_u8(out, 0),
    }
}

fn get_token(c: &mut Cursor<'_>) -> Result<Token, WalError> {
    let id = TokenId(c.u64()?);
    let level = c.usize()?;
    let iteration = c.u64()?;
    let seq = c.u64()?;
    let batch = c.u64()?;
    let n_deps = c.count("token deps", 8)?;
    let mut deps = Vec::with_capacity(n_deps);
    for _ in 0..n_deps {
        deps.push(TokenId(c.u64()?));
    }
    let sample_owner = match c.u8()? {
        0 => None,
        1 => Some(c.usize()?),
        _ => {
            return Err(WalError::Malformed {
                what: "sample_owner flag",
            })
        }
    };
    Ok(Token {
        id,
        level,
        iteration,
        seq,
        batch,
        deps,
        sample_owner,
    })
}

// ---- ServerSnapshot codec ------------------------------------------------

fn put_snapshot(out: &mut Vec<u8>, s: &ServerSnapshot) {
    put_u64(out, s.released_roots);
    put_u64(out, s.next_token_id);
    put_count(out, s.stbs.len());
    for bucket in &s.stbs {
        put_count(out, bucket.len());
        for level in bucket {
            put_u64_list(out, level);
        }
    }
    put_count(out, s.pending.len());
    for level in &s.pending {
        put_u64_usize_pairs(out, level);
    }
    put_u64_list(out, &s.synced_upto);
    put_count(out, s.synced_out_of_order.len());
    for level in &s.synced_out_of_order {
        put_u64_list(out, level);
    }
    put_count(out, s.completed.len());
    for level in &s.completed {
        put_u64_u64_pairs(out, level);
    }
    put_count(out, s.gen_buffers.len());
    for level in &s.gen_buffers {
        put_count(out, level.len());
        for (iteration, ids) in level {
            put_u64(out, *iteration);
            put_u64_list(out, ids);
        }
    }
    put_u64_usize_pairs(out, &s.holder);
    put_usize_list(out, &s.waiting);
    put_u64_list(out, &s.helpers);
    put_bool_list(out, &s.alive);
    put_bool_list(out, &s.quarantined);
    put_count(out, s.leases.len());
    for &(token, worker, attempt) in &s.leases {
        put_u64(out, token);
        put_usize(out, worker);
        put_u64(out, attempt);
    }
    put_u64_u64_pairs(out, &s.attempts);
    put_u64_list(out, &s.expiry_counts);
    put_usize_list(out, &s.data_home);
    put_usize_u64_pairs(out, &s.parked);
}

fn get_snapshot(c: &mut Cursor<'_>) -> Result<ServerSnapshot, WalError> {
    let released_roots = c.u64()?;
    let next_token_id = c.u64()?;
    let n_buckets = c.count("stb buckets", 4)?;
    let mut stbs = Vec::with_capacity(n_buckets);
    for _ in 0..n_buckets {
        let n_levels = c.count("stb levels", 4)?;
        let mut bucket = Vec::with_capacity(n_levels);
        for _ in 0..n_levels {
            bucket.push(get_u64_list(c, "stb queue")?);
        }
        stbs.push(bucket);
    }
    let n_pending = c.count("pending levels", 4)?;
    let mut pending = Vec::with_capacity(n_pending);
    for _ in 0..n_pending {
        pending.push(get_u64_usize_pairs(c, "pending tokens")?);
    }
    let synced_upto = get_u64_list(c, "synced_upto")?;
    let n_ooo = c.count("out-of-order levels", 4)?;
    let mut synced_out_of_order = Vec::with_capacity(n_ooo);
    for _ in 0..n_ooo {
        synced_out_of_order.push(get_u64_list(c, "out-of-order syncs")?);
    }
    let n_completed = c.count("completed levels", 4)?;
    let mut completed = Vec::with_capacity(n_completed);
    for _ in 0..n_completed {
        completed.push(get_u64_u64_pairs(c, "completion counts")?);
    }
    let n_gen = c.count("gen-buffer levels", 4)?;
    let mut gen_buffers = Vec::with_capacity(n_gen);
    for _ in 0..n_gen {
        let n_iters = c.count("gen-buffer iterations", 12)?;
        let mut level = Vec::with_capacity(n_iters);
        for _ in 0..n_iters {
            let iteration = c.u64()?;
            level.push((iteration, get_u64_list(c, "gen-buffer tokens")?));
        }
        gen_buffers.push(level);
    }
    let holder = get_u64_usize_pairs(c, "holders")?;
    let waiting = get_usize_list(c, "waiting workers")?;
    let helpers = get_u64_list(c, "helpers")?;
    let alive = get_bool_list(c, "alive flags")?;
    let quarantined = get_bool_list(c, "quarantine flags")?;
    let n_leases = c.count("leases", 24)?;
    let mut leases = Vec::with_capacity(n_leases);
    for _ in 0..n_leases {
        leases.push((c.u64()?, c.usize()?, c.u64()?));
    }
    let attempts = get_u64_u64_pairs(c, "attempts")?;
    let expiry_counts = get_u64_list(c, "expiry counts")?;
    let data_home = get_usize_list(c, "data homes")?;
    let parked = get_usize_u64_pairs(c, "parked tokens")?;
    Ok(ServerSnapshot {
        released_roots,
        next_token_id,
        stbs,
        pending,
        synced_upto,
        synced_out_of_order,
        completed,
        gen_buffers,
        holder,
        waiting,
        helpers,
        alive,
        quarantined,
        leases,
        attempts,
        expiry_counts,
        data_home,
        parked,
    })
}

// ---- records -------------------------------------------------------------

/// The version-1 `Begin` tag, which carried no version field.
const TAG_BEGIN_V1: u8 = 1;
const TAG_OP: u8 = 2;
const TAG_CHECKPOINT: u8 = 3;
const TAG_RESIZE: u8 = 4;
const TAG_BEGIN: u8 = 5;

/// One log record.
#[derive(Clone, PartialEq, Debug)]
pub enum WalRecord {
    /// Opens the log: the plane shape the records describe, stamped with
    /// [`WAL_VERSION`]. Recovery refuses a log whose `Begin` disagrees with
    /// the plane being rebuilt or names another version.
    Begin {
        /// Cluster size.
        n_workers: u32,
        /// Total iterations of the run.
        max_iterations: u64,
    },
    /// One logged control-plane operation: inputs plus outcome digest.
    Op {
        /// Dense, zero-based sequence number (gap/duplicate detection).
        seq: u64,
        /// The operation.
        op: CoordOp,
    },
    /// An epoch boundary in an elastic log: the cluster resized at
    /// `iteration` to `n_workers` workers. The next `Begin` record opens the
    /// new epoch's segment (its writer restarts op sequencing at 0).
    /// Fixed-membership recovery ([`recover`]) rejects these; elastic
    /// recovery ([`recover_elastic`]) uses them to locate the live segment.
    Resize {
        /// Global iteration the resize took effect at.
        iteration: u64,
        /// Cluster size *after* the resize.
        n_workers: u32,
    },
    /// A checkpoint of the live window; replay resumes from the latest one.
    Checkpoint {
        /// Sequence number of the *next* op after this checkpoint.
        seq: u64,
        /// Opaque runtime payload (e.g. the live server's committed
        /// completion schedule) restored verbatim on recovery.
        payload: Vec<u8>,
        /// The live token table (retired iterations excluded), in id order.
        tokens: Vec<Token>,
        /// The scheduling state (boxed: a snapshot dwarfs the other
        /// variants, and records travel through `Vec<WalRecord>`).
        snapshot: Box<ServerSnapshot>,
    },
}

fn encode_body(rec: &WalRecord) -> Vec<u8> {
    let mut body = Vec::new();
    match rec {
        WalRecord::Begin {
            n_workers,
            max_iterations,
        } => {
            put_u8(&mut body, TAG_BEGIN);
            put_u32(&mut body, WAL_VERSION);
            put_u32(&mut body, *n_workers);
            put_u64(&mut body, *max_iterations);
        }
        WalRecord::Op { seq, op } => {
            put_u8(&mut body, TAG_OP);
            put_u64(&mut body, *seq);
            put_coord_op(&mut body, op);
        }
        WalRecord::Resize {
            iteration,
            n_workers,
        } => {
            put_u8(&mut body, TAG_RESIZE);
            put_u64(&mut body, *iteration);
            put_u32(&mut body, *n_workers);
        }
        WalRecord::Checkpoint {
            seq,
            payload,
            tokens,
            snapshot,
        } => {
            put_u8(&mut body, TAG_CHECKPOINT);
            put_u64(&mut body, *seq);
            put_count(&mut body, payload.len());
            body.extend_from_slice(payload);
            put_count(&mut body, tokens.len());
            for t in tokens {
                put_token(&mut body, t);
            }
            put_snapshot(&mut body, snapshot);
        }
    }
    body
}

fn decode_body(body: &[u8]) -> Result<WalRecord, WalError> {
    let mut c = Cursor::new(body);
    let rec = match c.u8()? {
        TAG_BEGIN_V1 => {
            return Err(WalError::Version {
                found: 1,
                supported: WAL_VERSION,
            })
        }
        TAG_BEGIN => {
            let found = c.u32()?;
            if found != WAL_VERSION {
                return Err(WalError::Version {
                    found,
                    supported: WAL_VERSION,
                });
            }
            WalRecord::Begin {
                n_workers: c.u32()?,
                max_iterations: c.u64()?,
            }
        }
        TAG_OP => WalRecord::Op {
            seq: c.u64()?,
            op: get_coord_op(&mut c)?,
        },
        TAG_RESIZE => WalRecord::Resize {
            iteration: c.u64()?,
            n_workers: c.u32()?,
        },
        TAG_CHECKPOINT => {
            let seq = c.u64()?;
            let n_payload = c.count("checkpoint payload", 1)?;
            let payload = c.take(n_payload)?.to_vec();
            let n_tokens = c.count("checkpoint tokens", 41)?;
            let mut tokens = Vec::with_capacity(n_tokens);
            for _ in 0..n_tokens {
                tokens.push(get_token(&mut c)?);
            }
            let snapshot = Box::new(get_snapshot(&mut c)?);
            WalRecord::Checkpoint {
                seq,
                payload,
                tokens,
                snapshot,
            }
        }
        tag => return Err(WalError::UnknownTag(tag)),
    };
    c.done()?;
    Ok(rec)
}

/// Encodes one record with its length prefix and checksum.
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let body = encode_body(rec);
    let mut out = Vec::with_capacity(8 + body.len());
    put_u32(&mut out, body.len() as u32);
    put_u32(&mut out, crc32(&body));
    out.extend_from_slice(&body);
    out
}

/// A decoded log: every complete record, plus the length of the torn tail
/// (0 when the log ends on a record boundary).
#[derive(Clone, PartialEq, Debug)]
pub struct ReadLog {
    /// The complete records, in log order.
    pub records: Vec<WalRecord>,
    /// Bytes of a final record cut short by a crash mid-write, dropped
    /// cleanly (a resumed writer truncates them away).
    pub torn_bytes: usize,
}

impl ReadLog {
    /// Byte length of the valid log prefix (everything before the torn tail).
    pub fn valid_len(&self, total: usize) -> usize {
        total - self.torn_bytes
    }
}

/// Decodes a whole log. Never panics: a torn tail is dropped cleanly, while
/// a checksum mismatch or malformed complete record is an error (corruption,
/// not a crash artifact).
pub fn read_log(bytes: &[u8]) -> Result<ReadLog, WalError> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < 8 {
            // Crash landed inside the prefix or checksum of the last record.
            return Ok(ReadLog {
                records,
                torn_bytes: remaining,
            });
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        if len > MAX_RECORD {
            return Err(WalError::Oversized {
                len: len as u64,
                max: MAX_RECORD,
            });
        }
        let len = len as usize;
        if remaining - 8 < len {
            // Crash landed inside the body of the last record.
            return Ok(ReadLog {
                records,
                torn_bytes: remaining,
            });
        }
        let stored = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        let body = &bytes[pos + 8..pos + 8 + len];
        let computed = crc32(body);
        if stored != computed {
            return Err(WalError::BadChecksum {
                offset: pos,
                stored,
                computed,
            });
        }
        records.push(decode_body(body)?);
        pos += 8 + len;
    }
    Ok(ReadLog {
        records,
        torn_bytes: 0,
    })
}

// ---- sinks ---------------------------------------------------------------

/// Where committed log bytes go. `append` stages bytes at the end of the
/// log; `sync` makes everything appended so far durable. The control plane
/// calls them as a pair via [`WalWriter::commit`] before any logged result
/// becomes externally visible.
pub trait WalSink {
    /// Appends bytes at the end of the log.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Makes every appended byte durable (fsync or equivalent).
    fn sync(&mut self) -> io::Result<()>;
}

/// An in-memory log, shared by handle: the simulator's stand-in for a file.
/// Clones share the same buffer, so the crash injector can read (and
/// truncate) exactly what the plane had committed. Deliberately
/// single-threaded (`Rc`) — the plane and the injector live on one thread.
#[derive(Clone, Debug, Default)]
pub struct MemWal {
    buf: Rc<RefCell<Vec<u8>>>,
}

impl MemWal {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of the committed bytes.
    pub fn bytes(&self) -> Vec<u8> {
        self.buf.borrow().clone()
    }

    /// Committed length in bytes.
    pub fn len(&self) -> usize {
        self.buf.borrow().len()
    }

    /// True when nothing has been committed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops everything after `len` (discarding a torn tail on resume).
    pub fn truncate(&self, len: usize) {
        self.buf.borrow_mut().truncate(len);
    }
}

impl WalSink for MemWal {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.buf.borrow_mut().extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A file-backed log. `sync` is `File::sync_data` — the real fsync
/// discipline the in-memory sink only models.
#[derive(Debug)]
pub struct FileWal {
    file: fs::File,
}

impl FileWal {
    /// Creates (or truncates) the log file.
    pub fn create(path: &Path) -> io::Result<FileWal> {
        let file = fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(FileWal { file })
    }

    /// Reopens an existing log for appending, truncating a torn tail first:
    /// `valid_len` is [`ReadLog::valid_len`] of the bytes recovery read.
    pub fn resume(path: &Path, valid_len: u64) -> io::Result<FileWal> {
        let mut file = fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::End(0))?;
        Ok(FileWal { file })
    }
}

impl WalSink for FileWal {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

// ---- writer --------------------------------------------------------------

/// Appends records to a [`WalSink`] with dense op sequence numbers.
///
/// Appends *stage*; [`commit`](Self::commit) writes and syncs. The staging
/// split exists so the fsync discipline is a visible call site the
/// `no-unflushed-wal` lint rule can check.
pub struct WalWriter {
    sink: Box<dyn WalSink>,
    seq: u64,
    staged: Vec<u8>,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("seq", &self.seq)
            .field("staged", &self.staged.len())
            .finish()
    }
}

impl WalWriter {
    /// A writer over a fresh log (first op gets seq 0).
    pub fn new(sink: Box<dyn WalSink>) -> WalWriter {
        WalWriter {
            sink,
            seq: 0,
            staged: Vec::new(),
        }
    }

    /// A writer resuming an existing log: `next_seq` is
    /// [`Recovered::next_seq`] from the recovery that read it.
    pub fn resume(sink: Box<dyn WalSink>, next_seq: u64) -> WalWriter {
        WalWriter {
            sink,
            seq: next_seq,
            staged: Vec::new(),
        }
    }

    /// Sequence number the next [`append_op`](Self::append_op) will stamp.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Stages the opening `Begin` record.
    pub fn append_begin(&mut self, n_workers: u32, max_iterations: u64) {
        self.staged
            .extend_from_slice(&encode_record(&WalRecord::Begin {
                n_workers,
                max_iterations,
            }));
    }

    /// Stages one op record, stamping and advancing the sequence number.
    pub fn append_op(&mut self, op: &CoordOp) {
        let seq = self.seq;
        self.seq += 1;
        self.staged
            .extend_from_slice(&encode_record(&WalRecord::Op {
                seq,
                op: op.clone(),
            }));
    }

    /// Stages a `Resize` epoch-boundary marker. The elastic driver appends
    /// one *between* epochs: after the old epoch's plane detaches and before
    /// the new epoch's plane stages its `Begin`.
    pub fn append_resize(&mut self, iteration: u64, n_workers: u32) {
        self.staged
            .extend_from_slice(&encode_record(&WalRecord::Resize {
                iteration,
                n_workers,
            }));
    }

    /// Stages a checkpoint of the given state at the current sequence point.
    pub fn append_checkpoint(
        &mut self,
        payload: &[u8],
        tokens: &BTreeMap<TokenId, Token>,
        snapshot: &ServerSnapshot,
    ) {
        self.staged
            .extend_from_slice(&encode_record(&WalRecord::Checkpoint {
                seq: self.seq,
                payload: payload.to_vec(),
                tokens: tokens.values().cloned().collect(),
                snapshot: Box::new(snapshot.clone()),
            }));
    }

    /// Writes and syncs everything staged — the fsync-discipline call that
    /// must land before a logged result becomes externally visible.
    pub fn commit(&mut self) -> io::Result<()> {
        self.sink.append(&self.staged)?;
        self.sink.sync()?;
        self.staged.clear();
        Ok(())
    }
}

// ---- recovery ------------------------------------------------------------

/// The result of replaying a log: a plane snapshot-equal to the one that
/// wrote it, plus everything a runtime needs to resume.
pub struct Recovered {
    /// The rebuilt control plane (WAL not yet attached — call
    /// [`ControlPlane::resume_wal`] with [`Recovered::next_seq`]).
    pub plane: ControlPlane,
    /// The latest checkpoint's opaque payload (empty if no checkpoint).
    pub payload: Vec<u8>,
    /// The op suffix replayed after the latest checkpoint.
    pub ops: Vec<CoordOp>,
    /// `(iteration, level)` of every report the suffix accepted, in log
    /// order — read before the replay applies the report, since a later
    /// sync in the suffix may retire the token.
    pub accepted: Vec<(u64, usize)>,
    /// Bytes of the torn tail the reader dropped (truncate them before
    /// resuming a file-backed log).
    pub torn_bytes: usize,
    /// Sequence number the resumed writer must continue from.
    pub next_seq: u64,
}

/// Rebuilds the control plane a log describes: restore the latest
/// checkpoint (or a fresh plane), then replay the op suffix through
/// [`apply_op`], verifying every recorded outcome digest. Strict: a broken
/// sequence chain or a diverging outcome is an error — `fela-check`'s WAL
/// rule is the lenient, multi-diagnostic counterpart.
///
/// Recovery cost is bounded by the checkpoint interval, not the run length:
/// every frame's checksum and tag/sequence header is verified, but only the
/// latest checkpoint and the ops after it are fully decoded. Superseded
/// checkpoints — each carrying its live window — are checksummed and
/// skipped. ([`read_log`] remains the full-decode reader; `fela-check` uses
/// it to audit every record body.)
pub fn recover(
    bytes: &[u8],
    plan: &TokenPlan,
    cfg: &FelaConfig,
    meta: &[LevelMeta],
    n_workers: usize,
    max_iterations: u64,
) -> Result<Recovered, WalError> {
    // Pass 1: frame scan. Validates framing and checksums exactly as
    // `read_log` does, but only peeks the fixed-offset tag/seq header of
    // each body, locating the latest checkpoint without decoding the
    // superseded ones.
    let mut frames: Vec<&[u8]> = Vec::new();
    let mut torn_bytes = 0usize;
    let mut pos = 0usize;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < 8 {
            torn_bytes = remaining;
            break;
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        if len > MAX_RECORD {
            return Err(WalError::Oversized {
                len: len as u64,
                max: MAX_RECORD,
            });
        }
        let len = len as usize;
        if remaining - 8 < len {
            torn_bytes = remaining;
            break;
        }
        let stored = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        let body = &bytes[pos + 8..pos + 8 + len];
        let computed = crc32(body);
        if stored != computed {
            return Err(WalError::BadChecksum {
                offset: pos,
                stored,
                computed,
            });
        }
        frames.push(body);
        pos += 8 + len;
    }
    let first = match frames.first() {
        Some(body) => *body,
        None => return Err(WalError::MissingBegin),
    };
    match decode_body(first)? {
        WalRecord::Begin {
            n_workers: nw,
            max_iterations: mi,
        } => {
            if nw as usize != n_workers || mi != max_iterations {
                return Err(WalError::BeginMismatch);
            }
        }
        _ => return Err(WalError::MissingBegin),
    }
    let mut expected_seq = 0u64;
    let mut checkpoint_at: Option<usize> = None;
    for (i, body) in frames.iter().enumerate().skip(1) {
        match body.first().copied() {
            Some(tag @ (TAG_OP | TAG_CHECKPOINT)) if body.len() >= 9 => {
                let seq = u64::from_le_bytes([
                    body[1], body[2], body[3], body[4], body[5], body[6], body[7], body[8],
                ]);
                if seq != expected_seq {
                    return Err(WalError::SeqBroken {
                        expected: expected_seq,
                        found: seq,
                    });
                }
                if tag == TAG_OP {
                    expected_seq += 1;
                } else {
                    checkpoint_at = Some(i);
                }
            }
            Some(TAG_BEGIN | TAG_BEGIN_V1) => {
                return Err(WalError::Malformed {
                    what: "duplicate Begin record",
                })
            }
            Some(TAG_RESIZE) => {
                return Err(WalError::Malformed {
                    what: "Resize record inside a fixed-membership segment (use recover_elastic)",
                })
            }
            Some(TAG_OP) | Some(TAG_CHECKPOINT) | None => {
                // Too short for its seq header (or empty) — decode for the
                // precise malformed-record error.
                decode_body(body)?;
                return Err(WalError::Malformed {
                    what: "truncated record header",
                });
            }
            Some(tag) => return Err(WalError::UnknownTag(tag)),
        }
    }
    // Pass 2: decode only what recovery needs — the latest checkpoint and
    // the op suffix after it.
    let suffix_start = checkpoint_at.map_or(1, |i| i + 1);
    let checkpoint: Option<(Vec<u8>, Vec<Token>, Box<ServerSnapshot>)> = match checkpoint_at {
        Some(i) => match decode_body(frames[i])? {
            WalRecord::Checkpoint {
                payload,
                tokens,
                snapshot,
                ..
            } => Some((payload, tokens, snapshot)),
            _ => {
                return Err(WalError::Malformed {
                    what: "checkpoint header on a non-checkpoint body",
                })
            }
        },
        None => None,
    };
    let mut suffix: Vec<CoordOp> = Vec::with_capacity(frames.len() - suffix_start);
    for body in &frames[suffix_start..] {
        match decode_body(body)? {
            WalRecord::Op { op, .. } => suffix.push(op),
            _ => {
                return Err(WalError::Malformed {
                    what: "op header on a non-op body",
                })
            }
        }
    }
    let (payload, mut plane) = match checkpoint {
        Some((payload, tokens, snapshot)) => {
            let table: BTreeMap<TokenId, Token> = tokens.into_iter().map(|t| (t.id, t)).collect();
            let plane = ControlPlane::restore(
                plan.clone(),
                cfg.clone(),
                meta.to_vec(),
                n_workers,
                max_iterations,
                table,
                &snapshot,
            )
            .map_err(WalError::Restore)?;
            (payload, plane)
        }
        None => (
            Vec::new(),
            ControlPlane::new(
                plan.clone(),
                cfg.clone(),
                meta.to_vec(),
                n_workers,
                max_iterations,
            ),
        ),
    };
    let first_seq = expected_seq - suffix.len() as u64;
    let mut accepted = Vec::new();
    for (i, op) in suffix.iter().enumerate() {
        let reported = match op.kind {
            OpKind::Report { token, .. } => {
                plane.token(TokenId(token)).map(|t| (t.iteration, t.level))
            }
            _ => None,
        };
        let outcome = apply_op(&mut plane, &op.kind);
        if outcome != op.outcome {
            return Err(WalError::Diverged {
                seq: first_seq + i as u64,
            });
        }
        if let (Some(completion), OpOutcome::Synced { .. }) = (reported, &outcome) {
            accepted.push(completion);
        }
    }
    Ok(Recovered {
        plane,
        payload,
        ops: suffix,
        accepted,
        torn_bytes,
        next_seq: expected_seq,
    })
}

// ---- elastic recovery ----------------------------------------------------

/// One epoch's plane shape, for [`recover_elastic`]. The elastic controller
/// supplies one per planned epoch, in epoch order.
pub struct EpochShape<'a> {
    /// Token plan of the epoch.
    pub plan: &'a TokenPlan,
    /// Runtime configuration of the epoch.
    pub cfg: &'a FelaConfig,
    /// Per-level metadata of the epoch.
    pub meta: &'a [LevelMeta],
    /// Cluster size during the epoch.
    pub n_workers: usize,
    /// Iteration budget of the epoch's plane.
    pub max_iterations: u64,
}

/// Recovers the **live segment** of an elastic log.
///
/// An elastic log is a chain of fixed-membership segments separated by
/// [`WalRecord::Resize`] markers:
///
/// ```text
/// Begin₀ ops… [ckpt] Resize(it, n₁) Begin₁ ops… Resize(it, n₂) Begin₂ ops…
/// ```
///
/// Each epoch's plane logs exactly as in a fixed-membership run (its own
/// `Begin`, op sequencing restarting at 0), so a crash anywhere lands inside
/// the *last* segment: this scan locates the final `Begin`, matches it to
/// the corresponding [`EpochShape`], and hands the segment to the strict
/// fixed-membership [`recover`]. Returns the epoch index alongside the
/// recovered plane. A log whose final complete record is a `Resize` crashed
/// between the boundary marker and the next epoch's first commit — the new
/// epoch's log is empty, so it resumes from a fresh plane at seq 0.
///
/// # Errors
/// Fails on framing/checksum corruption, a missing `Begin`, a live segment
/// beyond the supplied shapes, and everything [`recover`] rejects within
/// the live segment.
pub fn recover_elastic(
    bytes: &[u8],
    epochs: &[EpochShape<'_>],
) -> Result<(usize, Recovered), WalError> {
    // Offset-tracking frame scan, tolerant of the multi-segment layout.
    // Only framing, checksums and record tags are validated here; `recover`
    // re-validates the live segment strictly (seq chain, digests, shape).
    let mut pos = 0usize;
    let mut begin_count = 0usize;
    let mut last_begin_offset: Option<usize> = None;
    let mut trailing_resize = false;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < 8 {
            break;
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        if len > MAX_RECORD {
            return Err(WalError::Oversized {
                len: len as u64,
                max: MAX_RECORD,
            });
        }
        let len = len as usize;
        if remaining - 8 < len {
            break;
        }
        let stored = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        let body = &bytes[pos + 8..pos + 8 + len];
        let computed = crc32(body);
        if stored != computed {
            return Err(WalError::BadChecksum {
                offset: pos,
                stored,
                computed,
            });
        }
        match body.first().copied() {
            Some(TAG_BEGIN | TAG_BEGIN_V1) => {
                // Decode the small record so a foreign layout is refused
                // with its version, wherever the segment sits.
                decode_body(body)?;
                begin_count += 1;
                last_begin_offset = Some(pos);
                trailing_resize = false;
            }
            Some(TAG_RESIZE) => {
                // Fully decode the small marker so corruption is caught even
                // when the segment it closes is superseded.
                decode_body(body)?;
                if last_begin_offset.is_none() {
                    return Err(WalError::MissingBegin);
                }
                trailing_resize = true;
            }
            Some(TAG_OP) | Some(TAG_CHECKPOINT) => {}
            Some(tag) => return Err(WalError::UnknownTag(tag)),
            None => {
                return Err(WalError::Malformed {
                    what: "empty record body",
                })
            }
        }
        pos += 8 + len;
    }
    let torn_bytes = bytes.len() - pos;
    let offset = match last_begin_offset {
        Some(o) => o,
        None => return Err(WalError::MissingBegin),
    };
    if trailing_resize {
        // Crash between the Resize marker and the next epoch's Begin: the
        // new epoch has logged nothing yet.
        let epoch = begin_count;
        let shape = epochs.get(epoch).ok_or(WalError::EpochOutOfRange {
            epoch,
            epochs: epochs.len(),
        })?;
        let plane = ControlPlane::new(
            shape.plan.clone(),
            shape.cfg.clone(),
            shape.meta.to_vec(),
            shape.n_workers,
            shape.max_iterations,
        );
        return Ok((
            epoch,
            Recovered {
                plane,
                payload: Vec::new(),
                ops: Vec::new(),
                accepted: Vec::new(),
                torn_bytes,
                next_seq: 0,
            },
        ));
    }
    let epoch = begin_count - 1;
    let shape = epochs.get(epoch).ok_or(WalError::EpochOutOfRange {
        epoch,
        epochs: epochs.len(),
    })?;
    let recovered = recover(
        &bytes[offset..],
        shape.plan,
        shape.cfg,
        shape.meta,
        shape.n_workers,
        shape.max_iterations,
    )?;
    Ok((epoch, recovered))
}

// ---- payload helpers -----------------------------------------------------

/// Encodes a list of `u64` pairs as an opaque checkpoint payload (the live
/// runtime stores its committed `(iteration, level)` completions this way).
pub fn encode_u64_pairs(pairs: &[(u64, u64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 16 * pairs.len());
    put_u64_u64_pairs(&mut out, pairs);
    out
}

/// Decodes a payload written by [`encode_u64_pairs`].
pub fn decode_u64_pairs(bytes: &[u8]) -> Result<Vec<(u64, u64)>, WalError> {
    let mut c = Cursor::new(bytes);
    let pairs = get_u64_u64_pairs(&mut c, "payload pairs")?;
    c.done()?;
    Ok(pairs)
}

// ---- options -------------------------------------------------------------

/// How a runtime persists its control plane.
#[derive(Clone, Debug)]
pub struct DurabilityOptions {
    /// Directory for the log file ([`wal_path`]). `None` = an in-memory
    /// [`MemWal`] (crash-restart still exercises the full recovery path; the
    /// bytes just never leave the process).
    pub wal_dir: Option<PathBuf>,
    /// Checkpoint after every N completed iterations (0 = never: replay
    /// starts from the `Begin` record).
    pub checkpoint_every: u64,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            wal_dir: None,
            checkpoint_every: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::LevelMeta;
    use crate::{FelaConfig, LevelPlan};
    use fela_sim::SimTime;

    fn small_plan() -> TokenPlan {
        TokenPlan {
            levels: vec![
                LevelPlan {
                    level: 0,
                    tokens_per_iteration: 2,
                    batch_per_token: 4,
                    gen_ratio: 1,
                },
                LevelPlan {
                    level: 1,
                    tokens_per_iteration: 1,
                    batch_per_token: 8,
                    gen_ratio: 2,
                },
            ],
            total_batch: 8,
        }
    }

    fn meta() -> Vec<LevelMeta> {
        vec![
            LevelMeta {
                param_bytes: 4096,
                output_bytes_per_sample: 64,
                input_bytes_per_sample: 64,
                comm_intensive: false,
            },
            LevelMeta {
                param_bytes: 8192,
                output_bytes_per_sample: 32,
                input_bytes_per_sample: 64,
                comm_intensive: false,
            },
        ]
    }

    fn cfg() -> FelaConfig {
        FelaConfig::new(2).with_weights(vec![1, 2])
    }

    fn plane() -> ControlPlane {
        ControlPlane::new(small_plan(), cfg(), meta(), 2, 2)
    }

    /// Drives a plane to completion (the oplog test loop), recording the
    /// committed-byte boundary after every plane call when a log is attached.
    fn drive(plane: &mut ControlPlane, mem: Option<&MemWal>, boundaries: &mut Vec<usize>) {
        let mark = |mem: Option<&MemWal>, boundaries: &mut Vec<usize>| {
            if let Some(m) = mem {
                boundaries.push(m.len());
            }
        };
        let now = SimTime::ZERO;
        while !plane.run_complete() {
            let mut progressed = false;
            for w in 0..2 {
                if let Ok(Some(grant)) = plane.request(w, now) {
                    mark(mem, boundaries);
                    let syncs = plane.report(w, grant.token.id).expect("report accepted");
                    mark(mem, boundaries);
                    for s in syncs {
                        plane.sync_finished(s.level, s.iteration).expect("sync");
                        mark(mem, boundaries);
                    }
                    progressed = true;
                } else {
                    mark(mem, boundaries);
                }
            }
            while let Ok(Some((w, grant))) = plane.pop_ready_grant(now) {
                mark(mem, boundaries);
                let syncs = plane.report(w, grant.token.id).expect("report accepted");
                mark(mem, boundaries);
                for s in syncs {
                    plane.sync_finished(s.level, s.iteration).expect("sync");
                    mark(mem, boundaries);
                }
                progressed = true;
            }
            mark(mem, boundaries);
            assert!(progressed, "run must make progress");
        }
    }

    fn sample_snapshot() -> ServerSnapshot {
        let mut p = plane();
        let _ = p.request(0, SimTime::ZERO);
        p.snapshot()
    }

    fn sample_records() -> Vec<WalRecord> {
        let sched_errors = vec![
            ScheduleError::InvalidWorker {
                worker: 9,
                n_workers: 2,
            },
            ScheduleError::UnknownToken { token: TokenId(7) },
            ScheduleError::DuplicateReport { token: TokenId(3) },
            ScheduleError::CorruptBucket {
                bucket: 1,
                level: 0,
                position: 4,
            },
            ScheduleError::MissingSampleOwner { token: TokenId(2) },
            ScheduleError::MissingDependencyHolder {
                token: TokenId(5),
                dep: TokenId(1),
            },
            ScheduleError::CtdConfigMissing { level: 1 },
            ScheduleError::EmptyCtdSubset { level: 2 },
            ScheduleError::LevelOutOfRange {
                level: 7,
                levels: 2,
            },
            ScheduleError::DuplicateSync {
                level: 0,
                iteration: 3,
            },
            ScheduleError::OverGeneration {
                level: 1,
                iteration: 2,
            },
            ScheduleError::StaleReport {
                worker: 1,
                token: TokenId(6),
            },
            ScheduleError::WorkerUnavailable { worker: 0 },
            ScheduleError::BadLivenessTransition {
                worker: 1,
                alive: true,
            },
            ScheduleError::NoAliveWorkers,
        ];
        let kinds = vec![
            OpKind::Request {
                worker: 0,
                now: SimTime::from_nanos(17),
            },
            OpKind::PopReadyGrant {
                now: SimTime::from_nanos(99),
            },
            OpKind::Report {
                worker: 1,
                token: 42,
            },
            OpKind::SyncFinished {
                level: 1,
                iteration: 3,
            },
            OpKind::WorkerCrashed { worker: 0 },
            OpKind::WorkerRestarted { worker: 1 },
            OpKind::LeaseExpired {
                token: 8,
                attempt: 2,
            },
        ];
        let mut outcomes = vec![
            OpOutcome::Granted {
                worker: 0,
                token: 11,
                attempt: 1,
                conflict: true,
                fetches: vec![(1, 4096), (0, 64)],
            },
            OpOutcome::NoGrant,
            OpOutcome::Synced {
                syncs: vec![(0, 1), (1, 0)],
            },
            OpOutcome::Revoked {
                tokens: vec![3, 4, 5],
            },
            OpOutcome::Expired {
                worker: 1,
                revoked: vec![9],
                quarantined: true,
            },
            OpOutcome::NoLease,
            OpOutcome::Done,
        ];
        outcomes.extend(sched_errors.into_iter().map(OpOutcome::Failed));
        let mut records = vec![WalRecord::Begin {
            n_workers: 2,
            max_iterations: 2,
        }];
        let mut seq = 0u64;
        for kind in &kinds {
            for outcome in &outcomes {
                records.push(WalRecord::Op {
                    seq,
                    op: CoordOp {
                        kind: kind.clone(),
                        outcome: outcome.clone(),
                    },
                });
                seq += 1;
            }
        }
        let token = Token {
            id: TokenId(5),
            level: 1,
            iteration: 0,
            seq: 0,
            batch: 8,
            deps: vec![TokenId(1), TokenId(2)],
            sample_owner: None,
        };
        let root = Token {
            id: TokenId(1),
            level: 0,
            iteration: 0,
            seq: 1,
            batch: 4,
            deps: vec![],
            sample_owner: Some(1),
        };
        records.push(WalRecord::Checkpoint {
            seq,
            payload: vec![1, 2, 3, 255],
            tokens: vec![root, token],
            snapshot: Box::new(sample_snapshot()),
        });
        records.push(WalRecord::Resize {
            iteration: 1,
            n_workers: 3,
        });
        records
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_record_round_trips_bit_exactly() {
        for rec in sample_records() {
            let bytes = encode_record(&rec);
            let log = read_log(&bytes).expect("valid record");
            assert_eq!(log.torn_bytes, 0);
            assert_eq!(log.records, vec![rec.clone()]);
            // Re-encoding the decoded record reproduces the bytes.
            assert_eq!(encode_record(&log.records[0]), bytes);
        }
    }

    #[test]
    fn a_full_log_round_trips_in_order() {
        let records = sample_records();
        let mut bytes = Vec::new();
        for rec in &records {
            bytes.extend_from_slice(&encode_record(rec));
        }
        let log = read_log(&bytes).expect("valid log");
        assert_eq!(log.records, records);
        assert_eq!(log.torn_bytes, 0);
    }

    #[test]
    fn torn_tail_at_every_cut_point_is_dropped_cleanly() {
        let records = sample_records();
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for rec in &records {
            bytes.extend_from_slice(&encode_record(rec));
            boundaries.push(bytes.len());
        }
        for cut in 0..=bytes.len() {
            let log = read_log(&bytes[..cut]).expect("torn tails never error");
            let boundary = boundaries
                .iter()
                .rev()
                .find(|&&b| b <= cut)
                .copied()
                .expect("0 is a boundary");
            let complete = boundaries.iter().position(|&b| b == boundary).expect("idx");
            assert_eq!(log.records.len(), complete, "cut at {cut}");
            assert_eq!(log.torn_bytes, cut - boundary, "cut at {cut}");
            assert_eq!(log.valid_len(cut), boundary, "cut at {cut}");
            assert_eq!(log.records[..], records[..complete]);
        }
    }

    #[test]
    fn corrupt_body_is_a_checksum_error_not_a_torn_tail() {
        let mut bytes = encode_record(&sample_records()[1]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        match read_log(&bytes) {
            Err(WalError::BadChecksum { offset: 0, .. }) => {}
            other => panic!("expected BadChecksum, got {other:?}"),
        }
    }

    #[test]
    fn oversized_prefix_is_rejected() {
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 12]);
        assert!(matches!(read_log(&bytes), Err(WalError::Oversized { .. })));
    }

    #[test]
    fn unknown_tags_error_without_panicking() {
        assert_eq!(
            read_log(&frame(&[99u8, 1, 2, 3])),
            Err(WalError::UnknownTag(99))
        );
    }

    /// Frames a raw record body: length prefix, checksum, body.
    fn frame(body: &[u8]) -> Vec<u8> {
        let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&crc32(body).to_le_bytes());
        bytes.extend_from_slice(body);
        bytes
    }

    #[test]
    fn a_log_in_another_layout_is_refused_with_its_version() {
        let mut p = plane();
        let mem = attach(&mut p);
        p.checkpoint_wal(&[]).expect("checkpoint");
        drive(&mut p, None, &mut Vec::new());
        let log = read_log(&mem.bytes()).expect("read");
        let rest: Vec<u8> = log.records[1..].iter().flat_map(encode_record).collect();
        // Version 1 opened with tag 1 and no version field; its checkpoints
        // carried every token ever minted.
        let mut v1 = vec![TAG_BEGIN_V1];
        v1.extend_from_slice(&2u32.to_le_bytes());
        v1.extend_from_slice(&2u64.to_le_bytes());
        // A later layout under the current tag.
        let mut v3 = vec![TAG_BEGIN];
        v3.extend_from_slice(&(WAL_VERSION + 1).to_le_bytes());
        v3.extend_from_slice(&2u32.to_le_bytes());
        v3.extend_from_slice(&2u64.to_le_bytes());
        for (begin, found) in [(v1, 1), (v3, WAL_VERSION + 1)] {
            let mut bytes = frame(&begin);
            bytes.extend_from_slice(&rest);
            let refused = Err(WalError::Version {
                found,
                supported: WAL_VERSION,
            });
            assert_eq!(read_log(&bytes).map(|_| ()), refused);
            assert_eq!(
                recover(&bytes, p.plan(), p.config(), &meta(), 2, 2).map(|_| ()),
                refused
            );
            let shape = EpochShape {
                plan: p.plan(),
                cfg: p.config(),
                meta: &meta(),
                n_workers: 2,
                max_iterations: 2,
            };
            assert_eq!(recover_elastic(&bytes, &[shape]).map(|_| ()), refused);
        }
        // The current layout still recovers.
        let rec = recover(&mem.bytes(), p.plan(), p.config(), &meta(), 2, 2).expect("v2");
        assert_eq!(rec.plane.snapshot(), p.snapshot());
    }

    fn attach(plane: &mut ControlPlane) -> MemWal {
        let mem = MemWal::new();
        plane
            .attach_wal(Box::new(mem.clone()))
            .expect("attach in-memory wal");
        mem
    }

    #[test]
    fn wal_records_the_drive_and_recovers_the_final_plane() {
        let mut p = plane();
        let mem = attach(&mut p);
        drive(&mut p, None, &mut Vec::new());
        let rec =
            recover(&mem.bytes(), p.plan(), p.config(), &meta(), 2, 2).expect("clean log recovers");
        assert_eq!(rec.plane.snapshot(), p.snapshot());
        assert_eq!(rec.plane.tokens(), p.tokens());
        assert_eq!(rec.torn_bytes, 0);
        assert!(rec.plane.run_complete());
    }

    #[test]
    fn checkpoint_skips_the_prefix_on_recovery() {
        let mut p = plane();
        let mem = attach(&mut p);
        // Run half the drive, checkpoint, then finish.
        let now = SimTime::ZERO;
        for w in 0..2 {
            if let Ok(Some(grant)) = p.request(w, now) {
                let syncs = p.report(w, grant.token.id).expect("report");
                for s in syncs {
                    p.sync_finished(s.level, s.iteration).expect("sync");
                }
            }
        }
        p.checkpoint_wal(&[7, 7, 7]).expect("checkpoint");
        drive(&mut p, None, &mut Vec::new());
        let rec = recover(&mem.bytes(), p.plan(), p.config(), &meta(), 2, 2).expect("recovers");
        assert_eq!(rec.plane.snapshot(), p.snapshot());
        assert_eq!(rec.payload, vec![7, 7, 7]);
        let log = read_log(&mem.bytes()).expect("read");
        let total_ops = log
            .records
            .iter()
            .filter(|r| matches!(r, WalRecord::Op { .. }))
            .count();
        assert!(
            rec.ops.len() < total_ops,
            "suffix replay ({}) must be shorter than the full log ({total_ops})",
            rec.ops.len()
        );
    }

    #[test]
    fn recovery_rejects_a_log_for_a_different_plane_shape() {
        let mut p = plane();
        let mem = attach(&mut p);
        drive(&mut p, None, &mut Vec::new());
        let bytes = mem.bytes();
        assert_eq!(
            recover(&bytes, p.plan(), p.config(), &meta(), 3, 2).map(|_| ()),
            Err(WalError::BeginMismatch),
            "wrong worker count"
        );
        assert_eq!(
            recover(&bytes, p.plan(), p.config(), &meta(), 2, 3).map(|_| ()),
            Err(WalError::BeginMismatch),
            "wrong iteration count"
        );
        assert_eq!(
            recover(&[], p.plan(), p.config(), &meta(), 2, 2).map(|_| ()),
            Err(WalError::MissingBegin)
        );
    }

    #[test]
    fn broken_seq_chains_are_detected() {
        let mut p = plane();
        let mem = attach(&mut p);
        drive(&mut p, None, &mut Vec::new());
        let log = read_log(&mem.bytes()).expect("read");
        // Drop the second op record → gap.
        let mut dropped: Vec<WalRecord> = log.records.clone();
        let op_idx: Vec<usize> = dropped
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, WalRecord::Op { .. }))
            .map(|(i, _)| i)
            .collect();
        dropped.remove(op_idx[1]);
        let bytes: Vec<u8> = dropped.iter().flat_map(encode_record).collect();
        assert!(matches!(
            recover(&bytes, p.plan(), p.config(), &meta(), 2, 2).map(|_| ()),
            Err(WalError::SeqBroken {
                expected: 1,
                found: 2
            })
        ));
        // Duplicate an op record → stalled chain.
        let mut duped = log.records.clone();
        duped.insert(op_idx[1], duped[op_idx[1]].clone());
        let bytes: Vec<u8> = duped.iter().flat_map(encode_record).collect();
        assert!(matches!(
            recover(&bytes, p.plan(), p.config(), &meta(), 2, 2).map(|_| ()),
            Err(WalError::SeqBroken {
                expected: 2,
                found: 1
            })
        ));
    }

    #[test]
    fn recovery_at_every_commit_boundary_matches_a_fresh_replay() {
        // The core crash-consistency property as a deterministic sweep:
        // recovering the log prefix at *any* commit boundary yields the same
        // snapshot as replaying that prefix from scratch (and at the final
        // boundary, the live plane itself).
        let mut p = plane();
        let mem = attach(&mut p);
        let mut boundaries = vec![0usize];
        drive(&mut p, Some(&mem), &mut boundaries);
        let bytes = mem.bytes();
        for &b in &boundaries {
            if b == 0 {
                continue;
            }
            let rec = recover(&bytes[..b], p.plan(), p.config(), &meta(), 2, 2)
                .unwrap_or_else(|e| panic!("boundary {b}: {e}"));
            assert_eq!(rec.torn_bytes, 0);
        }
        let full = recover(&bytes, p.plan(), p.config(), &meta(), 2, 2).expect("full");
        assert_eq!(full.plane.snapshot(), p.snapshot());
    }

    // ---- elastic logs ----------------------------------------------------

    fn plane_n(n_workers: usize) -> ControlPlane {
        ControlPlane::new(small_plan(), cfg(), meta(), n_workers, 2)
    }

    /// One request/report/sync round for every worker that gets a grant.
    fn step_workers(plane: &mut ControlPlane, n: usize) {
        let now = SimTime::ZERO;
        for w in 0..n {
            if let Ok(Some(grant)) = plane.request(w, now) {
                let syncs = plane.report(w, grant.token.id).expect("report");
                for s in syncs {
                    plane.sync_finished(s.level, s.iteration).expect("sync");
                }
            }
        }
    }

    #[test]
    fn recover_elastic_resumes_the_latest_epoch_after_a_join() {
        // Epoch 0: two workers run to completion, with a mid-run checkpoint
        // so the superseded segment also carries one.
        let mut p0 = plane();
        let mem = attach(&mut p0);
        step_workers(&mut p0, 2);
        p0.checkpoint_wal(&[9]).expect("checkpoint");
        drive(&mut p0, None, &mut Vec::new());

        // The cluster grows 2 → 3 at the boundary; the driver logs the
        // marker between the segments.
        let mut marker = WalWriter::new(Box::new(mem.clone()));
        marker.append_resize(2, 3);
        marker.commit().expect("commit marker");

        // Epoch 1: three workers, crash after a few committed ops plus a
        // torn record the fsync never finished.
        let mut p1 = plane_n(3);
        p1.attach_wal(Box::new(mem.clone())).expect("attach");
        step_workers(&mut p1, 3);
        let committed = p1.snapshot();
        let torn = encode_record(&WalRecord::Resize {
            iteration: 9,
            n_workers: 9,
        });
        let mut sink = mem.clone();
        WalSink::append(&mut sink, &torn[..5]).expect("tear");

        let bytes = mem.bytes();
        // The fixed-membership reader refuses to cross the resize — the
        // fixed-worker-set assumption recover_elastic exists to lift.
        assert!(matches!(
            recover(&bytes, p0.plan(), p0.config(), &meta(), 2, 2).map(|_| ()),
            Err(WalError::Malformed { .. })
        ));
        let plan = small_plan();
        let c = cfg();
        let m = meta();
        let shapes = [
            EpochShape {
                plan: &plan,
                cfg: &c,
                meta: &m,
                n_workers: 2,
                max_iterations: 2,
            },
            EpochShape {
                plan: &plan,
                cfg: &c,
                meta: &m,
                n_workers: 3,
                max_iterations: 2,
            },
        ];
        let (epoch, rec) = recover_elastic(&bytes, &shapes).expect("elastic recovery");
        assert_eq!(epoch, 1, "the live segment is the post-join epoch");
        assert_eq!(rec.torn_bytes, 5);
        assert_eq!(rec.plane.snapshot(), committed);
        assert!(rec.next_seq > 0, "epoch 1 logged ops before the crash");
    }

    #[test]
    fn crash_between_resize_and_next_begin_resumes_a_fresh_epoch() {
        let mut p0 = plane();
        let mem = attach(&mut p0);
        drive(&mut p0, None, &mut Vec::new());
        let mut marker = WalWriter::new(Box::new(mem.clone()));
        marker.append_resize(2, 3);
        marker.commit().expect("commit marker");
        let bytes = mem.bytes();
        let plan = small_plan();
        let c = cfg();
        let m = meta();
        let shapes = [
            EpochShape {
                plan: &plan,
                cfg: &c,
                meta: &m,
                n_workers: 2,
                max_iterations: 2,
            },
            EpochShape {
                plan: &plan,
                cfg: &c,
                meta: &m,
                n_workers: 3,
                max_iterations: 2,
            },
        ];
        let (epoch, rec) = recover_elastic(&bytes, &shapes).expect("recover");
        assert_eq!(epoch, 1);
        assert_eq!(rec.next_seq, 0);
        assert!(rec.ops.is_empty());
        assert_eq!(
            rec.plane.snapshot(),
            plane_n(3).snapshot(),
            "a trailing Resize resumes the next epoch from scratch"
        );
    }

    #[test]
    fn recover_elastic_on_a_single_segment_matches_recover() {
        let mut p = plane();
        let mem = attach(&mut p);
        drive(&mut p, None, &mut Vec::new());
        let bytes = mem.bytes();
        let plan = small_plan();
        let c = cfg();
        let m = meta();
        let shapes = [EpochShape {
            plan: &plan,
            cfg: &c,
            meta: &m,
            n_workers: 2,
            max_iterations: 2,
        }];
        let (epoch, rec) = recover_elastic(&bytes, &shapes).expect("recover");
        let fixed = recover(&bytes, p.plan(), p.config(), &meta(), 2, 2).expect("fixed");
        assert_eq!(epoch, 0);
        assert_eq!(rec.plane.snapshot(), fixed.plane.snapshot());
        assert_eq!(rec.next_seq, fixed.next_seq);
    }

    #[test]
    fn recover_elastic_rejects_more_segments_than_shapes() {
        let mut p0 = plane();
        let mem = attach(&mut p0);
        drive(&mut p0, None, &mut Vec::new());
        let mut marker = WalWriter::new(Box::new(mem.clone()));
        marker.append_resize(2, 3);
        marker.commit().expect("commit marker");
        let mut p1 = plane_n(3);
        p1.attach_wal(Box::new(mem.clone())).expect("attach");
        step_workers(&mut p1, 3);
        let plan = small_plan();
        let c = cfg();
        let m = meta();
        let shapes = [EpochShape {
            plan: &plan,
            cfg: &c,
            meta: &m,
            n_workers: 2,
            max_iterations: 2,
        }];
        assert!(matches!(
            recover_elastic(&mem.bytes(), &shapes).map(|_| ()),
            Err(WalError::EpochOutOfRange {
                epoch: 1,
                epochs: 1
            })
        ));
    }

    #[test]
    fn payload_pairs_round_trip() {
        let pairs = vec![(0u64, 1u64), (7, 2), (u64::MAX, 0)];
        let bytes = encode_u64_pairs(&pairs);
        assert_eq!(decode_u64_pairs(&bytes).expect("round trip"), pairs);
        assert_eq!(decode_u64_pairs(&[]).ok(), None, "empty buffer is torn");
        assert!(decode_u64_pairs(&encode_u64_pairs(&[])).is_ok());
    }

    #[test]
    fn file_wal_persists_and_resumes_with_truncation() {
        let dir = std::env::temp_dir().join(format!(
            "fela-wal-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).expect("mkdir");
        let path = wal_path(&dir);
        let mut p = plane();
        p.attach_wal(Box::new(FileWal::create(&path).expect("create")))
            .expect("attach");
        drive(&mut p, None, &mut Vec::new());
        // Tear the tail: append garbage that looks like a cut-off record.
        {
            let mut f = fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("open");
            f.write_all(&[42, 0, 0]).expect("tear");
        }
        let bytes = fs::read(&path).expect("read");
        let rec = recover(&bytes, p.plan(), p.config(), &meta(), 2, 2).expect("recover");
        assert_eq!(rec.torn_bytes, 3);
        assert_eq!(rec.plane.snapshot(), p.snapshot());
        let valid = (bytes.len() - rec.torn_bytes) as u64;
        drop(FileWal::resume(&path, valid).expect("resume"));
        assert_eq!(fs::metadata(&path).expect("meta").len(), valid);
        fs::remove_dir_all(&dir).ok();
    }

    // ---- property tests (wire.rs style) ---------------------------------

    use proptest::prelude::*;

    fn arb_token() -> impl Strategy<Value = Token> {
        (
            any::<u64>(),
            0usize..4,
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(any::<u64>(), 0..4),
            (any::<bool>(), 0usize..8),
        )
            .prop_map(
                |(id, level, iteration, seq, batch, deps, (own, owner))| Token {
                    id: TokenId(id),
                    level,
                    iteration,
                    seq,
                    batch,
                    deps: deps.into_iter().map(TokenId).collect(),
                    sample_owner: if own { Some(owner) } else { None },
                },
            )
    }

    fn arb_op() -> impl Strategy<Value = CoordOp> {
        let kinds = sample_records()
            .into_iter()
            .filter_map(|r| match r {
                WalRecord::Op { op, .. } => Some(op),
                _ => None,
            })
            .collect::<Vec<_>>();
        (0usize..kinds.len(), any::<u64>(), any::<u64>()).prop_map(move |(i, a, b)| {
            let mut op = kinds[i].clone();
            // Perturb the common numeric fields so cases vary beyond the
            // hand-built sample set.
            if let OpKind::Report { token, .. } = &mut op.kind {
                *token = a;
            }
            if let OpOutcome::Granted { token, attempt, .. } = &mut op.outcome {
                *token = a;
                *attempt = b;
            }
            op
        })
    }

    fn arb_record() -> impl Strategy<Value = WalRecord> {
        prop_oneof![
            (any::<u32>(), any::<u64>()).prop_map(|(n_workers, mi)| WalRecord::Begin {
                n_workers,
                max_iterations: mi,
            }),
            (any::<u64>(), arb_op()).prop_map(|(seq, op)| WalRecord::Op { seq, op }),
            (any::<u64>(), any::<u32>()).prop_map(|(iteration, n_workers)| WalRecord::Resize {
                iteration,
                n_workers,
            }),
            (
                any::<u64>(),
                prop::collection::vec(any::<u8>(), 0..64),
                prop::collection::vec(arb_token(), 0..4),
            )
                .prop_map(|(seq, payload, tokens)| WalRecord::Checkpoint {
                    seq,
                    payload,
                    tokens,
                    snapshot: Box::new(sample_snapshot()),
                }),
        ]
    }

    proptest! {
        #[test]
        fn read_log_never_panics_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..512)
        ) {
            // Success or structured error — never a panic.
            let _ = read_log(&bytes);
        }

        #[test]
        fn recover_never_panics_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..512)
        ) {
            let p = plane();
            let _ = recover(&bytes, p.plan(), p.config(), &meta(), 2, 2);
        }

        #[test]
        fn recover_elastic_never_panics_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..512)
        ) {
            let plan = small_plan();
            let c = cfg();
            let m = meta();
            let shapes = [EpochShape {
                plan: &plan,
                cfg: &c,
                meta: &m,
                n_workers: 2,
                max_iterations: 2,
            }];
            let _ = recover_elastic(&bytes, &shapes);
        }

        #[test]
        fn arbitrary_records_round_trip_bit_exactly(rec in arb_record()) {
            let bytes = encode_record(&rec);
            let log = read_log(&bytes).expect("encoded records decode");
            prop_assert_eq!(&log.records[..], std::slice::from_ref(&rec));
            prop_assert_eq!(encode_record(&log.records[0]), bytes);
        }

        #[test]
        fn crash_at_random_offset_recovers_the_committed_prefix(
            pick in any::<u64>(),
            cut_back in 0usize..8,
            checkpoint_every in 0u64..3
        ) {
            // checkpoint → crash at a random log offset → replay must yield
            // a snapshot byte-equal to the uninterrupted plane at that
            // boundary.
            let mut p = plane();
            let mem = attach(&mut p);
            let mut boundaries = vec![mem.len()];
            let now = SimTime::ZERO;
            let mut done_iters = 0u64;
            while !p.run_complete() {
                let mut progressed = false;
                for w in 0..2 {
                    if let Ok(Some(grant)) = p.request(w, now) {
                        boundaries.push(mem.len());
                        let syncs = p.report(w, grant.token.id).expect("report");
                        boundaries.push(mem.len());
                        for s in syncs {
                            p.sync_finished(s.level, s.iteration).expect("sync");
                            boundaries.push(mem.len());
                        }
                        progressed = true;
                    }
                }
                while let Ok(Some((w, grant))) = p.pop_ready_grant(now) {
                    boundaries.push(mem.len());
                    let syncs = p.report(w, grant.token.id).expect("report");
                    boundaries.push(mem.len());
                    for s in syncs {
                        p.sync_finished(s.level, s.iteration).expect("sync");
                        boundaries.push(mem.len());
                    }
                    progressed = true;
                }
                prop_assert!(progressed);
                if checkpoint_every > 0 && p.completed_iterations() > done_iters {
                    done_iters = p.completed_iterations();
                    if done_iters % checkpoint_every == 0 {
                        p.checkpoint_wal(&[]).expect("checkpoint");
                        boundaries.push(mem.len());
                    }
                }
            }
            let bytes = mem.bytes();
            let boundary = boundaries[(pick as usize) % boundaries.len()];
            // A crash mid-record: cut a few bytes past the boundary into the
            // next record — the torn tail must drop cleanly.
            let cut = (boundary + cut_back).min(bytes.len());
            let torn = recover(&bytes[..cut], p.plan(), p.config(), &meta(), 2, 2)
                .expect("torn log recovers");
            // Recovering the *clean* prefix gives the same plane.
            let clean = recover(&bytes[..cut - torn.torn_bytes], p.plan(), p.config(), &meta(), 2, 2)
                .expect("clean prefix recovers");
            prop_assert_eq!(torn.plane.snapshot(), clean.plane.snapshot());
            prop_assert_eq!(torn.next_seq, clean.next_seq);
            // And the full log reproduces the uninterrupted plane exactly.
            let full = recover(&bytes, p.plan(), p.config(), &meta(), 2, 2).expect("full");
            prop_assert_eq!(full.plane.snapshot(), p.snapshot());
            prop_assert_eq!(full.plane.tokens(), p.tokens());
        }
    }
}
