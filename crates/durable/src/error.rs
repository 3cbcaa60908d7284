//! Error type of the durability layer.

use nrc_data::{CodecError, DataError};
use nrc_engine::NrcError;
use nrc_serve::ServeError;
use std::fmt;
use std::path::PathBuf;

/// Why a durability operation failed.
///
/// *Torn tails are not errors*: a truncated final WAL record or a partially
/// written checkpoint is the expected residue of a crash and is handled
/// silently by recovery (truncate / fall back to the previous checkpoint).
/// `Corrupt` is reserved for damage recovery cannot attribute to a torn
/// tail — a file that is not ours, or a checkpoint whose views disagree
/// with recomputation.
#[derive(Debug)]
pub enum DurableError {
    /// A text-based view registration failed (parse, typecheck, planning
    /// or engine registration) — see [`NrcError`]; the durable state is
    /// unchanged.
    Query(NrcError),
    /// An I/O operation failed.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A byte stream that passed checksum validation failed to decode —
    /// a format bug or deliberate tampering, never a torn tail.
    Codec(CodecError),
    /// A file recovery cannot use and cannot attribute to a torn tail.
    Corrupt {
        /// The damaged file.
        path: PathBuf,
        /// What validation failed.
        detail: String,
    },
    /// Recovery found no usable checkpoint in the directory.
    NoCheckpoint {
        /// The directory scanned.
        dir: PathBuf,
    },
    /// The wrapped serving/engine layer rejected an operation.
    Serve(ServeError),
    /// The data layer rejected an operation.
    Data(DataError),
    /// The view's query has no NRC⁺ surface form, so the catalog cannot
    /// store it: [`DurableSystem::create`](crate::DurableSystem::create)
    /// refuses such a view, and recovery fails on a catalog entry an older
    /// version wrote without a source (`source: None`).
    Uncataloged {
        /// The view without a surface form.
        view: String,
    },
    /// The retained log no longer covers the requested history — a
    /// point-in-time or backfill target older than what
    /// `LogRetention::TruncateAtCheckpoint` kept.
    HistoryTruncated {
        /// The durable directory.
        dir: PathBuf,
        /// What history was needed and what survives.
        detail: String,
    },
    /// This instance is a read-only historical snapshot
    /// ([`DurableSystem::recover_at`](crate::DurableSystem::recover_at));
    /// it accepts no writes, registrations or checkpoints.
    ReadOnly,
    /// An injected failpoint exhausted its byte budget mid-write — the
    /// simulated crash of the kill-point test harness. The system that
    /// observed it is dead; the on-disk state is exactly what a process
    /// killed at that byte would leave behind.
    Killed,
    /// A previous error (or kill) poisoned this system; it no longer
    /// accepts writes. Recover from the directory instead.
    Dead,
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io { path, source } => {
                write!(f, "i/o error on {}: {source}", path.display())
            }
            DurableError::Codec(e) => write!(f, "checksummed payload failed to decode: {e}"),
            DurableError::Corrupt { path, detail } => {
                write!(f, "corrupt durable file {}: {detail}", path.display())
            }
            DurableError::NoCheckpoint { dir } => {
                write!(f, "no usable checkpoint in {}", dir.display())
            }
            DurableError::Query(e) => write!(f, "query registration failed: {e}"),
            DurableError::Serve(e) => write!(f, "serving error: {e}"),
            DurableError::Data(e) => write!(f, "data error: {e}"),
            DurableError::Uncataloged { view } => write!(
                f,
                "view {view} has no NRC⁺ surface form, so the catalog cannot store it"
            ),
            DurableError::HistoryTruncated { dir, detail } => {
                write!(
                    f,
                    "retained log in {} is too short: {detail}",
                    dir.display()
                )
            }
            DurableError::ReadOnly => {
                write!(
                    f,
                    "historical snapshot is read-only (recovered at a point in time)"
                )
            }
            DurableError::Killed => write!(f, "injected failpoint killed the write"),
            DurableError::Dead => write!(f, "durable system is dead after an earlier failure"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io { source, .. } => Some(source),
            DurableError::Codec(e) => Some(e),
            DurableError::Query(e) => Some(e),
            DurableError::Serve(e) => Some(e),
            DurableError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NrcError> for DurableError {
    fn from(e: NrcError) -> DurableError {
        DurableError::Query(e)
    }
}

impl From<CodecError> for DurableError {
    fn from(e: CodecError) -> DurableError {
        DurableError::Codec(e)
    }
}

impl From<ServeError> for DurableError {
    fn from(e: ServeError) -> DurableError {
        DurableError::Serve(e)
    }
}

impl From<DataError> for DurableError {
    fn from(e: DataError) -> DurableError {
        DurableError::Data(e)
    }
}

/// Attach a path to an `std::io::Error`.
pub(crate) fn io_err(path: &std::path::Path, source: std::io::Error) -> DurableError {
    DurableError::Io {
        path: path.to_path_buf(),
        source,
    }
}

impl DurableError {
    /// Was this failure the injected kill-point (simulated crash)?
    pub fn is_kill(&self) -> bool {
        matches!(self, DurableError::Killed)
    }
}
