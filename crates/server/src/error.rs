//! Typed errors of the deletion service.

use std::fmt;

use priu_core::CoreError;

use crate::protocol::ProtocolError;

/// Everything the server can report to a caller.
#[derive(Debug)]
pub enum ServerError {
    /// The named session is not registered.
    UnknownSession(String),
    /// A session with this name is already registered.
    SessionExists(String),
    /// A predict request's feature vector does not match the session's
    /// feature count.
    FeatureMismatch {
        /// Features the session's model expects.
        expected: usize,
        /// Features the request carried.
        got: usize,
    },
    /// A change request's appended rows are malformed or do not fit the
    /// session (shape, label kind, or class range). Rejected at admission
    /// so one bad add never fails a whole coalesced batch.
    InvalidRows(String),
    /// The underlying deletion engine failed (invalid removal set,
    /// factorisation failure, divergence, ...). The session is left on its
    /// pre-batch state.
    Engine(CoreError),
    /// The coalesced batch containing this request failed; every folded
    /// request receives the same rendered engine error. The session is
    /// left on its pre-batch state.
    BatchFailed(String),
    /// The server is shutting down and no longer admits requests.
    ShuttingDown,
    /// The durability layer failed (WAL I/O, snapshot write, or recovery
    /// found unusable persisted state). Raised before acknowledgement, so
    /// a caller seeing this knows the change was *not* made durable.
    Durability(String),
    /// Recovery could not redo a WAL record. Every logged record was
    /// applied live before it was written, so a record that does not
    /// redo means the log (or the snapshot it is redone onto) is corrupt;
    /// the server refuses to start rather than skip an acknowledged
    /// change.
    Redo {
        /// The session the record targets.
        session: String,
        /// The record's log sequence number.
        lsn: u64,
        /// Why the redo failed.
        reason: String,
    },
    /// A wire-protocol frame could not be decoded.
    Protocol(ProtocolError),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::UnknownSession(name) => write!(f, "unknown session {name:?}"),
            ServerError::SessionExists(name) => {
                write!(f, "a session named {name:?} is already registered")
            }
            ServerError::FeatureMismatch { expected, got } => write!(
                f,
                "feature count mismatch: session expects {expected}, request carried {got}"
            ),
            ServerError::InvalidRows(message) => {
                write!(f, "invalid appended rows: {message}")
            }
            ServerError::Engine(err) => write!(f, "deletion engine error: {err}"),
            ServerError::BatchFailed(message) => {
                write!(f, "deletion batch failed: {message}")
            }
            ServerError::ShuttingDown => f.write_str("the server is shutting down"),
            ServerError::Durability(message) => write!(f, "durability error: {message}"),
            ServerError::Redo {
                session,
                lsn,
                reason,
            } => write!(
                f,
                "WAL record {lsn} of session {session:?} does not redo: {reason}"
            ),
            ServerError::Protocol(err) => write!(f, "protocol error: {err}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<CoreError> for ServerError {
    fn from(err: CoreError) -> Self {
        ServerError::Engine(err)
    }
}

impl From<ProtocolError> for ServerError {
    fn from(err: ProtocolError) -> Self {
        ServerError::Protocol(err)
    }
}

/// Convenience alias used across the server crate.
pub type Result<T> = std::result::Result<T, ServerError>;
