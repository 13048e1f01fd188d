//! Typed storage errors.
//!
//! The important split is between [`StoreError::Io`] (the operating system
//! failed us — retryable, environmental) and [`StoreError::Corruption`] (the
//! bytes on disk are not what we wrote — a torn page, a flipped bit, a
//! truncated file).  Corruption is always detected by checksum or structural
//! validation and surfaced as a typed error; the store never panics on bad
//! bytes and never silently serves them.

use std::fmt;
use verdict_engine::EngineError;

/// An error raised by the persistent store.
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system I/O failure (open, read, write, fsync, ...).
    Io(std::io::Error),
    /// On-disk bytes failed checksum or structural validation.
    Corruption {
        /// The file the corruption was detected in.
        file: String,
        /// What exactly failed to validate.
        detail: String,
    },
    /// The named table is not present in the store.
    NotFound(String),
    /// A table key contains characters that cannot name a store file.
    InvalidName(String),
    /// The scanned table was replaced or removed while a scan was open.
    ScanInvalidated(String),
    /// The engine's rules refuse the write (an append whose column count
    /// differs from the table's); nothing was written.
    Rejected(EngineError),
}

impl StoreError {
    /// Constructs a corruption error for `file`.
    pub fn corruption(file: &str, detail: impl Into<String>) -> StoreError {
        StoreError::Corruption {
            file: file.to_string(),
            detail: detail.into(),
        }
    }

    /// True when this error reports on-disk corruption (rather than an
    /// environmental I/O failure or a missing table).
    pub fn is_corruption(&self) -> bool {
        matches!(self, StoreError::Corruption { .. })
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corruption { file, detail } => {
                write!(f, "store corruption in {file}: {detail}")
            }
            StoreError::NotFound(t) => write!(f, "table not persisted: {t}"),
            StoreError::InvalidName(t) => write!(f, "invalid store table name: {t}"),
            StoreError::ScanInvalidated(t) => {
                write!(f, "scan invalidated: {t} was replaced while being read")
            }
            StoreError::Rejected(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Result alias used throughout the store.
pub type StoreResult<T> = Result<T, StoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corruption_is_typed_and_displayed() {
        let e = StoreError::corruption("t.tbl", "page 3 checksum mismatch");
        assert!(e.is_corruption());
        let s = e.to_string();
        assert!(s.contains("t.tbl") && s.contains("page 3"));
        assert!(!StoreError::NotFound("x".into()).is_corruption());
    }
}
