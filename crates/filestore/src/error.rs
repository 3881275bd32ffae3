//! Error type for file-level operations.

use core::fmt;

use access::ObjectError;
use erasure::CodeError;

/// Errors from the file-level storage layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum FileError {
    /// An underlying coding operation failed.
    Code(CodeError),
    /// The requested byte range exceeds the file.
    RangeOutOfBounds {
        /// Requested range start.
        offset: u64,
        /// Requested length.
        len: u64,
        /// File length.
        file_len: u64,
    },
    /// The block geometry is invalid for the code.
    BadGeometry {
        /// Explanation.
        reason: String,
    },
    /// Not enough live blocks in some stripe.
    StripeUnrecoverable {
        /// The stripe index.
        stripe: usize,
        /// Live blocks found.
        live: usize,
        /// Blocks required.
        needed: usize,
    },
    /// An I/O error from streaming or the on-disk format.
    Io(std::io::Error),
    /// The on-disk metadata is malformed.
    BadMeta {
        /// Explanation.
        reason: String,
    },
    /// No object is stored under the given name.
    UnknownObject {
        /// The requested object name.
        name: String,
    },
    /// An object already exists under the given name.
    ObjectExists {
        /// The conflicting object name.
        name: String,
    },
}

impl fmt::Display for FileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FileError::Code(e) => write!(f, "coding error: {e}"),
            FileError::RangeOutOfBounds {
                offset,
                len,
                file_len,
            } => write!(
                f,
                "range {offset}..{} exceeds file length {file_len}",
                offset.saturating_add(*len)
            ),
            FileError::BadGeometry { reason } => write!(f, "bad geometry: {reason}"),
            FileError::StripeUnrecoverable {
                stripe,
                live,
                needed,
            } => write!(
                f,
                "stripe {stripe} unrecoverable: {live} live blocks, need {needed}"
            ),
            FileError::Io(e) => write!(f, "i/o error: {e}"),
            FileError::BadMeta { reason } => write!(f, "bad metadata: {reason}"),
            FileError::UnknownObject { name } => write!(f, "unknown object {name:?}"),
            FileError::ObjectExists { name } => write!(f, "object {name:?} already exists"),
        }
    }
}

impl std::error::Error for FileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FileError::Code(e) => Some(e),
            FileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodeError> for FileError {
    fn from(e: CodeError) -> Self {
        FileError::Code(e)
    }
}

/// Object-policy refusals land on the matching file-layer variants.
impl From<ObjectError> for FileError {
    fn from(e: ObjectError) -> Self {
        match e {
            ObjectError::Exists { name } => FileError::ObjectExists { name },
            ObjectError::Unknown { name } => FileError::UnknownObject { name },
            ObjectError::RangeOutOfBounds {
                offset,
                len,
                object_len,
            } => FileError::RangeOutOfBounds {
                offset,
                len,
                file_len: object_len,
            },
            refused @ (ObjectError::ReservedName { .. }
            | ObjectError::PackedAppend { .. }
            | ObjectError::EmptyObject) => FileError::BadGeometry {
                reason: refused.to_string(),
            },
        }
    }
}

impl From<std::io::Error> for FileError {
    fn from(e: std::io::Error) -> Self {
        FileError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = FileError::RangeOutOfBounds {
            offset: 10,
            len: 5,
            file_len: 12,
        };
        assert!(e.to_string().contains("10..15"));
        // An overflowing range still formats (it arrives from the CLI).
        let e = FileError::RangeOutOfBounds {
            offset: u64::MAX,
            len: 2,
            file_len: 12,
        };
        assert!(e.to_string().contains("exceeds file length 12"));
        let e = FileError::StripeUnrecoverable {
            stripe: 3,
            live: 2,
            needed: 4,
        };
        assert!(e.to_string().contains("stripe 3"));
    }

    #[test]
    fn source_chains() {
        use std::error::Error;
        let e = FileError::from(CodeError::SingularSelection);
        assert!(e.source().is_some());
    }
}
