//! Errors of the networked cluster.

use std::fmt;
use std::io;

use access::ObjectError;
use erasure::CodeError;

/// Anything that can go wrong between a client and the cluster.
#[derive(Debug)]
pub enum ClusterError {
    /// A socket or filesystem operation failed.
    Io(io::Error),
    /// A frame or payload violated the wire protocol.
    Protocol {
        /// What was malformed.
        reason: String,
    },
    /// The remote side answered with an error response.
    Remote {
        /// The message shipped in the error frame.
        message: String,
    },
    /// A coding-layer operation failed.
    Code(CodeError),
    /// A datanode could not be reached (marked dead for future planning).
    NodeDown {
        /// The unreachable node's id.
        node: usize,
    },
    /// The coordinator has no such file.
    UnknownFile {
        /// The requested file name.
        name: String,
    },
    /// Too few live nodes or blocks to serve the request.
    Unavailable {
        /// What the cluster could not do.
        reason: String,
    },
    /// Nodes kept failing mid-operation until the client's replan budget
    /// ran out.
    ReplansExhausted {
        /// The file being accessed.
        name: String,
        /// The stripe the client gave up on.
        stripe: usize,
        /// Replans attempted before giving up.
        attempts: usize,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Io(e) => write!(f, "i/o error: {e}"),
            ClusterError::Protocol { reason } => write!(f, "protocol violation: {reason}"),
            ClusterError::Remote { message } => write!(f, "remote error: {message}"),
            ClusterError::Code(e) => write!(f, "coding error: {e}"),
            ClusterError::NodeDown { node } => write!(f, "datanode {node} is unreachable"),
            ClusterError::UnknownFile { name } => write!(f, "unknown file {name:?}"),
            ClusterError::Unavailable { reason } => write!(f, "unavailable: {reason}"),
            ClusterError::ReplansExhausted {
                name,
                stripe,
                attempts,
            } => write!(
                f,
                "stripe {stripe} of {name:?}: gave up after {attempts} mid-operation replans"
            ),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Io(e) => Some(e),
            ClusterError::Code(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClusterError {
    fn from(e: io::Error) -> Self {
        ClusterError::Io(e)
    }
}

impl From<CodeError> for ClusterError {
    fn from(e: CodeError) -> Self {
        ClusterError::Code(e)
    }
}

/// Object-policy refusals: an unknown name is [`ClusterError::UnknownFile`],
/// everything else a request the protocol does not allow.
impl From<ObjectError> for ClusterError {
    fn from(e: ObjectError) -> Self {
        match e {
            ObjectError::Unknown { name } => ClusterError::UnknownFile { name },
            refused => ClusterError::Protocol {
                reason: refused.to_string(),
            },
        }
    }
}
