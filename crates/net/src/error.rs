//! Error type for the message-passing substrate.

use std::error::Error;
use std::fmt;

/// Error produced by transports and the protocols over them.
#[derive(Debug)]
pub enum NetError {
    /// Underlying socket/file error.
    Io(std::io::Error),
    /// No matching message arrived within the deadline.
    Timeout {
        /// What the caller was waiting for.
        waiting_for: String,
    },
    /// The peer is not part of this cluster.
    UnknownPeer(usize),
    /// A frame failed to decode.
    Malformed(String),
    /// The transport has been shut down.
    Closed,
    /// The remote handler reported an application-level failure.
    Remote(String),
    /// A frame decoded structurally but failed its integrity checksum
    /// (bit corruption in flight).
    Corrupt {
        /// CRC stored in the envelope header.
        expected: u32,
        /// CRC recomputed over the received payload.
        got: u32,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o failure: {e}"),
            NetError::Timeout { waiting_for } => write!(f, "timed out waiting for {waiting_for}"),
            NetError::UnknownPeer(id) => write!(f, "unknown peer node {id}"),
            NetError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            NetError::Closed => write!(f, "transport closed"),
            NetError::Remote(msg) => write!(f, "remote error: {msg}"),
            NetError::Corrupt { expected, got } => {
                write!(
                    f,
                    "corrupt frame: crc {got:#010x}, header said {expected:#010x}"
                )
            }
        }
    }
}

impl Error for NetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(NetError::Timeout {
            waiting_for: "gather from node 2".into()
        }
        .to_string()
        .contains("gather from node 2"));
        assert!(NetError::UnknownPeer(7).to_string().contains('7'));
        assert!(!NetError::Closed.to_string().is_empty());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetError>();
    }
}
