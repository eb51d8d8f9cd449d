//! Error type for the streaming engine.

use genome::GenomeError;
use gnumap_core::driver::CallWireError;
use std::fmt;

/// Anything that can stop a streaming run.
#[derive(Debug)]
pub enum ExecError {
    /// Filesystem failure (checkpoint I/O).
    Io(std::io::Error),
    /// The read source failed (for example, a file that cannot be opened).
    Source(String),
    /// A FASTQ source held a malformed record.
    Fastq(GenomeError),
    /// A checkpoint file failed validation.
    Checkpoint(String),
    /// A call wire failed to decode (kept for API parity with the MPI
    /// drivers; the in-process engine itself never ships call wires).
    Wire(CallWireError),
    /// The run was killed by [`crate::StreamConfig::abort_after_batches`]
    /// after dispatching this many batches (test hook for kill/resume).
    Aborted {
        /// Stream cursor (reads fully processed) at the last barrier.
        cursor: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Io(e) => write!(f, "i/o error: {e}"),
            ExecError::Source(msg) => write!(f, "read source: {msg}"),
            ExecError::Fastq(e) => write!(f, "{e}"),
            ExecError::Checkpoint(msg) => write!(f, "checkpoint: {msg}"),
            ExecError::Wire(e) => write!(f, "{e}"),
            ExecError::Aborted { cursor } => {
                write!(f, "run aborted by kill hook at stream cursor {cursor}")
            }
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Io(e) => Some(e),
            ExecError::Fastq(e) => Some(e),
            ExecError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ExecError {
    fn from(e: std::io::Error) -> Self {
        ExecError::Io(e)
    }
}

impl From<GenomeError> for ExecError {
    fn from(e: GenomeError) -> Self {
        ExecError::Fastq(e)
    }
}

impl From<CallWireError> for ExecError {
    fn from(e: CallWireError) -> Self {
        ExecError::Wire(e)
    }
}
