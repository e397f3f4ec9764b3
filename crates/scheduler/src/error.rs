//! Scheduler error types.

use crate::types::ThreadId;

/// Errors returned by the dispatcher and the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The thread id is not registered with the dispatcher.
    UnknownThread(ThreadId),
    /// The thread id is already registered.
    DuplicateThread(ThreadId),
    /// The operation is invalid in the thread's current state.
    InvalidState(ThreadId, &'static str),
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::UnknownThread(id) => write!(f, "unknown thread {id}"),
            SchedError::DuplicateThread(id) => write!(f, "thread {id} already registered"),
            SchedError::InvalidState(id, what) => {
                write!(f, "invalid operation on thread {id}: {what}")
            }
        }
    }
}

impl std::error::Error for SchedError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(SchedError::UnknownThread(ThreadId(3))
            .to_string()
            .contains("t3"));
        assert!(SchedError::DuplicateThread(ThreadId(4))
            .to_string()
            .contains("already"));
        assert!(SchedError::InvalidState(ThreadId(1), "not blocked")
            .to_string()
            .contains("not blocked"));
    }

    #[test]
    fn errors_are_std_errors() {
        let e: Box<dyn std::error::Error> = Box::new(SchedError::UnknownThread(ThreadId(1)));
        assert!(e.to_string().contains("unknown"));
    }
}
