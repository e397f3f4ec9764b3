//! Endpoint roles on a symbiotic interface.

use serde::{Deserialize, Serialize};

/// The role a job plays with respect to a progress metric.
///
/// Figure 3 of the paper defines `R_{t,i}` as `-1` if thread `t` is a
/// producer of queue `i` and `+1` if it is a consumer: a full queue means
/// the consumer should speed up (positive pressure) while the producer
/// should slow down (negative pressure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Role {
    /// The job inserts items into the queue.
    Producer,
    /// The job removes items from the queue.
    Consumer,
}

impl Role {
    /// Returns the sign multiplier `R_{t,i}` from Figure 3.
    pub fn sign(self) -> f64 {
        match self {
            Role::Producer => -1.0,
            Role::Consumer => 1.0,
        }
    }
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Role::Producer => write!(f, "producer"),
            Role::Consumer => write!(f, "consumer"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signs_match_figure_3() {
        assert_eq!(Role::Producer.sign(), -1.0);
        assert_eq!(Role::Consumer.sign(), 1.0);
    }

    #[test]
    fn display() {
        assert_eq!(Role::Producer.to_string(), "producer");
        assert_eq!(Role::Consumer.to_string(), "consumer");
    }
}
