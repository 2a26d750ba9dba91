//! Experience replay (Algorithm 1 line 1: "Initialize replay memory D").

use rand::Rng;
use std::collections::VecDeque;

/// One environment transition `[s, a, r, s', done]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// State the action was taken from.
    pub state: Vec<f64>,
    /// Applied action.
    pub action: Vec<f64>,
    /// Immediate reward.
    pub reward: f64,
    /// Successor state.
    pub next_state: Vec<f64>,
    /// Whether the episode terminated at this step (safety violation or
    /// horizon).
    pub done: bool,
}

/// Fixed-capacity FIFO replay buffer with uniform sampling.
///
/// # Examples
///
/// ```
/// use cocktail_rl::buffer::{ReplayBuffer, Transition};
///
/// let mut buf = ReplayBuffer::new(2);
/// for i in 0..3 {
///     buf.push(Transition {
///         state: vec![i as f64], action: vec![0.0], reward: 0.0,
///         next_state: vec![0.0], done: false,
///     });
/// }
/// assert_eq!(buf.len(), 2); // oldest evicted
/// ```
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    capacity: usize,
    data: VecDeque<Transition>,
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `capacity` transitions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            capacity,
            data: VecDeque::with_capacity(capacity.min(1 << 20)),
        }
    }

    /// Appends a transition, evicting the oldest when full.
    pub fn push(&mut self, t: Transition) {
        if self.data.len() == self.capacity {
            self.data.pop_front();
        }
        self.data.push_back(t);
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Uniformly samples `n` transitions with replacement.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty or `n == 0`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<&Transition> {
        assert!(!self.data.is_empty(), "cannot sample from an empty buffer");
        assert!(n > 0, "sample size must be positive");
        (0..n)
            .map(|_| &self.data[rng.gen_range(0..self.data.len())])
            .collect()
    }

    /// Drops all stored transitions.
    pub fn clear(&mut self) {
        self.data.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: f64) -> Transition {
        Transition {
            state: vec![v],
            action: vec![0.0],
            reward: v,
            next_state: vec![v],
            done: false,
        }
    }

    #[test]
    fn fifo_eviction() {
        let mut b = ReplayBuffer::new(3);
        for i in 0..5 {
            b.push(t(i as f64));
        }
        assert_eq!(b.len(), 3);
        let mut rng = cocktail_math::rng::seeded(0);
        let sampled = b.sample(&mut rng, 50);
        assert!(
            sampled.iter().all(|tr| tr.reward >= 2.0),
            "old entries evicted"
        );
    }

    #[test]
    fn clear_empties() {
        let mut b = ReplayBuffer::new(4);
        b.push(t(0.0));
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "empty buffer")]
    fn sampling_empty_panics() {
        let b = ReplayBuffer::new(4);
        let mut rng = cocktail_math::rng::seeded(3);
        b.sample(&mut rng, 1);
    }
}
