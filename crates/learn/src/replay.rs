//! Replay memory (Section VI-B).
//!
//! A bounded ring buffer of MDP transitions sampled uniformly for
//! mini-batch training — the classic DQN ingredient the paper adopts to
//! decorrelate the order-agent experience stream.

use crate::mdp::Transition;
use rand::Rng;

/// Fixed-capacity uniform-sampling replay buffer.
#[derive(Clone, Debug)]
pub struct ReplayMemory {
    /// Stored transitions (oldest-first not guaranteed).
    pub(crate) buf: Vec<Transition>,
    capacity: usize,
    next: usize,
}

impl ReplayMemory {
    /// Create a buffer holding at most `capacity` transitions.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        Self {
            buf: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            next: 0,
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Insert a transition, evicting the oldest once full.
    pub(crate) fn push(&mut self, t: Transition) {
        if self.buf.len() < self.capacity {
            self.buf.push(t);
        } else {
            self.buf[self.next] = t;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// Sample `n` transitions uniformly with replacement.
    pub(crate) fn sample<'a, R: Rng>(&'a self, n: usize, rng: &mut R) -> Vec<&'a Transition> {
        (0..n)
            .filter_map(|_| {
                if self.buf.is_empty() {
                    None
                } else {
                    Some(&self.buf[rng.gen_range(0..self.buf.len())])
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdp::Outcome;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(tag: f32) -> Transition {
        Transition {
            state: vec![tag],
            outcome: Outcome::Expired,
            penalty: 0.0,
            gmm_theta: 0.0,
        }
    }

    #[test]
    fn push_until_capacity_then_wrap() {
        let mut m = ReplayMemory::new(3);
        for i in 0..5 {
            m.push(t(i as f32));
        }
        assert_eq!(m.len(), 3);
        // oldest two (0, 1) evicted
        let tags: Vec<f32> = m.buf.iter().map(|t| t.state[0]).collect();
        assert!(tags.contains(&2.0) && tags.contains(&3.0) && tags.contains(&4.0));
    }

    #[test]
    fn sample_uniform() {
        let mut m = ReplayMemory::new(10);
        for i in 0..10 {
            m.push(t(i as f32));
        }
        let mut rng = StdRng::seed_from_u64(0);
        let s = m.sample(100, &mut rng);
        assert_eq!(s.len(), 100);
        // all samples come from the buffer
        assert!(s.iter().all(|t| (0.0..10.0).contains(&t.state[0])));
    }

    #[test]
    fn sample_from_empty_is_empty() {
        let m = ReplayMemory::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(m.sample(5, &mut rng).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        ReplayMemory::new(0);
    }
}
