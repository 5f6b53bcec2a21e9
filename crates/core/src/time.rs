//! Time types.
//!
//! The paper measures everything in seconds: release times, response times,
//! detour times and deadlines. We use plain `i64` seconds under two aliases
//! so that signatures distinguish *instants* from *durations*.

/// An absolute timestamp in seconds since the start of the simulated day.
pub type Ts = i64;

/// A duration in seconds.
pub type Dur = i64;

/// Number of seconds in a simulated day. Workload generators place all order
/// release times inside `[0, DAY)`.
pub const DAY: Dur = 24 * 60 * 60;

/// Clamp a duration to be non-negative.
#[inline]
pub(crate) fn non_negative(d: Dur) -> Dur {
    d.max(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_negative_clamps() {
        assert_eq!(non_negative(-5), 0);
        assert_eq!(non_negative(0), 0);
        assert_eq!(non_negative(7), 7);
    }

    #[test]
    fn day_is_86400() {
        assert_eq!(DAY, 86_400);
    }
}
