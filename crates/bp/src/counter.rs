//! Saturating counters, the building block of direction predictors.

/// An n-bit saturating counter.
///
/// The counter predicts "taken" in its upper half. A 2-bit counter therefore
/// needs two mispredictions to flip direction — the hysteresis that makes
/// one-shot Spectre training require a short loop rather than a single run.
///
/// ```
/// use specrun_bp::SaturatingCounter;
/// let mut c = SaturatingCounter::new(2);
/// assert!(!c.is_taken()); // starts strongly not-taken
/// c.update(true);
/// c.update(true);
/// assert!(c.is_taken());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SaturatingCounter {
    value: u8,
    max: u8,
}

impl SaturatingCounter {
    /// Creates an n-bit counter initialized to zero (strongly not-taken).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 7`.
    pub fn new(bits: u8) -> SaturatingCounter {
        assert!((1..=7).contains(&bits), "counter width out of range");
        SaturatingCounter { value: 0, max: (1 << bits) - 1 }
    }

    /// Current raw value.
    pub fn value(&self) -> u8 {
        self.value
    }

    /// Whether the counter currently predicts taken.
    pub fn is_taken(&self) -> bool {
        self.value > self.max / 2
    }

    /// Trains the counter toward the outcome.
    pub fn update(&mut self, taken: bool) {
        if taken {
            self.value = (self.value + 1).min(self.max);
        } else {
            self.value = self.value.saturating_sub(1);
        }
    }
}

impl Default for SaturatingCounter {
    /// A 2-bit counter, the paper's Table 1 predictor granularity.
    fn default() -> SaturatingCounter {
        SaturatingCounter::new(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturates_at_bounds() {
        let mut c = SaturatingCounter::new(2);
        for _ in 0..10 {
            c.update(true);
        }
        assert_eq!(c.value(), 3);
        for _ in 0..10 {
            c.update(false);
        }
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn hysteresis_requires_two_flips() {
        let mut c = SaturatingCounter::new(2);
        for _ in 0..3 {
            c.update(true); // strongly taken
        }
        c.update(false);
        assert!(c.is_taken(), "one not-taken must not flip a strong counter");
        c.update(false);
        assert!(!c.is_taken());
    }

    #[test]
    fn threshold_is_midpoint() {
        let mut c = SaturatingCounter::new(2);
        c.update(true);
        assert_eq!(c.value(), 1);
        assert!(!c.is_taken());
        c.update(true);
        assert!(c.is_taken());
    }

    #[test]
    #[should_panic(expected = "counter width")]
    fn rejects_zero_width() {
        SaturatingCounter::new(0);
    }
}
