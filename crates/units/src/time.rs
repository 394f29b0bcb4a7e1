//! Time-domain quantities: latency, throughput and endurance.

use crate::macros::quantity;

quantity! {
    /// A duration or latency in seconds.
    ///
    /// In the F-1 model, `Seconds` is the latency of a pipeline stage
    /// (`T_sensor`, `T_compute`, `T_control`) or the end-to-end action period
    /// `T_action`.
    ///
    /// # Examples
    ///
    /// ```
    /// use f1_units::{Seconds, Hertz};
    /// let t = Seconds::new(0.1);
    /// assert_eq!(t.frequency(), Hertz::new(10.0));
    /// ```
    Seconds, "s"
}

quantity! {
    /// A rate or throughput in hertz (events per second).
    ///
    /// In the F-1 model, `Hertz` is the throughput of a pipeline stage
    /// (`f_sensor`, `f_compute`, `f_control`) or the end-to-end action
    /// throughput `f_action`.
    ///
    /// # Examples
    ///
    /// ```
    /// use f1_units::{Hertz, Seconds};
    /// let f = Hertz::new(60.0);
    /// assert!((f.period().get() - 0.016666).abs() < 1e-4);
    /// ```
    Hertz, "Hz"
}

quantity! {
    /// A duration in minutes, used for flight endurance (Fig. 2b).
    ///
    /// # Examples
    ///
    /// ```
    /// use f1_units::{Minutes, Seconds};
    /// assert_eq!(Minutes::new(2.0).to_seconds(), Seconds::new(120.0));
    /// ```
    Minutes, "min"
}

impl Seconds {
    /// Converts a period into the corresponding frequency, `f = 1/T`.
    ///
    /// A zero period maps to an infinite rate, which is rejected; use
    /// strictly positive periods.
    ///
    /// # Panics
    ///
    /// Panics if the period is zero (the reciprocal would not be finite).
    #[must_use]
    pub fn frequency(self) -> Hertz {
        Hertz::new(1.0 / self.0)
    }

    /// Fallible counterpart of [`frequency`](Self::frequency).
    ///
    /// # Errors
    ///
    /// Returns an error when the period is zero or negative.
    pub fn try_frequency(self) -> Result<Hertz, crate::UnitError> {
        if self.0 <= 0.0 {
            return Err(crate::UnitError::NotPositive {
                quantity: "Seconds",
                value: self.0,
            });
        }
        Hertz::try_new(1.0 / self.0)
    }

    /// Converts to minutes.
    #[must_use]
    pub fn to_minutes(self) -> Minutes {
        Minutes::new(self.0 / 60.0)
    }

    /// Converts to milliseconds as a raw `f64` (for display/reporting).
    #[must_use]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Builds a duration from milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is NaN or infinite.
    #[must_use]
    pub fn from_millis(ms: f64) -> Self {
        Self::new(ms * 1e-3)
    }
}

impl Hertz {
    /// Converts a rate into the corresponding period, `T = 1/f`.
    ///
    /// # Panics
    ///
    /// Panics if the rate is zero (the reciprocal would not be finite).
    #[inline]
    #[must_use]
    pub fn period(self) -> Seconds {
        Seconds::new(1.0 / self.0)
    }

    /// Fallible counterpart of [`period`](Self::period).
    ///
    /// # Errors
    ///
    /// Returns an error when the rate is zero or negative.
    pub fn try_period(self) -> Result<Seconds, crate::UnitError> {
        if self.0 <= 0.0 {
            return Err(crate::UnitError::NotPositive {
                quantity: "Hertz",
                value: self.0,
            });
        }
        Seconds::try_new(1.0 / self.0)
    }
}

impl Minutes {
    /// Converts to seconds.
    #[must_use]
    pub fn to_seconds(self) -> Seconds {
        Seconds::new(self.0 * 60.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn period_frequency_round_trip() {
        let f = Hertz::new(178.0);
        let t = f.period();
        let back = t.frequency();
        assert!((back.get() - 178.0).abs() < 1e-9);
    }

    #[test]
    fn sixty_fps_camera_period_is_16_67_ms() {
        // Paper §III.D: "If the UAV has 60 FPS camera, the sensor data can be
        // sampled at 16.67 ms interval".
        let t = Hertz::new(60.0).period();
        assert!((t.as_millis() - 16.6667).abs() < 1e-2);
    }

    #[test]
    fn try_frequency_rejects_zero() {
        assert!(Seconds::ZERO.try_frequency().is_err());
        assert!(Seconds::new(-1.0).try_frequency().is_err());
        assert!(Seconds::new(0.5).try_frequency().is_ok());
    }

    #[test]
    fn try_period_rejects_zero() {
        assert!(Hertz::ZERO.try_period().is_err());
        assert!(Hertz::new(10.0).try_period().is_ok());
    }

    #[test]
    fn minutes_seconds_round_trip() {
        let m = Minutes::new(15.0);
        assert!((m.to_seconds().to_minutes().get() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn millis_round_trip() {
        let t = Seconds::from_millis(810.0);
        assert!((t.get() - 0.81).abs() < 1e-12);
        assert!((t.as_millis() - 810.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = Seconds::new(0.2);
        let b = Seconds::new(0.3);
        assert_eq!(a + b, Seconds::new(0.5));
        assert_eq!(b - a, Seconds::new(0.09999999999999998));
        assert_eq!(a * 2.0, Seconds::new(0.4));
        assert!((a / b - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn sum_of_stage_latencies() {
        // Eq. 2 upper bound is the sum of stage latencies.
        let total: Seconds = [
            Seconds::new(0.0167),
            Seconds::new(0.0056),
            Seconds::new(0.001),
        ]
        .into_iter()
        .sum();
        assert!((total.get() - 0.0233).abs() < 1e-12);
    }

    #[test]
    fn display_has_suffix_and_precision() {
        assert_eq!(format!("{:.2}", Hertz::new(43.0)), "43.00 Hz");
        assert_eq!(format!("{:.1}", Seconds::new(0.35)), "0.3 s");
    }

    #[test]
    fn parses_with_and_without_suffix() {
        assert_eq!("60".parse::<Hertz>().unwrap(), Hertz::new(60.0));
        assert_eq!("60 Hz".parse::<Hertz>().unwrap(), Hertz::new(60.0));
        assert_eq!(" 0.1 s ".parse::<Seconds>().unwrap(), Seconds::new(0.1));
        assert!("sixty".parse::<Hertz>().is_err());
        // A mismatched suffix is not silently accepted.
        assert!("60 ms".parse::<Hertz>().is_err());
        assert!("nan".parse::<Hertz>().is_err());
    }

    #[test]
    fn display_parse_round_trip() {
        let v = Hertz::new(178.0);
        let text = v.to_string();
        assert_eq!(text.parse::<Hertz>().unwrap(), v);
    }
}
