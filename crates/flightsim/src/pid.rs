//! A clamped PID controller with anti-windup, as used by the flight
//! controller's velocity loop (§II-D: PID controllers on the flight
//! controller firmware).

/// A PID controller with integral anti-windup and output clamping.
///
/// # Examples
///
/// ```
/// use f1_flightsim::Pid;
///
/// let mut pid = Pid::new(2.0, 0.5, 0.0).with_output_limit(1.0);
/// let out = pid.update(0.4, 0.01);
/// assert!(out > 0.0 && out <= 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pid {
    kp: f64,
    ki: f64,
    kd: f64,
    integral: f64,
    prev_error: Option<f64>,
    integral_limit: f64,
    output_limit: f64,
}

impl Pid {
    /// Creates a PID controller with the given gains.
    ///
    /// # Panics
    ///
    /// Panics if any gain is negative or non-finite.
    #[must_use]
    pub fn new(kp: f64, ki: f64, kd: f64) -> Self {
        for (name, g) in [("kp", kp), ("ki", ki), ("kd", kd)] {
            assert!(
                g.is_finite() && g >= 0.0,
                "{name} must be non-negative, got {g}"
            );
        }
        Self {
            kp,
            ki,
            kd,
            integral: 0.0,
            prev_error: None,
            integral_limit: f64::INFINITY,
            output_limit: f64::INFINITY,
        }
    }

    /// Limits the magnitude of the integral term (anti-windup).
    ///
    /// # Panics
    ///
    /// Panics if the limit is not positive.
    #[must_use]
    pub fn with_integral_limit(mut self, limit: f64) -> Self {
        assert!(limit > 0.0, "integral limit must be positive, got {limit}");
        self.integral_limit = limit;
        self
    }

    /// Limits the magnitude of the controller output.
    ///
    /// # Panics
    ///
    /// Panics if the limit is not positive.
    #[must_use]
    pub fn with_output_limit(mut self, limit: f64) -> Self {
        assert!(limit > 0.0, "output limit must be positive, got {limit}");
        self.output_limit = limit;
        self
    }

    /// Advances the controller by one step and returns the control output.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive.
    #[inline]
    pub fn update(&mut self, error: f64, dt: f64) -> f64 {
        assert!(dt > 0.0, "dt must be positive, got {dt}");
        self.integral =
            (self.integral + error * dt).clamp(-self.integral_limit, self.integral_limit);
        let derivative = match self.prev_error {
            Some(prev) => (error - prev) / dt,
            None => 0.0,
        };
        self.prev_error = Some(error);
        let raw = self.kp * error + self.ki * self.integral + self.kd * derivative;
        raw.clamp(-self.output_limit, self.output_limit)
    }

    /// Resets the internal state (integral and derivative memory).
    pub fn reset(&mut self) {
        self.integral = 0.0;
        self.prev_error = None;
    }

    /// The accumulated integral term (for inspection/testing).
    #[must_use]
    pub fn integral(&self) -> f64 {
        self.integral
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_only_tracks_error() {
        let mut pid = Pid::new(2.0, 0.0, 0.0);
        assert!((pid.update(1.5, 0.01) - 3.0).abs() < 1e-12);
        assert!((pid.update(-0.5, 0.01) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn integral_accumulates_and_clamps() {
        let mut pid = Pid::new(0.0, 1.0, 0.0).with_integral_limit(0.5);
        for _ in 0..1000 {
            pid.update(1.0, 0.01);
        }
        assert!((pid.integral() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn derivative_reacts_to_error_change() {
        let mut pid = Pid::new(0.0, 0.0, 1.0);
        // First update has no derivative (no history).
        assert_eq!(pid.update(1.0, 0.1), 0.0);
        // Error rose by 1 over 0.1 s ⇒ derivative 10.
        assert!((pid.update(2.0, 0.1) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn output_clamped() {
        let mut pid = Pid::new(100.0, 0.0, 0.0).with_output_limit(2.0);
        assert_eq!(pid.update(10.0, 0.01), 2.0);
        assert_eq!(pid.update(-10.0, 0.01), -2.0);
    }

    #[test]
    fn reset_clears_memory() {
        let mut pid = Pid::new(1.0, 1.0, 1.0);
        pid.update(1.0, 0.1);
        pid.update(2.0, 0.1);
        pid.reset();
        assert_eq!(pid.integral(), 0.0);
        // No derivative kick after reset.
        let mut fresh = Pid::new(1.0, 1.0, 1.0);
        assert_eq!(pid.update(1.0, 0.1), fresh.update(1.0, 0.1));
    }

    #[test]
    fn closed_loop_converges_on_first_order_plant() {
        // Plant: v' = u. PI controller should drive v → setpoint.
        let mut pid = Pid::new(3.0, 1.0, 0.0).with_output_limit(5.0);
        let mut v = 0.0;
        let dt = 0.001;
        for _ in 0..20_000 {
            let u = pid.update(2.0 - v, dt);
            v += u * dt;
        }
        assert!((v - 2.0).abs() < 0.01, "v = {v}");
    }

    #[test]
    #[should_panic(expected = "kp must be non-negative")]
    fn negative_gain_rejected() {
        let _ = Pid::new(-1.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_rejected() {
        let _ = Pid::new(1.0, 0.0, 0.0).update(1.0, 0.0);
    }
}
