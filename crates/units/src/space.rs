//! Spatial quantities: distance, velocity and acceleration.

use crate::macros::quantity;
use crate::{Hertz, Seconds};

quantity! {
    /// A distance in meters (sensor range `d`, obstacle distance, position).
    ///
    /// # Examples
    ///
    /// ```
    /// use f1_units::Meters;
    /// let range = Meters::new(10.0);
    /// assert_eq!((range * 0.5).get(), 5.0);
    /// ```
    Meters, "m"
}

quantity! {
    /// A distance in millimeters (UAV frame sizes in Fig. 2b).
    ///
    /// # Examples
    ///
    /// ```
    /// use f1_units::{Millimeters, Meters};
    /// let m = Millimeters::new(350.0).to_meters();
    /// assert!((m.get() - 0.35).abs() < 1e-12);
    /// ```
    Millimeters, "mm"
}

quantity! {
    /// A velocity in meters per second (the model's `v_safe`).
    ///
    /// # Examples
    ///
    /// ```
    /// use f1_units::{MetersPerSecond, Seconds, Meters};
    /// let v = MetersPerSecond::new(2.0);
    /// let d: Meters = v * Seconds::new(1.5);
    /// assert_eq!(d, Meters::new(3.0));
    /// ```
    MetersPerSecond, "m/s"
}

quantity! {
    /// An acceleration in meters per second squared (the model's `a_max`).
    ///
    /// # Examples
    ///
    /// ```
    /// use f1_units::{MetersPerSecondSquared, Seconds, MetersPerSecond};
    /// let a = MetersPerSecondSquared::new(3.0);
    /// let dv: MetersPerSecond = a * Seconds::new(2.0);
    /// assert_eq!(dv, MetersPerSecond::new(6.0));
    /// ```
    MetersPerSecondSquared, "m/s²"
}

impl Millimeters {
    /// Converts to meters.
    #[must_use]
    pub fn to_meters(self) -> Meters {
        Meters::new(self.0 * 1e-3)
    }
}

impl Meters {
    /// Converts to millimeters.
    #[must_use]
    pub fn to_millimeters(self) -> Millimeters {
        Millimeters::new(self.0 * 1e3)
    }
}

/// `v · t = d`
impl core::ops::Mul<Seconds> for MetersPerSecond {
    type Output = Meters;
    #[inline]
    fn mul(self, rhs: Seconds) -> Meters {
        Meters::new(self.get() * rhs.get())
    }
}

/// `t · v = d`
impl core::ops::Mul<MetersPerSecond> for Seconds {
    type Output = Meters;
    #[inline]
    fn mul(self, rhs: MetersPerSecond) -> Meters {
        rhs * self
    }
}

/// `a · t = Δv`
impl core::ops::Mul<Seconds> for MetersPerSecondSquared {
    type Output = MetersPerSecond;
    #[inline]
    fn mul(self, rhs: Seconds) -> MetersPerSecond {
        MetersPerSecond::new(self.get() * rhs.get())
    }
}

/// `t · a = Δv`
impl core::ops::Mul<MetersPerSecondSquared> for Seconds {
    type Output = MetersPerSecond;
    #[inline]
    fn mul(self, rhs: MetersPerSecondSquared) -> MetersPerSecond {
        rhs * self
    }
}

/// `d / t = v`
impl core::ops::Div<Seconds> for Meters {
    type Output = MetersPerSecond;
    #[inline]
    fn div(self, rhs: Seconds) -> MetersPerSecond {
        MetersPerSecond::new(self.get() / rhs.get())
    }
}

/// `d / v = t` — the time to cover a distance at constant speed.
impl core::ops::Div<MetersPerSecond> for Meters {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: MetersPerSecond) -> Seconds {
        Seconds::new(self.get() / rhs.get())
    }
}

/// `d · f = v` — the low-frequency roofline asymptote `v ≈ d · f_action`.
impl core::ops::Mul<Hertz> for Meters {
    type Output = MetersPerSecond;
    #[inline]
    fn mul(self, rhs: Hertz) -> MetersPerSecond {
        MetersPerSecond::new(self.get() * rhs.get())
    }
}

/// `f · d = v`
impl core::ops::Mul<Meters> for Hertz {
    type Output = MetersPerSecond;
    #[inline]
    fn mul(self, rhs: Meters) -> MetersPerSecond {
        rhs * self
    }
}

/// `v / t = a`
impl core::ops::Div<Seconds> for MetersPerSecond {
    type Output = MetersPerSecondSquared;
    #[inline]
    fn div(self, rhs: Seconds) -> MetersPerSecondSquared {
        MetersPerSecondSquared::new(self.get() / rhs.get())
    }
}

/// `v / a = t` — the time to brake from `v` at constant deceleration `a`.
impl core::ops::Div<MetersPerSecondSquared> for MetersPerSecond {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: MetersPerSecondSquared) -> Seconds {
        Seconds::new(self.get() / rhs.get())
    }
}

impl MetersPerSecond {
    /// Braking distance from this speed at constant deceleration `a`:
    /// `d = v² / (2a)`.
    ///
    /// This is the kinematic core of the paper's safety model (Eq. 4): the
    /// UAV must be able to dissipate all of its kinetic energy within the
    /// sensed distance.
    ///
    /// # Examples
    ///
    /// ```
    /// use f1_units::{MetersPerSecond, MetersPerSecondSquared, Meters};
    /// let v = MetersPerSecond::new(10.0);
    /// let a = MetersPerSecondSquared::new(5.0);
    /// assert_eq!(v.braking_distance(a), Meters::new(10.0));
    /// ```
    #[must_use]
    pub fn braking_distance(self, decel: MetersPerSecondSquared) -> Meters {
        Meters::new(self.get() * self.get() / (2.0 * decel.get()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensional_products() {
        let v = MetersPerSecond::new(3.0);
        let t = Seconds::new(2.0);
        assert_eq!(v * t, Meters::new(6.0));
        assert_eq!(t * v, Meters::new(6.0));

        let a = MetersPerSecondSquared::new(4.0);
        assert_eq!(a * t, MetersPerSecond::new(8.0));
        assert_eq!(t * a, MetersPerSecond::new(8.0));
    }

    #[test]
    fn dimensional_quotients() {
        let d = Meters::new(6.0);
        let t = Seconds::new(2.0);
        assert_eq!(d / t, MetersPerSecond::new(3.0));

        let v = MetersPerSecond::new(8.0);
        assert_eq!(v / t, MetersPerSecondSquared::new(4.0));
        assert_eq!(v / MetersPerSecondSquared::new(4.0), Seconds::new(2.0));
    }

    #[test]
    fn roofline_asymptote_product() {
        // v ≈ d · f: 10 m sensed at 1 Hz allows ~10 m/s (paper Fig. 5b point A).
        let v = Meters::new(10.0) * Hertz::new(1.0);
        assert_eq!(v, MetersPerSecond::new(10.0));
        assert_eq!(Hertz::new(1.0) * Meters::new(10.0), v);
    }

    #[test]
    fn braking_distance_quadratic_in_speed() {
        let a = MetersPerSecondSquared::new(2.0);
        let d1 = MetersPerSecond::new(1.0).braking_distance(a);
        let d2 = MetersPerSecond::new(2.0).braking_distance(a);
        assert!((d2.get() / d1.get() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn millimeter_conversion_round_trip() {
        let mm = Millimeters::new(350.0);
        assert!((mm.to_meters().to_millimeters().get() - 350.0).abs() < 1e-9);
    }

    #[test]
    fn lerp_midpoint() {
        let lo = Meters::new(2.0);
        let hi = Meters::new(4.0);
        assert_eq!(lo.lerp(hi, 0.5), Meters::new(3.0));
        assert_eq!(lo.lerp(hi, 0.0), lo);
        assert_eq!(lo.lerp(hi, 1.0), hi);
    }
}
