//! Force quantities.

use crate::macros::quantity;
use crate::{Kilograms, MetersPerSecondSquared};

quantity! {
    /// A force in newtons (thrust, drag, weight).
    ///
    /// # Examples
    ///
    /// ```
    /// use f1_units::{Newtons, Kilograms, MetersPerSecondSquared};
    /// let f = Newtons::new(3.24);
    /// let a = f / Kilograms::new(1.62);
    /// assert_eq!(a, MetersPerSecondSquared::new(2.0));
    /// ```
    Newtons, "N"
}

/// `F / m = a` — Newton's second law, the heart of Eq. 5.
impl core::ops::Div<Kilograms> for Newtons {
    type Output = MetersPerSecondSquared;
    #[inline]
    fn div(self, rhs: Kilograms) -> MetersPerSecondSquared {
        MetersPerSecondSquared::new(self.get() / rhs.get())
    }
}

/// `m · a = F`
impl core::ops::Mul<MetersPerSecondSquared> for Kilograms {
    type Output = Newtons;
    #[inline]
    fn mul(self, rhs: MetersPerSecondSquared) -> Newtons {
        Newtons::new(self.get() * rhs.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GramForce;

    #[test]
    fn second_law_round_trip() {
        let m = Kilograms::new(1.62);
        let a = MetersPerSecondSquared::new(2.5);
        let f = m * a;
        assert!((f / m - a).abs().get() < 1e-12);
    }

    #[test]
    fn four_motor_thrust_budget() {
        // Table I drones: 4 motors × 435 gf ≈ 17.06 N total.
        let total = GramForce::new(435.0).to_newtons() * 4.0;
        assert!((total.get() - 17.0636).abs() < 1e-3);
    }
}
