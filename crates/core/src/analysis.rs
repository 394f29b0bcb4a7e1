//! Optimal / over-provisioned / under-provisioned design assessment
//! (paper Fig. 4b and the optimization targets of §VI–§VII).
//!
//! The knee is the minimum action throughput that maximizes safe velocity.
//! A pipeline faster than the knee wasted optimization effort (the paper's
//! "over-optimized" region); one slower leaves velocity on the table and
//! the ratio `f_knee / f_action` is exactly the speedup an architect must
//! find (e.g. "the SPA pipeline must improve by 39×", §VI-B).

use f1_units::Hertz;
use serde::{Deserialize, Serialize};

use crate::roofline::Roofline;

/// The multiplicative gap between an achieved action throughput and the
/// knee.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignGap {
    /// Achieved action throughput.
    pub achieved: Hertz,
    /// The knee (required) throughput.
    pub required: Hertz,
    /// `max(achieved, required) / min(achieved, required)` — always ≥ 1.
    pub factor: f64,
}

impl DesignGap {
    fn between(achieved: Hertz, required: Hertz) -> Self {
        let hi = achieved.max(required).get();
        let lo = achieved.min(required).get();
        Self {
            achieved,
            required,
            factor: hi / lo,
        }
    }
}

impl core::fmt::Display for DesignGap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{:.2}× ({:.2} vs knee {:.2})",
            self.factor, self.achieved, self.required
        )
    }
}

/// Assessment of a design point against the knee (paper Fig. 4b).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DesignAssessment {
    /// The action throughput matches the knee within tolerance: a balanced
    /// design.
    Optimal,
    /// The pipeline is faster than needed; the surplus factor could be
    /// traded for power/weight (paper: "over-optimized … extra optimization
    /// effort").
    OverProvisioned(DesignGap),
    /// The pipeline is slower than the knee; the deficit factor is the
    /// optimization target.
    UnderProvisioned(DesignGap),
}

impl DesignAssessment {
    /// Default relative tolerance around the knee considered "optimal"
    /// (±5 %).
    pub const DEFAULT_TOLERANCE: f64 = 0.05;

    /// Assesses an action throughput against a roofline's knee with the
    /// default tolerance, whose band the roofline computed once.
    #[must_use]
    pub fn of(roofline: &Roofline, f_action: Hertz) -> Self {
        Self::in_band(f_action, roofline.knee().rate, roofline.optimal_band())
    }

    /// Assesses with an explicit relative tolerance: rates within
    /// `[knee·(1−tol), knee·(1+tol)]` count as optimal.
    ///
    /// A non-finite or negative tolerance is treated as zero.
    #[must_use]
    pub fn with_tolerance(roofline: &Roofline, f_action: Hertz, tolerance: f64) -> Self {
        let tol = if tolerance.is_finite() && tolerance > 0.0 {
            tolerance
        } else {
            0.0
        };
        let knee = roofline.knee().rate;
        Self::in_band(f_action, knee, Self::band(knee, tol))
    }

    /// The optimal band `[knee·(1−tol), knee·(1+tol)]` of a tolerance.
    pub(crate) fn band(knee: Hertz, tol: f64) -> (f64, f64) {
        (knee.get() * (1.0 - tol), knee.get() * (1.0 + tol))
    }

    /// Places `f_action` against the knee's optimal band `(lo, hi)`.
    fn in_band(f_action: Hertz, knee: Hertz, (lo, hi): (f64, f64)) -> Self {
        let f = f_action.get();
        if f >= lo && f <= hi {
            Self::Optimal
        } else if f > hi {
            Self::OverProvisioned(DesignGap::between(f_action, knee))
        } else {
            Self::UnderProvisioned(DesignGap::between(f_action, knee))
        }
    }

    /// The speedup an architect must find to reach the knee (1.0 when
    /// already there or beyond).
    #[must_use]
    pub fn speedup_required(&self) -> f64 {
        match self {
            Self::UnderProvisioned(gap) => gap.factor,
            _ => 1.0,
        }
    }

    /// The surplus factor available to trade for power/weight (1.0 when not
    /// over-provisioned).
    #[must_use]
    pub fn surplus_factor(&self) -> f64 {
        match self {
            Self::OverProvisioned(gap) => gap.factor,
            _ => 1.0,
        }
    }

    /// Whether the design is balanced.
    #[must_use]
    pub fn is_optimal(&self) -> bool {
        matches!(self, Self::Optimal)
    }
}

impl core::fmt::Display for DesignAssessment {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Optimal => f.write_str("optimal (at the knee)"),
            Self::OverProvisioned(gap) => write!(f, "over-provisioned by {gap}"),
            Self::UnderProvisioned(gap) => write!(f, "under-provisioned by {gap}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roofline::Saturation;
    use crate::safety::SafetyModel;
    use f1_units::Meters;

    /// A roofline with its knee calibrated to exactly 43 Hz (the paper's
    /// AscTec Pelican + TX2 case study, §VI-B).
    fn pelican_43hz() -> Roofline {
        let d = Meters::new(4.5);
        let eta = Saturation::default();
        let a = Roofline::calibrate_a_max(d, Hertz::new(43.0), eta).unwrap();
        Roofline::with_saturation(SafetyModel::new(a, d).unwrap(), eta)
    }

    #[test]
    fn dronet_on_tx2_is_4_13x_over() {
        // §VI-B: DroNet at 178 Hz vs a 43 Hz knee ⇒ 4.13× over-provisioned.
        let r = pelican_43hz();
        let a = DesignAssessment::of(&r, Hertz::new(178.0));
        match a {
            DesignAssessment::OverProvisioned(gap) => {
                assert!((gap.factor - 178.0 / 43.0).abs() < 1e-9);
                assert!((gap.factor - 4.13).abs() < 0.02);
            }
            other => panic!("expected over-provisioned, got {other}"),
        }
        assert!((a.surplus_factor() - 4.14).abs() < 0.01);
        assert_eq!(a.speedup_required(), 1.0);
    }

    #[test]
    fn trailnet_on_tx2_is_1_27x_over() {
        // §VI-B: TrailNet at 55 Hz vs 43 Hz ⇒ 1.27× over.
        let r = pelican_43hz();
        match DesignAssessment::of(&r, Hertz::new(55.0)) {
            DesignAssessment::OverProvisioned(gap) => {
                assert!((gap.factor - 55.0 / 43.0).abs() < 1e-9);
                assert!((gap.factor - 1.27).abs() < 0.02);
            }
            other => panic!("expected over-provisioned, got {other}"),
        }
    }

    #[test]
    fn spa_on_tx2_needs_39x() {
        // §VI-B: SPA at 1.1 Hz vs 43 Hz ⇒ ~39× improvement needed.
        let r = pelican_43hz();
        let a = DesignAssessment::of(&r, Hertz::new(1.1));
        match a {
            DesignAssessment::UnderProvisioned(gap) => {
                assert!((gap.factor - 43.0 / 1.1).abs() < 1e-9);
                assert!((gap.factor - 39.0).abs() < 0.1);
            }
            other => panic!("expected under-provisioned, got {other}"),
        }
        assert!((a.speedup_required() - 39.09).abs() < 0.01);
        assert_eq!(a.surplus_factor(), 1.0);
    }

    #[test]
    fn knee_rate_is_optimal() {
        let r = pelican_43hz();
        let a = DesignAssessment::of(&r, Hertz::new(43.0));
        assert!(a.is_optimal());
        assert_eq!(a.speedup_required(), 1.0);
        assert_eq!(a.surplus_factor(), 1.0);
    }

    #[test]
    fn tolerance_widens_optimal_band() {
        let r = pelican_43hz();
        // 10% above the knee: not optimal at 5% tolerance…
        let f = Hertz::new(43.0 * 1.10);
        assert!(!DesignAssessment::of(&r, f).is_optimal());
        // …but optimal at 15%.
        assert!(DesignAssessment::with_tolerance(&r, f, 0.15).is_optimal());
        // Degenerate tolerances behave like zero.
        assert!(!DesignAssessment::with_tolerance(&r, f, f64::NAN).is_optimal());
        assert!(!DesignAssessment::with_tolerance(&r, f, -1.0).is_optimal());
        assert!(DesignAssessment::with_tolerance(&r, Hertz::new(43.0), 0.0).is_optimal());
    }

    #[test]
    fn gap_factor_always_at_least_one() {
        let r = pelican_43hz();
        for &f in &[0.1, 1.0, 10.0, 43.0, 44.0, 100.0, 1e4] {
            let a = DesignAssessment::of(&r, Hertz::new(f));
            assert!(a.speedup_required() >= 1.0);
            assert!(a.surplus_factor() >= 1.0);
        }
    }

    #[test]
    fn display_forms() {
        let r = pelican_43hz();
        let over = DesignAssessment::of(&r, Hertz::new(178.0)).to_string();
        assert!(over.contains("over-provisioned"), "{over}");
        let under = DesignAssessment::of(&r, Hertz::new(1.1)).to_string();
        assert!(under.contains("under-provisioned"), "{under}");
        let opt = DesignAssessment::of(&r, Hertz::new(43.0)).to_string();
        assert!(opt.contains("optimal"), "{opt}");
    }
}
