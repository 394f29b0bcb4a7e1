//! Mission-level time and energy modelling (extension).
//!
//! The paper motivates high safe velocity by its mission-level payoff
//! (§I, citing MAVBench): a faster UAV finishes sooner, and because hover
//! power dominates small multirotors, finishing sooner usually costs
//! *less* total energy. This module makes that argument quantitative:
//!
//! ```text
//! P(v)   = P_hover + P_avionics + c_p·v³       (induced + constant + parasitic)
//! E(d,v) = P(v) · d / v                        (cruise energy for distance d)
//! ```
//!
//! `E` is convex in `v` with a unique energy-optimal cruise speed
//! `v* = ((P_hover + P_avionics) / (2·c_p))^(1/3)`. When the F-1 safe
//! velocity sits *below* `v*`, every m/s lost to a compute or sensor
//! bottleneck costs battery as well as time — which is how a slow onboard
//! computer shortens missions.

use f1_units::{Kilograms, Meters, MetersPerSecond, Seconds, Watts, STANDARD_GRAVITY};
use serde::{Deserialize, Serialize};

use crate::ModelError;

/// Sea-level air density, kg/m³.
pub const AIR_DENSITY: f64 = 1.225;

/// A cruise power model: hover (induced) power, constant avionics power,
/// and a cubic parasitic-drag term.
///
/// # Examples
///
/// ```
/// use f1_model::mission::PowerModel;
/// use f1_units::MetersPerSecond;
///
/// let p = PowerModel::new(180.0, 12.0, 0.05)?;
/// let cruise = p.power_at(MetersPerSecond::new(5.0));
/// assert!((cruise.get() - (180.0 + 12.0 + 0.05 * 125.0)).abs() < 1e-9);
/// # Ok::<(), f1_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    hover_w: f64,
    avionics_w: f64,
    parasitic_coeff: f64,
}

impl PowerModel {
    /// Creates a power model from hover power (W), constant avionics power
    /// (W) and the parasitic coefficient `c_p` in W/(m/s)³.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::OutOfDomain`] if hover power is non-positive
    /// or the other terms are negative/non-finite.
    pub fn new(hover_w: f64, avionics_w: f64, parasitic_coeff: f64) -> Result<Self, ModelError> {
        if !(hover_w.is_finite() && hover_w > 0.0) {
            return Err(ModelError::OutOfDomain {
                parameter: "hover power",
                value: hover_w,
                expected: "finite and > 0",
            });
        }
        for (name, v) in [
            ("avionics power", avionics_w),
            ("parasitic coeff", parasitic_coeff),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(ModelError::OutOfDomain {
                    parameter: name,
                    value: v,
                    expected: "finite and >= 0",
                });
            }
        }
        Ok(Self {
            hover_w,
            avionics_w,
            parasitic_coeff,
        })
    }

    /// Momentum-theory hover power for a rotorcraft:
    /// `P = (m·g)^(3/2) / (√(2·ρ·A) · FoM)`, with `A` the total rotor disk
    /// area and `FoM` the hover figure of merit (≈ 0.6–0.75 for small
    /// multirotors).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::OutOfDomain`] for non-positive mass, area or
    /// figure of merit.
    pub fn induced_hover_power(
        mass: Kilograms,
        disk_area_m2: f64,
        figure_of_merit: f64,
    ) -> Result<Watts, ModelError> {
        if !(mass.get().is_finite() && mass.get() > 0.0) {
            return Err(ModelError::OutOfDomain {
                parameter: "mass",
                value: mass.get(),
                expected: "finite and > 0",
            });
        }
        if !(disk_area_m2.is_finite() && disk_area_m2 > 0.0) {
            return Err(ModelError::OutOfDomain {
                parameter: "disk area",
                value: disk_area_m2,
                expected: "finite and > 0",
            });
        }
        if !(figure_of_merit.is_finite() && figure_of_merit > 0.0 && figure_of_merit <= 1.0) {
            return Err(ModelError::OutOfDomain {
                parameter: "figure of merit",
                value: figure_of_merit,
                expected: "0 < FoM <= 1",
            });
        }
        let thrust = mass.get() * STANDARD_GRAVITY;
        let p = thrust.powf(1.5) / ((2.0 * AIR_DENSITY * disk_area_m2).sqrt() * figure_of_merit);
        Ok(Watts::new(p))
    }

    /// Hover power term.
    #[must_use]
    pub fn hover_power(&self) -> Watts {
        Watts::new(self.hover_w)
    }

    /// Constant avionics (compute + sensor) power term.
    #[must_use]
    pub fn avionics_power(&self) -> Watts {
        Watts::new(self.avionics_w)
    }

    /// Parasitic coefficient `c_p` in W/(m/s)³.
    #[must_use]
    pub fn parasitic_coeff(&self) -> f64 {
        self.parasitic_coeff
    }

    /// Total electrical power at cruise speed `v`.
    #[inline]
    #[must_use]
    pub fn power_at(&self, v: MetersPerSecond) -> Watts {
        let v = v.get().max(0.0);
        Watts::new(self.hover_w + self.avionics_w + self.parasitic_coeff * v * v * v)
    }

    /// The energy-optimal cruise speed `v* = ((P_h + P_av)/(2·c_p))^(1/3)`,
    /// or `None` when parasitic drag is zero (then faster is always
    /// better).
    #[must_use]
    pub fn energy_optimal_velocity(&self) -> Option<MetersPerSecond> {
        if self.parasitic_coeff <= 0.0 {
            return None;
        }
        Some(MetersPerSecond::new(
            ((self.hover_w + self.avionics_w) / (2.0 * self.parasitic_coeff)).cbrt(),
        ))
    }
}

/// Hover endurance on a battery: `t = battery_wh · reserve / P_hover`,
/// in minutes — the quantity behind paper Fig. 2b's endurance column.
///
/// # Examples
///
/// ```
/// use f1_model::mission::{hover_endurance, PowerModel};
///
/// let p = PowerModel::new(180.0, 12.0, 0.08)?;
/// // Table I battery: 55.5 Wh at 80 % usable.
/// let t = hover_endurance(&p, 55.5, 0.8)?;
/// assert!(t.get() > 10.0 && t.get() < 20.0);
/// # Ok::<(), f1_model::ModelError>(())
/// ```
///
/// # Errors
///
/// Returns [`ModelError::OutOfDomain`] for a non-positive battery energy
/// or a reserve outside `(0, 1]`.
pub fn hover_endurance(
    power: &PowerModel,
    battery_wh: f64,
    reserve: f64,
) -> Result<f1_units::Minutes, ModelError> {
    if !(battery_wh.is_finite() && battery_wh > 0.0) {
        return Err(ModelError::OutOfDomain {
            parameter: "battery energy",
            value: battery_wh,
            expected: "finite and > 0",
        });
    }
    if !(reserve.is_finite() && reserve > 0.0 && reserve <= 1.0) {
        return Err(ModelError::OutOfDomain {
            parameter: "battery reserve",
            value: reserve,
            expected: "0 < reserve <= 1",
        });
    }
    let draw = power.power_at(MetersPerSecond::ZERO).get();
    Ok(f1_units::Minutes::new(battery_wh * reserve / draw * 60.0))
}

/// Outcome of a mission estimate at one cruise speed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MissionEstimate {
    /// Cruise speed used.
    pub cruise: MetersPerSecond,
    /// Mission duration at that speed.
    pub duration: Seconds,
    /// Average electrical power.
    pub avg_power: Watts,
    /// Total energy in watt-hours.
    pub energy_wh: f64,
}

/// Estimates the time and energy to cover `distance` at cruise speed `v`.
///
/// # Errors
///
/// Returns [`ModelError::OutOfDomain`] for non-positive distance or speed.
pub fn estimate_mission(
    power: &PowerModel,
    distance: Meters,
    cruise: MetersPerSecond,
) -> Result<MissionEstimate, ModelError> {
    if !(distance.get().is_finite() && distance.get() > 0.0) {
        return Err(ModelError::OutOfDomain {
            parameter: "mission distance",
            value: distance.get(),
            expected: "finite and > 0",
        });
    }
    if !(cruise.get().is_finite() && cruise.get() > 0.0) {
        return Err(ModelError::OutOfDomain {
            parameter: "cruise velocity",
            value: cruise.get(),
            expected: "finite and > 0",
        });
    }
    let duration = distance / cruise;
    let avg_power = power.power_at(cruise);
    let energy_wh = avg_power.get() * duration.get() / 3600.0;
    Ok(MissionEstimate {
        cruise,
        duration,
        avg_power,
        energy_wh,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s500_power() -> PowerModel {
        // ~1.6 kg on ~0.2 m² of disk at FoM 0.65 ⇒ ≈ 180 W hover.
        let hover = PowerModel::induced_hover_power(Kilograms::new(1.62), 0.2, 0.65).unwrap();
        PowerModel::new(hover.get(), 12.0, 0.08).unwrap()
    }

    #[test]
    fn induced_power_plausible_for_s500() {
        let hover = PowerModel::induced_hover_power(Kilograms::new(1.62), 0.2, 0.65).unwrap();
        // Small quads hover at roughly 100 W/kg.
        assert!(hover.get() > 80.0 && hover.get() < 220.0, "{hover}");
    }

    #[test]
    fn induced_power_monotone_in_mass_and_area() {
        let base = PowerModel::induced_hover_power(Kilograms::new(1.0), 0.2, 0.7).unwrap();
        let heavier = PowerModel::induced_hover_power(Kilograms::new(1.5), 0.2, 0.7).unwrap();
        let bigger = PowerModel::induced_hover_power(Kilograms::new(1.0), 0.4, 0.7).unwrap();
        assert!(heavier > base);
        assert!(bigger < base);
    }

    #[test]
    fn induced_power_domain() {
        assert!(PowerModel::induced_hover_power(Kilograms::ZERO, 0.2, 0.7).is_err());
        assert!(PowerModel::induced_hover_power(Kilograms::new(1.0), 0.0, 0.7).is_err());
        assert!(PowerModel::induced_hover_power(Kilograms::new(1.0), 0.2, 0.0).is_err());
        assert!(PowerModel::induced_hover_power(Kilograms::new(1.0), 0.2, 1.5).is_err());
    }

    #[test]
    fn power_model_validation() {
        assert!(PowerModel::new(0.0, 1.0, 0.1).is_err());
        assert!(PowerModel::new(100.0, -1.0, 0.1).is_err());
        assert!(PowerModel::new(100.0, 1.0, -0.1).is_err());
        assert!(PowerModel::new(100.0, 0.0, 0.0).is_ok());
    }

    #[test]
    fn faster_is_cheaper_below_v_star() {
        // Hover-dominated regime: flying faster saves energy — the paper's
        // §I argument for maximizing safe velocity.
        let p = s500_power();
        let d = Meters::new(1000.0);
        let slow = estimate_mission(&p, d, MetersPerSecond::new(2.0)).unwrap();
        let fast = estimate_mission(&p, d, MetersPerSecond::new(6.0)).unwrap();
        assert!(fast.duration < slow.duration);
        assert!(fast.energy_wh < slow.energy_wh);
    }

    #[test]
    fn energy_optimum_is_a_minimum() {
        let p = s500_power();
        let v_star = p.energy_optimal_velocity().unwrap();
        let d = Meters::new(1000.0);
        let at = estimate_mission(&p, d, v_star).unwrap().energy_wh;
        let below = estimate_mission(&p, d, MetersPerSecond::new(v_star.get() * 0.7))
            .unwrap()
            .energy_wh;
        let above = estimate_mission(&p, d, MetersPerSecond::new(v_star.get() * 1.3))
            .unwrap()
            .energy_wh;
        assert!(at < below);
        assert!(at < above);
    }

    #[test]
    fn zero_parasitic_has_no_optimum() {
        let p = PowerModel::new(100.0, 10.0, 0.0).unwrap();
        assert!(p.energy_optimal_velocity().is_none());
        // Without drag, faster is strictly cheaper.
        let d = Meters::new(500.0);
        let a = estimate_mission(&p, d, MetersPerSecond::new(2.0))
            .unwrap()
            .energy_wh;
        let b = estimate_mission(&p, d, MetersPerSecond::new(8.0))
            .unwrap()
            .energy_wh;
        assert!(b < a);
    }

    #[test]
    fn estimate_validation() {
        let p = s500_power();
        assert!(estimate_mission(&p, Meters::ZERO, MetersPerSecond::new(1.0)).is_err());
        assert!(estimate_mission(&p, Meters::new(10.0), MetersPerSecond::ZERO).is_err());
    }

    #[test]
    fn endurance_monotonicities() {
        // Fig. 2b's mechanism: more battery ⇒ longer endurance; a heavier
        // (more power-hungry) vehicle ⇒ shorter.
        let light = PowerModel::new(100.0, 5.0, 0.05).unwrap();
        let heavy = PowerModel::new(300.0, 5.0, 0.05).unwrap();
        let small = hover_endurance(&light, 10.0, 0.8).unwrap();
        let big = hover_endurance(&light, 50.0, 0.8).unwrap();
        assert!(big > small);
        let tired = hover_endurance(&heavy, 10.0, 0.8).unwrap();
        assert!(tired < small);
    }

    #[test]
    fn endurance_validation() {
        let p = s500_power();
        assert!(hover_endurance(&p, 0.0, 0.8).is_err());
        assert!(hover_endurance(&p, 10.0, 0.0).is_err());
        assert!(hover_endurance(&p, 10.0, 1.5).is_err());
    }

    #[test]
    fn duration_and_energy_consistent() {
        let p = s500_power();
        let e = estimate_mission(&p, Meters::new(900.0), MetersPerSecond::new(3.0)).unwrap();
        assert!((e.duration.get() - 300.0).abs() < 1e-9);
        assert!((e.energy_wh - e.avg_power.get() * 300.0 / 3600.0).abs() < 1e-12);
    }
}
