//! Sensor records: modality, frame rate, range and mass.

use f1_units::{Grams, Hertz, Meters};
use serde::{Deserialize, Serialize};

use crate::error::check_rate;
use crate::ComponentError;

/// The sensing modality of an onboard sensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum SensorModality {
    /// Monocular RGB camera.
    RgbCamera,
    /// RGB-D depth camera (e.g. Intel RealSense).
    RgbdCamera,
    /// Stereo camera pair.
    StereoCamera,
    /// Scanning or solid-state lidar.
    Lidar,
    /// Millimetre-wave radar.
    Radar,
}

impl core::fmt::Display for SensorModality {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Self::RgbCamera => "RGB camera",
            Self::RgbdCamera => "RGB-D camera",
            Self::StereoCamera => "stereo camera",
            Self::Lidar => "lidar",
            Self::Radar => "radar",
        })
    }
}

/// An onboard sensor: the pipeline's first stage and the origin of the
/// sensing range `d` in Eq. 4.
///
/// # Examples
///
/// ```
/// use f1_components::{Sensor, SensorModality};
/// use f1_units::{Grams, Hertz, Meters};
///
/// // §VI-C: an RGB-D camera at 60 FPS with 4.5 m of range.
/// let cam = Sensor::new(
///     "RGB-D 60",
///     SensorModality::RgbdCamera,
///     Hertz::new(60.0),
///     Meters::new(4.5),
///     Grams::new(30.0),
/// )?;
/// assert_eq!(cam.frame_rate(), Hertz::new(60.0));
/// # Ok::<(), f1_components::ComponentError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sensor {
    name: String,
    modality: SensorModality,
    frame_rate: Hertz,
    range: Meters,
    mass: Grams,
}

impl Sensor {
    /// Creates a sensor record.
    ///
    /// # Errors
    ///
    /// Returns [`ComponentError::InvalidField`] if the name is empty, the
    /// frame rate is non-positive or its period overflows, the range is
    /// non-positive, or the mass is negative.
    pub fn new(
        name: impl Into<String>,
        modality: SensorModality,
        frame_rate: Hertz,
        range: Meters,
        mass: Grams,
    ) -> Result<Self, ComponentError> {
        let name = name.into();
        if name.trim().is_empty() {
            return Err(ComponentError::InvalidField {
                field: "name",
                reason: "must not be empty".into(),
            });
        }
        check_rate("frame_rate", frame_rate)?;
        if range.get() <= 0.0 || !range.get().is_finite() {
            return Err(ComponentError::InvalidField {
                field: "range",
                reason: format!("must be positive, got {range}"),
            });
        }
        if mass.get() < 0.0 || !mass.get().is_finite() {
            return Err(ComponentError::InvalidField {
                field: "mass",
                reason: format!("must be non-negative, got {mass}"),
            });
        }
        Ok(Self {
            name,
            modality,
            frame_rate,
            range,
            mass,
        })
    }

    /// The sensor's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sensing modality.
    #[must_use]
    pub fn modality(&self) -> SensorModality {
        self.modality
    }

    /// Frame rate `f_sensor`.
    #[must_use]
    pub fn frame_rate(&self) -> Hertz {
        self.frame_rate
    }

    /// Maximum reliable sensing range `d`.
    #[must_use]
    pub fn range(&self) -> Meters {
        self.range
    }

    /// Sensor mass (contributes to payload weight).
    #[must_use]
    pub fn mass(&self) -> Grams {
        self.mass
    }

    /// Returns a copy with a different frame rate (for what-if sweeps).
    ///
    /// # Errors
    ///
    /// Returns [`ComponentError::InvalidField`] if the rate is
    /// non-positive or its period overflows.
    pub fn with_frame_rate(&self, frame_rate: Hertz) -> Result<Self, ComponentError> {
        Self::new(
            self.name.clone(),
            self.modality,
            frame_rate,
            self.range,
            self.mass,
        )
    }

    /// Returns a copy with a different range.
    ///
    /// # Errors
    ///
    /// Returns [`ComponentError::InvalidField`] if the range is non-positive.
    pub fn with_range(&self, range: Meters) -> Result<Self, ComponentError> {
        Self::new(
            self.name.clone(),
            self.modality,
            self.frame_rate,
            range,
            self.mass,
        )
    }
}

impl core::fmt::Display for Sensor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} ({}, {:.0}, {:.1})",
            self.name, self.modality, self.frame_rate, self.range
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cam() -> Sensor {
        Sensor::new(
            "test-cam",
            SensorModality::RgbCamera,
            Hertz::new(60.0),
            Meters::new(10.0),
            Grams::new(20.0),
        )
        .unwrap()
    }

    #[test]
    fn accessors() {
        let c = cam();
        assert_eq!(c.name(), "test-cam");
        assert_eq!(c.modality(), SensorModality::RgbCamera);
        assert_eq!(c.frame_rate(), Hertz::new(60.0));
        assert_eq!(c.range(), Meters::new(10.0));
        assert_eq!(c.mass(), Grams::new(20.0));
    }

    #[test]
    fn rejects_empty_name() {
        let e = Sensor::new(
            "  ",
            SensorModality::Lidar,
            Hertz::new(10.0),
            Meters::new(30.0),
            Grams::new(100.0),
        );
        assert!(matches!(
            e,
            Err(ComponentError::InvalidField { field: "name", .. })
        ));
    }

    #[test]
    fn rejects_non_positive_rate_and_range() {
        assert!(cam().with_frame_rate(Hertz::ZERO).is_err());
        assert!(cam().with_frame_rate(Hertz::new(-5.0)).is_err());
        // Positive, but its period overflows to infinity.
        assert!(cam().with_frame_rate(Hertz::new(1e-310)).is_err());
        assert!(cam().with_range(Meters::ZERO).is_err());
    }

    #[test]
    fn rejects_negative_mass() {
        let e = Sensor::new(
            "x",
            SensorModality::Radar,
            Hertz::new(20.0),
            Meters::new(50.0),
            Grams::new(-1.0),
        );
        assert!(e.is_err());
    }

    #[test]
    fn zero_mass_is_allowed() {
        // Integrated sensors whose mass is accounted in the frame.
        assert!(Sensor::new(
            "builtin",
            SensorModality::RgbCamera,
            Hertz::new(30.0),
            Meters::new(5.0),
            Grams::ZERO,
        )
        .is_ok());
    }

    #[test]
    fn what_if_mutators_preserve_identity() {
        let c = cam().with_frame_rate(Hertz::new(120.0)).unwrap();
        assert_eq!(c.name(), "test-cam");
        assert_eq!(c.frame_rate(), Hertz::new(120.0));
        assert_eq!(c.range(), Meters::new(10.0));
    }

    #[test]
    fn display_mentions_modality() {
        assert!(cam().to_string().contains("RGB camera"));
        assert_eq!(SensorModality::RgbdCamera.to_string(), "RGB-D camera");
    }
}
