//! Error type for catalog and builder operations.

use f1_units::{Hertz, UnitError};

/// Errors from the component database.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ComponentError {
    /// A named component was not found in the catalog.
    UnknownComponent {
        /// The component family that was searched.
        family: &'static str,
        /// The name that was looked up.
        name: String,
    },
    /// No characterized throughput exists for a platform × algorithm pair.
    MissingThroughput {
        /// Compute platform name.
        platform: String,
        /// Autonomy algorithm name.
        algorithm: String,
    },
    /// Two entries with the same name were inserted.
    DuplicateEntry {
        /// The component family.
        family: &'static str,
        /// The duplicated name.
        name: String,
    },
    /// A builder field was missing or invalid.
    InvalidField {
        /// Field name.
        field: &'static str,
        /// What went wrong.
        reason: String,
    },
    /// A quantity magnitude was invalid.
    InvalidQuantity(UnitError),
}

impl core::fmt::Display for ComponentError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::UnknownComponent { family, name } => {
                write!(f, "unknown {family}: {name:?}")
            }
            Self::MissingThroughput {
                platform,
                algorithm,
            } => write!(
                f,
                "no characterized throughput for {algorithm:?} on {platform:?}"
            ),
            Self::DuplicateEntry { family, name } => {
                write!(f, "duplicate {family} entry: {name:?}")
            }
            Self::InvalidField { field, reason } => {
                write!(f, "invalid field {field}: {reason}")
            }
            Self::InvalidQuantity(e) => write!(f, "invalid quantity: {e}"),
        }
    }
}

impl std::error::Error for ComponentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::InvalidQuantity(e) => Some(e),
            _ => None,
        }
    }
}

impl From<UnitError> for ComponentError {
    fn from(e: UnitError) -> Self {
        Self::InvalidQuantity(e)
    }
}

/// The check every characterized rate passes — a throughput, a sensor
/// frame rate, an airframe control rate: positive and finite, with a
/// finite period. A subnormal rate such as `1e-310` Hz is positive, but
/// its period `1/rate` overflows to infinity, and every latency the
/// model derives from it would too.
pub(crate) fn check_rate(field: &'static str, rate: Hertz) -> Result<(), ComponentError> {
    let hz = rate.get();
    if hz > 0.0 && hz.is_finite() && hz.recip().is_finite() {
        Ok(())
    } else {
        Err(ComponentError::InvalidField {
            field,
            reason: format!("must be positive with a finite period, got {rate}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_need_a_finite_period() {
        for ok in [1e-300, 1.0, 178.0, 1e300, f64::MAX] {
            assert_eq!(check_rate("throughput", Hertz::new(ok)), Ok(()), "{ok}");
        }
        // The smallest normal double still has a finite period; below
        // 2^-1024 the reciprocal overflows.
        assert!(check_rate("frame_rate", Hertz::new(f64::MIN_POSITIVE)).is_ok());
        for bad in [0.0, -0.0, -1.0, 1e-310, 5e-324] {
            let err = check_rate("control_rate", Hertz::new(bad)).unwrap_err();
            assert!(
                matches!(
                    err,
                    ComponentError::InvalidField {
                        field: "control_rate",
                        ..
                    }
                ),
                "{bad}: {err:?}"
            );
        }
    }

    #[test]
    fn display_unknown_component() {
        let e = ComponentError::UnknownComponent {
            family: "compute platform",
            name: "TPU v9".into(),
        };
        assert!(e.to_string().contains("TPU v9"));
    }

    #[test]
    fn display_missing_throughput() {
        let e = ComponentError::MissingThroughput {
            platform: "Ras-Pi 4".into(),
            algorithm: "CAD2RL".into(),
        };
        let s = e.to_string();
        assert!(s.contains("Ras-Pi 4") && s.contains("CAD2RL"));
    }

    #[test]
    fn is_std_error_send_sync() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<ComponentError>();
    }
}
