//! Acceleration disturbances: payload jerk, gusts, mounting compliance.

use f1_units::MetersPerSecondSquared;
use rand::Rng;

/// A zero-mean Gaussian acceleration disturbance with an optional constant
/// bias, sampled once per physics step.
///
/// The paper lists "sudden movements (e.g., jerk) of the payload
/// components" as a real-flight effect absent from the F-1 model; this is
/// its simulation stand-in.
///
/// # Examples
///
/// ```
/// use f1_flightsim::DisturbanceModel;
/// let calm = DisturbanceModel::none();
/// assert_eq!(calm.std_dev(), 0.0);
/// let gusty = DisturbanceModel::gaussian(0.05).unwrap();
/// assert_eq!(gusty.std_dev(), 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisturbanceModel {
    std_dev: f64,
    bias: f64,
}

impl DisturbanceModel {
    /// No disturbance.
    #[must_use]
    pub fn none() -> Self {
        Self {
            std_dev: 0.0,
            bias: 0.0,
        }
    }

    /// Zero-mean Gaussian disturbance with the given standard deviation in
    /// m/s².
    ///
    /// # Errors
    ///
    /// Returns [`f1_model::ModelError::OutOfDomain`] if `std_dev` is
    /// negative or non-finite.
    pub fn gaussian(std_dev: f64) -> Result<Self, f1_model::ModelError> {
        if !(std_dev.is_finite() && std_dev >= 0.0) {
            return Err(f1_model::ModelError::OutOfDomain {
                parameter: "disturbance std_dev",
                value: std_dev,
                expected: "finite and >= 0",
            });
        }
        Ok(Self { std_dev, bias: 0.0 })
    }

    /// Adds a constant bias (e.g. a steady headwind component) in m/s².
    ///
    /// # Errors
    ///
    /// Returns [`f1_model::ModelError::OutOfDomain`] if `bias` is
    /// non-finite.
    pub fn with_bias(mut self, bias: f64) -> Result<Self, f1_model::ModelError> {
        if !bias.is_finite() {
            return Err(f1_model::ModelError::OutOfDomain {
                parameter: "disturbance bias",
                value: bias,
                expected: "finite",
            });
        }
        self.bias = bias;
        Ok(self)
    }

    /// The standard deviation, m/s².
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// The constant bias, m/s².
    #[must_use]
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// The largest magnitude [`sample`](Self::sample) can return, in
    /// m/s²: `|bias| + σ·z_max`, where `z_max = √(−2 ln ε) ≈ 8.4904` is
    /// the standard normal draw at its extreme. The draw takes its first
    /// uniform from `[ε, 1)`, so `−2 ln u1 ≤ −2 ln ε`, and `|cos| ≤ 1`;
    /// each rounding step is monotone, so no sample exceeds the bound.
    #[must_use]
    pub fn max_abs(&self) -> f64 {
        self.bias.abs() + self.std_dev * box_muller(f64::EPSILON, 0.0)
    }

    /// Draws one disturbance sample.
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> MetersPerSecondSquared {
        if self.std_dev == 0.0 {
            return MetersPerSecondSquared::new(self.bias);
        }
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        MetersPerSecondSquared::new(self.bias + self.std_dev * box_muller(u1, u2))
    }
}

/// One standard normal draw from the uniforms `u1 ∈ [ε, 1)` and
/// `u2 ∈ [0, 1)` (Box–Muller).
#[inline]
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

impl Default for DisturbanceModel {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn none_is_exactly_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = DisturbanceModel::none();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), MetersPerSecondSquared::ZERO);
        }
    }

    #[test]
    fn gaussian_statistics() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = DisturbanceModel::gaussian(0.1).unwrap();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng).get()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.005, "mean = {mean}");
        assert!((var.sqrt() - 0.1).abs() < 0.01, "std = {}", var.sqrt());
    }

    #[test]
    fn bias_shifts_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = DisturbanceModel::gaussian(0.05)
            .unwrap()
            .with_bias(-0.2)
            .unwrap();
        let n = 10_000;
        let mean = (0..n).map(|_| d.sample(&mut rng).get()).sum::<f64>() / n as f64;
        assert!((mean + 0.2).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn max_abs_is_the_extreme_draw() {
        // u1 = ε is the smallest first uniform `sample` draws, and u2 = 0
        // puts the cosine at 1: that draw is z_max itself.
        let z_max = box_muller(f64::EPSILON, 0.0);
        assert_eq!(z_max, (-2.0 * f64::EPSILON.ln()).sqrt());
        assert!((z_max - 8.4904).abs() < 1e-4, "z_max = {z_max}");
        assert_eq!(DisturbanceModel::none().max_abs(), 0.0);
        let d = DisturbanceModel::gaussian(0.2)
            .unwrap()
            .with_bias(-0.3)
            .unwrap();
        assert_eq!(d.max_abs(), 0.3 + 0.2 * z_max);
        // The uniforms next to the extreme stay within it.
        for u1 in [f64::EPSILON, 2.0 * f64::EPSILON, 1e-15, 1e-12] {
            for u2 in [
                0.0,
                0.25,
                0.5,
                0.5 - f64::EPSILON / 2.0,
                1.0 - f64::EPSILON / 2.0,
            ] {
                let z = box_muller(u1, u2);
                assert!(z.abs() <= z_max, "|z({u1}, {u2})| = {} > {z_max}", z.abs());
            }
        }
    }

    #[test]
    fn a_million_samples_stay_within_max_abs() {
        let mut rng = StdRng::seed_from_u64(4);
        for d in [
            DisturbanceModel::gaussian(0.2).unwrap(),
            DisturbanceModel::gaussian(0.05)
                .unwrap()
                .with_bias(0.1)
                .unwrap(),
        ] {
            let bound = d.max_abs();
            let peak = (0..500_000)
                .map(|_| d.sample(&mut rng).get().abs())
                .fold(0.0, f64::max);
            assert!(peak <= bound, "peak {peak} > max_abs {bound}");
        }
    }

    #[test]
    fn validation() {
        assert!(DisturbanceModel::gaussian(-0.1).is_err());
        assert!(DisturbanceModel::gaussian(f64::NAN).is_err());
        assert!(DisturbanceModel::none().with_bias(f64::INFINITY).is_err());
    }
}
