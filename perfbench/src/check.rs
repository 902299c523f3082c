//! The output check: every timed run must land on the result of an
//! uninterrupted sequential-engine reference run over the same inputs.

use cdp_core::deployment::DeploymentResult;
use cdp_core::serving::weights_fingerprint;

/// What the check compares, taken from the reference run.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Fingerprint of the final weights' exact bit patterns.
    pub fingerprint: u64,
    /// Final prequential error.
    pub final_error: f64,
    /// Accounted cost-model total in seconds.
    pub accounted_s: f64,
    /// Cumulative error after every deployment chunk.
    pub error_curve: Vec<(u64, f64)>,
    /// Cumulative accounted cost after every deployment chunk.
    pub cost_curve: Vec<(u64, f64)>,
}

impl Expected {
    /// Captures the reference run's outputs.
    pub fn of(reference: &DeploymentResult) -> Self {
        Self {
            fingerprint: weights_fingerprint(&reference.final_weights),
            final_error: reference.final_error,
            accounted_s: reference.total_secs,
            error_curve: reference.error_curve.clone(),
            cost_curve: reference.cost_curve.clone(),
        }
    }

    /// Checks `run` against the reference: the weights fingerprint, final
    /// error, accounted cost and the per-chunk error and cost curves must
    /// all match bit for bit.
    ///
    /// # Errors
    /// A description of the first mismatch.
    pub fn check(&self, run: &DeploymentResult) -> Result<(), String> {
        let fingerprint = weights_fingerprint(&run.final_weights);
        if fingerprint != self.fingerprint {
            return Err(format!(
                "weights fingerprint {fingerprint:016x} != reference {:016x}",
                self.fingerprint
            ));
        }
        if run.final_error.to_bits() != self.final_error.to_bits() {
            return Err(format!(
                "final_error {} != reference {}",
                run.final_error, self.final_error
            ));
        }
        if run.total_secs.to_bits() != self.accounted_s.to_bits() {
            return Err(format!(
                "accounted_s {} != reference {}",
                run.total_secs, self.accounted_s
            ));
        }
        if run.error_curve != self.error_curve {
            return Err("error curve differs from the reference".to_owned());
        }
        if run.cost_curve != self.cost_curve {
            return Err("cost curve differs from the reference".to_owned());
        }
        Ok(())
    }
}
