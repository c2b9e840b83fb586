//! Simulation results and the steady-state estimates derived from them.

/// Outcome of one simulated pipelined broadcast.
#[derive(Clone, Debug)]
pub struct SimulationReport {
    /// Number of slices broadcast.
    pub slices: usize,
    /// `slice_completion[k]` is the time at which slice `k` has reached
    /// every processor.
    pub slice_completion: Vec<f64>,
    /// `node_completion[u]` is the time at which processor `u` holds the
    /// whole message (its last slice).
    pub node_completion: Vec<f64>,
    /// Time at which every processor holds the whole message.
    pub makespan: f64,
    /// Number of transfers simulated.
    pub transfers: usize,
    /// Number of discrete events processed.
    pub events: usize,
}

impl SimulationReport {
    /// Estimated steady-state period: the average spacing between the
    /// completion times of the last half of the slices (after the pipeline
    /// has filled). Returns 0 when fewer than two slices were simulated.
    pub fn estimated_period(&self) -> f64 {
        let n = self.slice_completion.len();
        if n < 2 {
            return 0.0;
        }
        let start = n / 2;
        if start == n - 1 {
            return self.slice_completion[n - 1] - self.slice_completion[n - 2];
        }
        (self.slice_completion[n - 1] - self.slice_completion[start]) / (n - 1 - start) as f64
    }

    /// Estimated steady-state throughput (slices per time unit): the inverse
    /// of [`SimulationReport::estimated_period`].
    pub fn estimated_throughput(&self) -> f64 {
        let p = self.estimated_period();
        if p > 0.0 {
            1.0 / p
        } else {
            f64::INFINITY
        }
    }

    /// Per-slice steady-state period measured over batch-strided completion
    /// gaps: when the broadcast delivers `batch` slices per period (the
    /// schedule-driven execution mode), `completion[k + batch] −
    /// completion[k]` spans exactly one period, so this estimator is immune
    /// to the within-batch completion jitter that throws off
    /// [`SimulationReport::estimated_period`]. Averages over the last half
    /// of the slices; falls back to `estimated_period` when the run is too
    /// short for a single stride.
    pub fn batch_period(&self, batch: usize) -> f64 {
        let n = self.slice_completion.len();
        if batch == 0 || n <= batch {
            return self.estimated_period();
        }
        // Strides k → k + batch with k in the last half of the run.
        let start = (n / 2).min(n - batch - 1);
        let gaps = (start..n - batch)
            .map(|k| self.slice_completion[k + batch] - self.slice_completion[k])
            .sum::<f64>();
        gaps / ((n - batch - start) * batch) as f64
    }

    /// Steady-state throughput derived from [`SimulationReport::batch_period`].
    pub fn batch_throughput(&self, batch: usize) -> f64 {
        let p = self.batch_period(batch);
        if p > 0.0 {
            1.0 / p
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(completions: Vec<f64>) -> SimulationReport {
        SimulationReport {
            slices: completions.len(),
            node_completion: vec![*completions.last().unwrap_or(&0.0)],
            makespan: *completions.last().unwrap_or(&0.0),
            slice_completion: completions,
            transfers: 0,
            events: 0,
        }
    }

    #[test]
    fn period_of_evenly_spaced_completions() {
        let r = report(vec![3.0, 5.0, 7.0, 9.0, 11.0, 13.0]);
        assert!((r.estimated_period() - 2.0).abs() < 1e-12);
        assert!((r.estimated_throughput() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn period_ignores_the_fill_transient() {
        // Irregular start, steady tail of spacing 1.
        let r = report(vec![10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0]);
        assert!((r.estimated_period() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn batch_period_ignores_within_batch_jitter() {
        // Two slices per period of length 4; completions jitter inside the
        // batch (3, 1 offsets), which fools the adjacent-gap estimator but
        // not the batch-strided one.
        let r = report(vec![3.0, 1.0, 7.0, 5.0, 11.0, 9.0, 15.0, 13.0]);
        assert!((r.batch_period(2) - 2.0).abs() < 1e-12);
        assert!((r.batch_throughput(2) - 0.5).abs() < 1e-12);
        // Degenerate strides fall back to the plain estimator.
        assert_eq!(r.batch_period(0), r.estimated_period());
        assert_eq!(r.batch_period(100), r.estimated_period());
    }

    #[test]
    fn degenerate_reports() {
        let r = report(vec![4.0]);
        assert_eq!(r.estimated_period(), 0.0);
        assert!(r.estimated_throughput().is_infinite());
        let r2 = report(vec![4.0, 6.0]);
        assert!((r2.estimated_period() - 2.0).abs() < 1e-12);
    }
}
