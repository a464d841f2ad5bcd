//! Output and accounting checks, run after the timed region.

use bpar_core::exec::{Executor, SequentialExec};
use bpar_core::model::Brnn;
use bpar_tensor::Matrix;

/// One served response, as the benchmark keeps it for checking.
#[derive(Debug, Clone)]
pub struct Served {
    pub id: u64,
    pub tenant: u32,
    pub logits: Vec<f32>,
    pub padded_len: usize,
}

/// Logits `SequentialExec` computes for `frames`, zero-padded to
/// `padded_len` timesteps.
pub fn reference_logits(model: &Brnn<f32>, frames: &[Vec<f32>], padded_len: usize) -> Vec<f32> {
    let dim = model.config.input_size;
    let xs: Vec<Matrix<f32>> = (0..padded_len)
        .map(|t| match frames.get(t) {
            Some(f) => Matrix::from_vec(1, dim, f.clone()),
            None => Matrix::zeros(1, dim),
        })
        .collect();
    SequentialExec.forward(model, &xs).logits.row(0).to_vec()
}

/// Number of responses whose logits differ from the sequential reference
/// in any bit. `frames(id)` returns the request's input frames. Checks
/// run on `threads` threads.
pub fn logit_mismatches<'a>(
    models: &[Brnn<f32>],
    frames: impl Fn(u64) -> &'a [Vec<f32>] + Sync,
    served: &[Served],
    threads: usize,
) -> usize {
    let chunk = served.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = served
            .chunks(chunk)
            .map(|part| {
                let frames = &frames;
                s.spawn(move || {
                    part.iter()
                        .filter(|r| {
                            let model = &models[r.tenant as usize];
                            let want = reference_logits(model, frames(r.id), r.padded_len);
                            !bit_equal(&want, &r.logits)
                        })
                        .count()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checker thread panicked"))
            .sum()
    })
}

/// Bit-for-bit equality of two float slices.
pub fn bit_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Terminal outcomes of a run's requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub submitted: u64,
    pub served: u64,
    pub shed: u64,
    pub rejected: u64,
    pub failed: u64,
}

impl Tally {
    /// Every submitted request reached exactly one terminal outcome.
    pub fn conserved(&self) -> Result<(), String> {
        let terminal = self.served + self.shed + self.rejected + self.failed;
        if terminal == self.submitted {
            Ok(())
        } else {
            Err(format!(
                "conservation violated: submitted {} != served {} + shed {} + rejected {} + failed {}",
                self.submitted, self.served, self.shed, self.rejected, self.failed
            ))
        }
    }

    /// Requests that did not get a response.
    pub fn not_served(&self) -> u64 {
        self.shed + self.rejected + self.failed
    }
}

/// The router delivered one terminal outcome per submitted request.
pub fn router_conserved(submitted: u64, completed: u64) -> Result<(), String> {
    if submitted == completed {
        Ok(())
    } else {
        Err(format!(
            "router conservation violated: completed {completed} != submitted {submitted}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpar_core::model::BrnnConfig;

    #[test]
    fn conservation_accepts_balanced_and_names_imbalance() {
        let t = Tally {
            submitted: 10,
            served: 7,
            shed: 1,
            rejected: 1,
            failed: 1,
        };
        assert!(t.conserved().is_ok());
        assert_eq!(t.not_served(), 3);
        let lost = Tally { served: 6, ..t };
        assert!(lost.conserved().unwrap_err().contains("submitted 10"));
        assert!(router_conserved(5, 5).is_ok());
        assert!(router_conserved(5, 4).is_err());
    }

    #[test]
    fn bit_equality_distinguishes_signed_zero() {
        assert!(bit_equal(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(!bit_equal(&[0.0], &[-0.0]));
        assert!(!bit_equal(&[1.0], &[1.0, 2.0]));
    }

    #[test]
    fn checker_counts_a_corrupted_response() {
        let model: Brnn<f32> = Brnn::new(
            BrnnConfig {
                input_size: 3,
                hidden_size: 2,
                layers: 1,
                seq_len: 4,
                output_size: 2,
                ..BrnnConfig::default()
            },
            5,
        );
        let frames: Vec<Vec<Vec<f32>>> = (0..4)
            .map(|i| (0..3).map(|t| vec![0.1 * (i + t) as f32; 3]).collect())
            .collect();
        let mut served: Vec<Served> = (0..4u64)
            .map(|id| Served {
                id,
                tenant: 0,
                logits: reference_logits(&model, &frames[id as usize], 4),
                padded_len: 4,
            })
            .collect();
        let models = [model];
        let lookup = |id: u64| frames[id as usize].as_slice();
        assert_eq!(logit_mismatches(&models, lookup, &served, 2), 0);
        served[2].logits[0] += 1e-6;
        assert_eq!(logit_mismatches(&models, lookup, &served, 2), 1);
    }
}
