//! Open-loop load generation on a due-time schedule.
//!
//! Every request and its send instant are generated from the seed before
//! the clock starts. The generator then sleeps until each request is due
//! and stamps its `arrival` with the *scheduled* instant, not the instant
//! it actually got sent: a generator that falls behind (a stall, a
//! descheduled thread) still charges the delay to every late request's
//! latency instead of silently omitting it. How late the generator ran
//! is reported as its own metric.

use bpar_data::tidigits::TidigitsDataset;
use bpar_serve::InferRequest;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Feature width of the speech model's input frames.
pub const INPUT: usize = 20;
/// Mean utterance length in frames (lengths vary ±35%).
pub const MEAN_FRAMES: usize = 11;
/// Shortest and longest utterance the corpus draws at that mean.
pub const MIN_FRAMES: usize = 7;
pub const MAX_FRAMES: usize = 14;

/// One pre-generated request: its send offset from the start of the run
/// and the request itself (arrival is stamped at send time).
pub struct Planned {
    pub offset: Duration,
    pub request: InferRequest<f32>,
}

/// `count(rate × seconds)` Poisson arrivals over `[0, seconds)`.
///
/// Given their count, the arrival instants of a Poisson process are
/// independent and uniform over the interval; fixing the count keeps the
/// offered load identical across seeds while the gaps stay exponential.
pub fn poisson_offsets(seed: u64, rate_rps: f64, seconds: f64) -> Vec<Duration> {
    let n = (rate_rps * seconds).round() as usize;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_a441);
    let mut t: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..seconds)).collect();
    t.sort_by(f64::total_cmp);
    t.into_iter().map(Duration::from_secs_f64).collect()
}

/// The seeded inputs of one serving run: request `id` (`0..n`, in send
/// order) carries utterance `id` of a synthetic TIDIGITS corpus seeded by
/// `seed`, and a tenant drawn uniformly from `tenants`.
pub fn plan_requests(seed: u64, offsets: &[Duration], tenants: u32) -> Vec<Planned> {
    let data = TidigitsDataset::new(INPUT, MEAN_FRAMES, seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x007e_4a47);
    offsets
        .iter()
        .enumerate()
        .map(|(i, &offset)| {
            let id = i as u64;
            let tenant = if tenants > 1 {
                rng.gen_range(0..tenants)
            } else {
                0
            };
            let frames = data.utterance::<f32>(id).frames;
            Planned {
                offset,
                request: InferRequest::new(id, frames).with_tenant(tenant),
            }
        })
        .collect()
}

/// Per-request generator timestamps, indexed by position in the plan.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    pub due: Instant,
    /// When the generator began handing the request to the system.
    pub sent: Instant,
    /// When that hand-off call returned.
    pub submitted: Instant,
}

impl Sent {
    /// How late the generator sent, seconds.
    pub fn lag_s(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64()
    }
}

/// Drives `plan` open-loop from `start`: sleeps until each request is
/// due, stamps `arrival` with the due instant and hands it to `submit`.
pub fn drive(
    start: Instant,
    plan: Vec<Planned>,
    mut submit: impl FnMut(InferRequest<f32>),
) -> Vec<Sent> {
    let mut sent = Vec::with_capacity(plan.len());
    for Planned {
        offset,
        mut request,
    } in plan
    {
        let due = start + offset;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let at = Instant::now();
        request.arrival = due;
        submit(request);
        sent.push(Sent {
            due,
            sent: at,
            submitted: Instant::now(),
        });
    }
    sent
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_sorted_and_sized() {
        let a = poisson_offsets(3, 250.0, 2.0);
        assert_eq!(a.len(), 500);
        assert_eq!(a, poisson_offsets(3, 250.0, 2.0));
        assert_ne!(a, poisson_offsets(4, 250.0, 2.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|d| d.as_secs_f64() < 2.0));
    }

    #[test]
    fn requests_are_seeded_and_tenanted() {
        let offs = poisson_offsets(1, 100.0, 1.0);
        let a = plan_requests(9, &offs, 2);
        let b = plan_requests(9, &offs, 2);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.request.frames == y.request.frames
                && x.request.tenant == y.request.tenant));
        assert!(a.iter().any(|p| p.request.tenant == 1));
        assert!(a
            .iter()
            .all(|p| (MIN_FRAMES..=MAX_FRAMES).contains(&p.request.seq_len())));
    }

    #[test]
    fn arrival_is_the_due_instant() {
        let offs = vec![Duration::ZERO, Duration::from_millis(2)];
        let plan = plan_requests(1, &offs, 1);
        let start = Instant::now();
        let mut arrivals = Vec::new();
        let sent = drive(start, plan, |r| arrivals.push(r.arrival));
        assert_eq!(arrivals, vec![start, start + Duration::from_millis(2)]);
        assert!(sent
            .iter()
            .all(|s| s.sent >= s.due && s.submitted >= s.sent));
    }
}
