//! The four tenant workloads. Each spawns its own `guardiand`, connects
//! its tenants the way a tenant process would, and drives them from at
//! most two client threads.

pub mod churn;
pub mod dispatch;
pub mod serve;
pub mod train;

use crate::common::{Ctx, Plan, Tally};
use crate::report::Metric;
use cuda_rt::CudaApi;
use guardian::GrdLib;
use std::time::Instant;

/// A workload by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Launch-bound: Guardian's fixed per-launch cost over shm.
    Dispatch,
    /// Simulator-bound: two training jobs over uds.
    Train,
    /// Open-loop latency tenant beside a paced best-effort tenant.
    Serve,
    /// Tenant lifecycles with periodic attackers.
    Churn,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 4] = [Kind::Dispatch, Kind::Train, Kind::Serve, Kind::Churn];

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Dispatch => "dispatch",
            Kind::Train => "train",
            Kind::Serve => "serve",
            Kind::Churn => "churn",
        }
    }

    /// Highest percentile the request-latency tail is reported at. Train
    /// completes about a hundred steps a run, the others thousands of
    /// requests.
    pub fn tail_max(self) -> f64 {
        match self {
            Kind::Train => 90.0,
            _ => 99.0,
        }
    }

    /// Window over which rates are taken, before the median across
    /// windows: one second where thousands of requests complete in it.
    /// Train and serve complete a few steps or paced clumps a second, so
    /// their rates run from first to last completion instead.
    pub fn rate_window(self) -> Option<f64> {
        match self {
            Kind::Dispatch | Kind::Churn => Some(1.0),
            Kind::Train | Kind::Serve => None,
        }
    }

    /// Sub-runs an untraced run is split into. Train needs long ones to
    /// complete enough steps; the others complete thousands of requests
    /// a second, and more sub-runs make it likelier that the better ones
    /// fall outside the host's slow spells.
    pub fn subruns(self) -> usize {
        match self {
            Kind::Train => 3,
            Kind::Serve => 5,
            Kind::Dispatch | Kind::Churn => 10,
        }
    }
}

/// What one measured run of a workload produced.
pub struct Run {
    /// Duration of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// One per tenant thread.
    pub tallies: Vec<Tally>,
    /// The daemon's peak RSS at the end of the run, MiB.
    pub rss_mb: f64,
    /// Workload-specific metrics.
    pub extra: Vec<Metric>,
}

/// Run `setup` `n` times, timing each; keep the last one. Each earlier
/// set-up is torn down before the next starts, outside the timing.
pub fn timed_setups<S>(
    n: usize,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(Vec<f64>, S), String> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let s = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(s);
    }
    Ok((times, last.expect("at least one set-up")))
}

/// Set up `kind` `setups` times and measure the last set-up by `plan`.
pub fn run(kind: Kind, ctx: &Ctx, setups: usize, plan: Plan) -> Result<Run, String> {
    match kind {
        Kind::Dispatch => dispatch::run(ctx, setups, plan),
        Kind::Train => train::run(ctx, setups, plan),
        Kind::Serve => serve::run(ctx, setups, plan),
        Kind::Churn => churn::run(ctx, setups, plan),
    }
}

/// A tenant's API as the workload drives it: GrdLib itself, or GrdLib
/// behind the span-recording wrapper when the run is traced.
pub fn api_of(ctx: &Ctx, lib: GrdLib) -> Box<dyn CudaApi> {
    if ctx.traced {
        Box::new(crate::tenant::Traced(lib))
    } else {
        Box::new(lib)
    }
}

/// Join tenant threads, turning a panic into a failed tally.
pub fn join_all(handles: Vec<std::thread::ScopedJoinHandle<'_, Tally>>) -> Vec<Tally> {
    handles
        .into_iter()
        .map(|h| {
            h.join()
                .unwrap_or_else(|_| Tally::failure("tenant thread panicked"))
        })
        .collect()
}
