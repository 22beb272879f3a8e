//! Driving a running `duo-serve` service: the open-loop rate ladder and
//! the serial replay of served requests through the public stage
//! functions (quantize → purify → embed → fan-out).

use crate::checks;
use crate::common::{
    err, ms, open_loop, percentile, resource_usage, BenchResult, Fingerprint, Metrics, Rung, Sent,
};
use duo_experiments::{build_world, Scale};
use duo_models::{Architecture, LossKind};
use duo_retrieval::RetrievalSystem;
use duo_serve::{ClientHandle, Purify, RetrievalService, ServeConfig, ServeError, ServiceStats};
use duo_tensor::Rng64;
use duo_video::{DatasetKind, SyntheticDataset, Video, VideoId};
use std::borrow::Cow;
use std::time::{Duration, Instant};

/// Sender threads (the reference machine has two vCPUs).
pub const SENDERS: usize = 2;

/// One scheduled request: which account sends which clip. Requests name
/// clips by index, so a run's load costs no memory per request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Index into the pass's client handles.
    pub account: usize,
    /// Index into the load's clip table.
    pub clip: usize,
    /// Seed of a near-duplicate perturbation of the clip, if any.
    pub perturb: Option<u64>,
}

/// Pixels a near-duplicate request moves, and by how much at most.
const PERTURB_PIXELS: usize = 400;
const PERTURB_DELTA: f32 = 24.0;

impl Request {
    /// The clip this request submits: the table clip, or its seeded
    /// near-duplicate (`PERTURB_PIXELS` random pixels moved by up to
    /// ±`PERTURB_DELTA`).
    pub fn video<'a>(&self, clips: &'a [Video]) -> Cow<'a, Video> {
        let base = &clips[self.clip];
        match self.perturb {
            None => Cow::Borrowed(base),
            Some(seed) => {
                let mut rng = Rng64::new(seed);
                let mut v = base.clone();
                let px = v.tensor_mut().as_mut_slice();
                for _ in 0..PERTURB_PIXELS {
                    let i = rng.below(px.len());
                    px[i] = (px[i] + (rng.uniform() * 2.0 - 1.0) * PERTURB_DELTA).clamp(0.0, 255.0);
                }
                Cow::Owned(v)
            }
        }
    }
}

/// One rung of generated load.
pub struct RungLoad {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Due times from the rung's start.
    pub due: Vec<Duration>,
    /// The requests, in due order.
    pub requests: Vec<Request>,
}

impl RungLoad {
    /// Folds the rung's schedule and request table into a fingerprint.
    pub fn fingerprint(&self, fp: &mut Fingerprint) {
        for (at, r) in self.due.iter().zip(&self.requests) {
            fp.u64(at.as_nanos() as u64);
            fp.u64(r.account as u64);
            fp.u64(r.clip as u64);
            fp.u64(r.perturb.map_or(0, |s| s ^ 1 << 63));
        }
    }
}

/// A served request's result.
pub type Served = Result<Vec<VideoId>, ServeError>;

/// What one pass over a ladder produced.
pub struct LadderPass {
    /// `(rung, index, timing, outcome)` per request, in schedule order.
    pub results: Vec<(usize, usize, Sent, Served)>,
    /// Per-rung verdict inputs over the counted accounts.
    pub rungs: Vec<Rung>,
    /// Wall time of the whole ladder.
    pub wall: Duration,
    /// Process CPU seconds spent during the ladder.
    pub cpu_s: f64,
}

/// Runs every rung in turn, open loop, from [`SENDERS`] threads. Rung
/// verdicts count the latencies of `counted` accounts' requests, a failed
/// or refused one as missing the limit.
pub fn run_ladder(
    clients: &[ClientHandle],
    clips: &[Video],
    load: &[RungLoad],
    counted: impl Fn(usize) -> bool,
) -> LadderPass {
    let (cpu0, _) = resource_usage();
    let start = Instant::now();
    let mut results = Vec::new();
    let mut rungs = Vec::new();
    for (r, rung) in load.iter().enumerate() {
        let out = open_loop(&rung.due, SENDERS, |i| {
            let request = rung.requests[i];
            clients[request.account].retrieve(&request.video(clips))
        });
        let mut latencies = Vec::new();
        let mut lags = Vec::new();
        for (i, (sent, result)) in out.into_iter().enumerate() {
            lags.push(ms(sent.lag));
            if counted(rung.requests[i].account) {
                latencies.push(if result.is_ok() {
                    ms(sent.latency)
                } else {
                    f64::INFINITY
                });
            }
            results.push((r, i, sent, result));
        }
        rungs.push(Rung::measure(rung.rate, &latencies, &lags));
    }
    let wall = start.elapsed();
    let (cpu1, _) = resource_usage();
    LadderPass {
        results,
        rungs,
        wall,
        cpu_s: cpu1 - cpu0,
    }
}

/// Stage times of one replayed request and its recomputed list.
pub struct Replay {
    /// 8-bit quantization of the submitted clip.
    pub quantize: Duration,
    /// Purification (zero when the service runs none).
    pub purify: Duration,
    /// Victim embedding.
    pub embed: Duration,
    /// Fan-out over the shards and merge.
    pub fanout: Duration,
    /// The recomputed top-m list.
    pub list: Vec<VideoId>,
    /// Share of the brute-force top-m over the live gallery that the
    /// recomputed list holds.
    pub recall: f64,
}

impl Replay {
    /// Busy time of the request's stages.
    pub fn busy(&self) -> Duration {
        self.quantize + self.purify + self.embed + self.fanout
    }
}

/// Recomputes one request serially through the public stage functions,
/// timing each stage, and scores the list against brute force.
pub fn replay(system: &RetrievalSystem, video: &Video, purify: &Purify) -> BenchResult<Replay> {
    let t0 = Instant::now();
    let mut v = video.clone();
    v.quantize();
    let t1 = Instant::now();
    let (v, t2) = if purify.is_none() {
        (v, t1)
    } else {
        (purify.apply(&v), Instant::now())
    };
    let feature = system.embed(&v).map_err(err("replay embed"))?;
    let t3 = Instant::now();
    let list = system
        .retrieve_by_feature(&feature)
        .map_err(err("replay fan-out"))?;
    let t4 = Instant::now();
    let (_, shards) = system.snapshot_with_epoch();
    let exact = checks::brute_force_top_m(
        shards.iter().flat_map(|s| s.rows()),
        feature.as_slice(),
        system.config().m,
    );
    let recall = checks::recall(&list, &exact);
    Ok(Replay {
        quantize: t1 - t0,
        purify: t2 - t1,
        embed: t3 - t2,
        fanout: t4 - t3,
        list,
        recall,
    })
}

/// Checks a replayed sample against what the service served and records
/// the stage metrics (traced runs) and the client-side wait: service time
/// seen by the client minus the replayed busy time.
pub fn score_replays(
    served: &[(Duration, Vec<VideoId>)],
    replays: &[Replay],
    trace: bool,
    metrics: &mut Metrics,
    failures: &mut Vec<String>,
) {
    let lists: Vec<Vec<VideoId>> = served.iter().map(|(_, l)| l.clone()).collect();
    let recomputed: Vec<Vec<VideoId>> = replays.iter().map(|r| r.list.clone()).collect();
    if let Err(e) = checks::lists_match(&lists, &recomputed) {
        failures.push(e);
    }
    let recall: Vec<f64> = replays.iter().map(|r| r.recall).collect();
    metrics.set("recall_at_m", crate::common::mean(&recall));
    if !trace {
        return;
    }
    let waits: Vec<f64> = served
        .iter()
        .zip(replays)
        .map(|((service, _), r)| ms(*service) - ms(r.busy()))
        .collect();
    metrics.set("serve.wait_ms_p50", crate::common::median(&waits));
    metrics.set("serve.wait_ms_p99", percentile(&waits, 99.0));
    let stage = |f: fn(&Replay) -> Duration| {
        crate::common::median(
            &replays
                .iter()
                .map(|r| crate::common::us(f(r)))
                .collect::<Vec<_>>(),
        )
    };
    metrics.set("video.quantize_us", stage(|r| r.quantize));
    if replays.iter().any(|r| !r.purify.is_zero()) {
        metrics.set("defenses.squeeze_ms", stage(|r| r.purify) / 1e3);
    }
    metrics.set("retrieval.fanout_us", stage(|r| r.fanout));
}

/// Copies the service's own counters into the per-layer table.
pub fn serve_counters(stats: &ServiceStats, metrics: &mut Metrics) {
    metrics.set("serve.batches", stats.batches as f64);
    metrics.set("serve.mean_batch", f64::from(stats.mean_batch));
    metrics.set("serve.max_queue_depth", stats.max_queue_depth as f64);
    metrics.set("serve.rejected_overload", stats.rejected_overload as f64);
    metrics.set("serve.deadline_misses", stats.deadline_misses as f64);
    metrics.set("serve.refunded", stats.refunded as f64);
    metrics.set("serve.purified", stats.purified as f64);
    let index = stats.index_queries.max(1) as f64;
    metrics.set(
        "retrieval.scanned_rows_per_query",
        stats.index_scanned_rows as f64 / index,
    );
    metrics.set(
        "retrieval.probed_lists_per_query",
        stats.index_probed_lists as f64 / index,
    );
    // Exact shards never audit: their recall is 1 by construction.
    metrics.set(
        "retrieval.audited_recall",
        f64::from(stats.recall_at_m.unwrap_or(1.0)),
    );
}

/// Set-ups timed per untraced run (the median is reported); a traced run
/// sets up once.
pub const SETUPS: usize = 3;

/// Builds the standard victim world (I3d trained with ArcFace at
/// `Scale::standard()`) and starts a service over it, `SETUPS` times in
/// an untraced run, keeping the last. Returns each set-up's wall seconds.
pub fn set_up(
    seed: u64,
    config: ServeConfig,
    trace: bool,
) -> BenchResult<(SyntheticDataset, RetrievalService, Vec<f64>)> {
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..if trace { 1 } else { SETUPS } {
        if let Some((_, service)) = last.take() {
            RetrievalService::shutdown(service);
        }
        let t = Instant::now();
        let world = build_world(
            DatasetKind::Hmdb51Like,
            Architecture::I3d,
            LossKind::ArcFace,
            Scale::standard(),
            seed,
        )
        .map_err(err("build world"))?;
        let service =
            RetrievalService::start(world.system, config).map_err(err("start service"))?;
        setups.push(t.elapsed().as_secs_f64());
        last = Some((world.dataset, service));
    }
    let (dataset, service) = last.expect("at least one set-up");
    Ok((dataset, service, setups))
}

/// Stops a service and starts a fresh one over the same system, so a
/// second pass sees new accounts and zeroed counters.
pub fn restart(service: RetrievalService, config: ServeConfig) -> BenchResult<RetrievalService> {
    let (system, _) = service.shutdown_into();
    let system = system.ok_or("service state still shared at shutdown")?;
    RetrievalService::start(system, config).map_err(err("restart service"))
}

/// Embeds probe clips for the shard-search probe.
pub fn probe_features(system: &RetrievalSystem, clips: &[Video]) -> BenchResult<Vec<Vec<f32>>> {
    clips
        .iter()
        .map(|c| system.embed(c).map(|f| f.as_slice().to_vec()))
        .collect::<Result<_, _>>()
        .map_err(err("probe embed"))
}
