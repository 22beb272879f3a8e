//! `attack_duo`: the full DUO attack (paper §IV) as one metered client.
//!
//! Closed loop: the attacker steals a C3d surrogate through
//! `ServiceOracle` from an undefended `ServeConfig::default()` service,
//! then runs `DuoAttack` on a fixed seeded set of `(v, v_t)` pairs. A
//! short open-loop ladder of benign probes then measures the capacity of
//! the same undefended service.

use crate::checks;
use crate::common::{
    self, describe_latencies, err, max_rate_under_slo, mean, median, ms, percentile,
    poisson_arrivals, query_p50, resource_usage, BenchResult, Fingerprint, Metrics, Tally,
};
use crate::layers;
use crate::served::{self, Request, RungLoad};
use crate::{Args, Outcome};
use duo_attack::{lp_box_admm, query_stats, steal_surrogate, DuoAttack, SparseTransfer};
use duo_experiments::{attack_pairs, Scale};
use duo_models::{Architecture, Backbone};
use duo_retrieval::{ap_at_m, QueryOracle};
use duo_serve::{Purify, RetrievalService, ServeConfig, ServiceOracle};
use duo_tensor::Rng64;
use duo_video::{SyntheticDataset, Video, VideoId};
use std::time::{Duration, Instant};

/// Attack pairs per run (fixed, so query counts and AP repeat per seed).
const PAIRS: usize = 2;
/// Offered rates of the capacity ladder and the share of `--seconds`
/// each rung runs.
const RUNGS: [(f64, f64); 3] = [(20.0, 0.08), (40.0, 0.08), (240.0, 0.03)];
/// p90 latency limit of a ladder rung, milliseconds.
const SLO_MS: f64 = crate::serve_mixed::SLO_MS;
/// One oracle call in `KEEP_STRIDE` is kept for the replay check.
const KEEP_STRIDE: u64 = 41;

/// A `QueryOracle` that times every call into the service and keeps a
/// sample of submitted clips with their answers.
struct TimedOracle {
    inner: ServiceOracle,
    calls: u64,
    answers: u64,
    errors: u64,
    busy: Duration,
    latencies_ms: Vec<f64>,
    keep_offset: u64,
    kept: Vec<(Video, Duration, Vec<VideoId>)>,
}

impl TimedOracle {
    fn new(inner: ServiceOracle, seed: u64) -> Self {
        TimedOracle {
            inner,
            calls: 0,
            answers: 0,
            errors: 0,
            busy: Duration::ZERO,
            latencies_ms: Vec::new(),
            keep_offset: seed % KEEP_STRIDE,
            kept: Vec::new(),
        }
    }

    fn tally(&self) -> Tally {
        Tally {
            sent: self.calls,
            succeeded: self.answers,
            failed: self.errors,
        }
    }
}

impl QueryOracle for TimedOracle {
    fn retrieve(&mut self, video: &Video) -> duo_retrieval::Result<Vec<VideoId>> {
        let index = self.calls;
        self.calls += 1;
        let t = Instant::now();
        let result = self.inner.retrieve(video);
        let d = t.elapsed();
        self.busy += d;
        match &result {
            Ok(list) => {
                self.answers += 1;
                self.latencies_ms.push(ms(d));
                if index % KEEP_STRIDE == self.keep_offset {
                    self.kept.push((video.clone(), d, list.clone()));
                }
            }
            Err(_) => {
                self.errors += 1;
                self.latencies_ms.push(f64::INFINITY);
            }
        }
        result
    }

    fn queries_used(&self) -> u64 {
        self.inner.queries_used()
    }

    fn budget_remaining(&self) -> Option<u64> {
        self.inner.budget_remaining()
    }

    fn m(&self) -> usize {
        self.inner.m()
    }
}

/// One attack pass: steal, then every pair.
struct AttackPass {
    oracle: TimedOracle,
    surrogate: Backbone,
    steal: Duration,
    steal_oracle: Duration,
    steal_tally: Tally,
    /// Per pair: wall, oracle time, oracle calls, queries, AP@m %,
    /// improving steps.
    pairs: Vec<PairResult>,
    wall: Duration,
}

struct PairResult {
    wall: Duration,
    oracle: Duration,
    calls: u64,
    queries: u64,
    ap_pct: f32,
    accepted: usize,
}

fn quantized(v: &Video) -> Video {
    let mut q = v.clone();
    q.quantize();
    q
}

fn attack_pass(
    service: &RetrievalService,
    dataset: &SyntheticDataset,
    pairs: &[(VideoId, VideoId)],
    seed: u64,
) -> BenchResult<AttackPass> {
    let scale = Scale::standard();
    let mut oracle = TimedOracle::new(ServiceOracle::new(service.client(None, None)), seed);
    let mut rng = Rng64::new(seed ^ 0x00A7_7AC4);
    let probes: Vec<VideoId> = dataset
        .test()
        .iter()
        .filter(|id| id.class < scale.classes)
        .copied()
        .collect();
    let start = Instant::now();
    let (surrogate, _) = steal_surrogate(
        &mut oracle,
        dataset,
        &probes,
        scale.steal_config(Architecture::C3d),
        &mut rng,
    )
    .map_err(err("steal surrogate"))?;
    let steal = start.elapsed();
    let steal_oracle = oracle.busy;
    let steal_tally = oracle.tally();
    let mut results = Vec::with_capacity(pairs.len());
    for &(a, b) in pairs {
        let (v, v_t) = (dataset.video(a), dataset.video(b));
        let (busy0, calls0) = (oracle.busy, oracle.calls);
        let t = Instant::now();
        let mut attack = DuoAttack::new(surrogate.clone(), scale.duo_config());
        let outcome = attack
            .run(&mut oracle, &v, &v_t, &mut rng)
            .map_err(err("DUO attack"))?;
        let wall = t.elapsed();
        let (oracle_time, calls) = (oracle.busy - busy0, oracle.calls - calls0);
        // The attacker grades itself through the same metered surface.
        let r_adv = oracle
            .retrieve(&quantized(&outcome.adversarial))
            .map_err(err("grade adversarial"))?;
        let r_t = oracle
            .retrieve(&quantized(&v_t))
            .map_err(err("grade target"))?;
        let accepted = query_stats(&outcome).map_or(0, |s| s.improvements);
        results.push(PairResult {
            wall,
            oracle: oracle_time,
            calls,
            queries: outcome.queries,
            ap_pct: ap_at_m(&r_adv, &r_t),
            accepted,
        });
    }
    Ok(AttackPass {
        oracle,
        surrogate,
        steal,
        steal_oracle,
        steal_tally,
        pairs: results,
        wall: start.elapsed(),
    })
}

/// The capacity ladder: one benign account replaying seeded test probes
/// (the clip table is the test split).
fn ladder_load(
    dataset: &SyntheticDataset,
    seed: u64,
    seconds: f64,
    fp: &mut Fingerprint,
) -> (Vec<Video>, Vec<RungLoad>) {
    let mut rng = Rng64::new(seed ^ 0x001A_DDE4);
    let probes: Vec<Video> = dataset.test().iter().map(|&id| dataset.video(id)).collect();
    let load = RUNGS
        .iter()
        .map(|&(rate, share)| {
            let due = poisson_arrivals(&mut rng, rate, seconds * share);
            let requests = due
                .iter()
                .map(|_| Request {
                    account: 0,
                    clip: rng.below(probes.len()),
                    perturb: None,
                })
                .collect();
            let rung = RungLoad {
                rate,
                due,
                requests,
            };
            rung.fingerprint(fp);
            rung
        })
        .collect();
    (probes, load)
}

pub fn run(args: Args) -> BenchResult<Outcome> {
    let (dataset, mut service, setups) =
        served::set_up(args.seed, ServeConfig::default(), args.trace)?;
    let scale = Scale::standard();
    let pairs = attack_pairs(
        &dataset,
        scale.classes,
        PAIRS,
        &mut Rng64::new(args.seed ^ 0x9A1B),
    );
    let mut fp = Fingerprint::default();
    for (a, b) in &pairs {
        for id in [a, b] {
            fp.u64(u64::from(id.class) << 32 | u64::from(id.instance));
            fp.f32s(dataset.video(*id).tensor().as_slice());
        }
    }
    let (probes, ladder) = ladder_load(&dataset, args.seed, args.seconds, &mut fp);
    println!("input fingerprint {:016x}", fp.digest());
    common::report_setup(&setups);

    let mut failures = Vec::new();
    let (cpu0, _) = resource_usage();
    let mut pass = attack_pass(&service, &dataset, &pairs, args.seed)?;
    let client = service.client(None, None);
    let mut capacity =
        served::run_ladder(std::slice::from_ref(&client), &probes, &ladder, |_| true);
    let (cpu1, _) = resource_usage();
    let charged = service.client_stats()[0].charged;
    if let Err(e) = checks::charged_matches_oracle(charged, pass.oracle.answers) {
        failures.push(e);
    }
    let mut overhead = None;
    if args.trace {
        // Second, traced pass on a fresh service; it must repeat the
        // first exactly (same seed, same inputs).
        service = served::restart(service, ServeConfig::default())?;
        let traced = attack_pass(&service, &dataset, &pairs, args.seed)?;
        let client = service.client(None, None);
        capacity = served::run_ladder(std::slice::from_ref(&client), &probes, &ladder, |_| true);
        overhead = Some(traced.wall.as_secs_f64() / pass.wall.as_secs_f64());
        for (a, b) in pass.pairs.iter().zip(&traced.pairs) {
            if let Err(e) = checks::attack_repeats((a.queries, a.ap_pct), (b.queries, b.ap_pct)) {
                failures.push(e);
            }
        }
        let charged = service.client_stats()[0].charged;
        if let Err(e) = checks::charged_matches_oracle(charged, traced.oracle.answers) {
            failures.push(e);
        }
        pass = traced;
    }
    if let Err(e) = checks::accounts_balance(&service.client_stats()) {
        failures.push(e);
    }

    let mut metrics = Metrics::default();
    let no_purify = Purify::None;
    let mut sample = Vec::new();
    let mut replays = Vec::new();
    for (video, d, list) in &pass.oracle.kept {
        sample.push((*d, list.clone()));
        replays.push(served::replay(service.system(), video, &no_purify)?);
    }
    served::score_replays(&sample, &replays, args.trace, &mut metrics, &mut failures);

    let lat = &pass.oracle.latencies_ms;
    let (_, rss) = resource_usage();
    metrics.set("setup_s", median(&setups));
    metrics.set("peak_rss_mb", rss);
    metrics.set("cpu_s", cpu1 - cpu0);
    metrics.set("query_p50_ms", query_p50(lat));
    metrics.set(
        "max_qps_under_slo",
        max_rate_under_slo(&capacity.rungs, SLO_MS),
    );

    let per_pair = |f: fn(&PairResult) -> f64| mean(&pass.pairs.iter().map(f).collect::<Vec<_>>());
    let steal_s = pass.steal.as_secs_f64();
    let attack_s = per_pair(|p| p.wall.as_secs_f64());
    let queries = per_pair(|p| p.queries as f64);
    let ap = per_pair(|p| f64::from(p.ap_pct));
    println!(
        "steal_s {steal_s:.3} ({} queries); attack_s {attack_s:.3} per pair; attack_queries {queries}; attack_ap_pct {ap:.2}",
        pass.steal_tally.sent
    );
    for (i, p) in pass.pairs.iter().enumerate() {
        println!(
            "pair {i}: {:.3} s, {} queries, AP@m {:.2}%, oracle {:.1} ms over {} calls",
            p.wall.as_secs_f64(),
            p.queries,
            p.ap_pct,
            ms(p.oracle),
            p.calls
        );
    }
    println!("attacker queries: {}", describe_latencies(lat));
    for rung in &capacity.rungs {
        println!("{}", rung.describe(SLO_MS));
    }

    let mut ladder_tally = Tally::default();
    for (.., result) in &capacity.results {
        ladder_tally.sent += 1;
        if result.is_ok() {
            ladder_tally.succeeded += 1;
        } else {
            ladder_tally.failed += 1;
        }
    }
    let attack_tally = Tally {
        sent: pass.oracle.calls - pass.steal_tally.sent,
        succeeded: pass.oracle.answers - pass.steal_tally.succeeded,
        failed: pass.oracle.errors - pass.steal_tally.failed,
    };
    let mut total = pass.oracle.tally();
    total.add(ladder_tally);

    if args.trace {
        metrics.set(
            "bench.trace_overhead",
            overhead.expect("traced runs measure overhead"),
        );
        metrics.set("bench.query_p90_ms", percentile(lat, 90.0));
        let lags: Vec<f64> = capacity
            .results
            .iter()
            .map(|(_, _, s, _)| ms(s.lag))
            .collect();
        metrics.set("bench.gen_lag_p99_ms", percentile(&lags, 99.0));
        metrics.set(
            "bench.error_frac",
            total.failed as f64 / total.sent.max(1) as f64,
        );
        for (phase, t) in [
            ("steal", pass.steal_tally),
            ("attack", attack_tally),
            ("ladder", ladder_tally),
        ] {
            metrics.set(format!("bench.{phase}.sent"), t.sent as f64);
            metrics.set(format!("bench.{phase}.succeeded"), t.succeeded as f64);
            metrics.set(format!("bench.{phase}.failed"), t.failed as f64);
        }
        metrics.set("attack.steal_s", steal_s);
        metrics.set("attack.steal_oracle_ms", ms(pass.steal_oracle));
        metrics.set("attack.steal_train_ms", ms(pass.steal - pass.steal_oracle));
        metrics.set("attack.pair_s", attack_s);
        metrics.set("attack.queries_per_pair", queries);
        metrics.set("attack.ap_pct", ap);
        metrics.set("attack.oracle_ms", per_pair(|p| ms(p.oracle)));
        metrics.set("attack.oracle_calls", per_pair(|p| p.calls as f64));
        metrics.set("attack.self_ms", per_pair(|p| ms(p.wall - p.oracle)));
        metrics.set(
            "attack.accept_ratio",
            pass.pairs.iter().map(|p| p.accepted as f64).sum::<f64>()
                / pass
                    .pairs
                    .iter()
                    .map(|p| p.queries as f64)
                    .sum::<f64>()
                    .max(1.0),
        );
        let (v, v_t) = (dataset.video(pairs[0].0), dataset.video(pairs[0].1));
        let cfg = scale.duo_config();
        let mut surrogate = pass.surrogate.clone();
        let transfer = crate::common::time_median(3, || {
            SparseTransfer::new(&mut surrogate, cfg.transfer)
                .run(&v, &v_t)
                .expect("transfer replay")
        });
        metrics.set("attack.transfer_ms", ms(transfer));
        let elements = v.tensor().len();
        let mut rng = Rng64::new(0xADD);
        let scores: Vec<f32> = (0..elements).map(|_| rng.uniform()).collect();
        let admm = crate::common::time_median(9, || {
            lp_box_admm(
                &scores,
                cfg.transfer.k.min(elements),
                cfg.transfer.admm_iters,
            )
            .expect("admm")
        });
        metrics.set("attack.admm_ms", ms(admm));
        served::serve_counters(&service.stats(), &mut metrics);

        let clips: Vec<Video> = pass
            .oracle
            .kept
            .iter()
            .take(8)
            .map(|(v, ..)| v.clone())
            .collect();
        let victim = service.system().backbone();
        for (arch, cfg) in [
            (Architecture::I3d, victim.config()),
            (Architecture::C3d, pass.surrogate.config()),
        ] {
            if let Err(e) = layers::shape_table_matches(arch, cfg) {
                failures.push(e);
            }
        }
        let (convs, _) = layers::i3d_convs(victim.config());
        let conv_us = layers::tensor_probe("i3d", &convs, false, &mut metrics)?;
        let (convs, _) = layers::c3d_convs(pass.surrogate.config());
        layers::tensor_probe("c3d", &convs, true, &mut metrics)?;
        layers::i3d_model_probe(victim, &clips, conv_us, &mut metrics)?;
        layers::c3d_model_probe(&pass.surrogate, &v, &mut metrics)?;
        let queries = served::probe_features(service.system(), &clips)?;
        layers::shard_probe(service.system(), &queries, &mut metrics);
    }
    drop(client);
    service.shutdown();
    Ok(Outcome {
        metrics,
        tally: total,
        failures,
    })
}
