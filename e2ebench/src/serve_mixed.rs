//! `serve_mixed`: the served query path under open-loop mixed traffic.
//!
//! A defended `duo-serve` service (`ServeConfig::default()` plus the
//! stream detector and `Purify::Squeeze`) over the standard world.
//! Seeded Poisson arrivals climb a ladder of fixed offered rates; most
//! accounts are benign and replay distinct test probes, a minority are
//! adversarial and send near-duplicate perturbations of one clip.
//! Latency counts from each request's scheduled send time.

use crate::checks;
use crate::common::{
    self, describe_latencies, max_rate_under_slo, median, ms, percentile, poisson_arrivals,
    query_p50, resource_usage, BenchResult, Fingerprint, Metrics, Tally,
};
use crate::layers;
use crate::served::{self, Request, RungLoad};
use crate::{Args, Outcome};
use duo_defenses::{FeatureSqueezing, StreamConfig};
use duo_models::Architecture;
use duo_serve::{ClientStats, DefenseConfig, Purify, RetrievalService, ServeConfig, ServeError};
use duo_tensor::Rng64;
use duo_video::{SyntheticDataset, Video};

/// Benign accounts.
const BENIGN: usize = 6;
/// Adversarial accounts.
const ADVERSARIAL: usize = 2;
/// Share of each rung's arrivals sent by adversarial accounts (exact,
/// so every seed offers the same benign load).
const ADVERSARIAL_SHARE: f64 = 0.2;
/// Offered rates (requests per second, all accounts) and the share of
/// `--seconds` each rung runs.
const RUNGS: [(f64, f64); 3] = [(12.0, 0.8), (24.0, 0.14), (120.0, 0.06)];
/// The rung whose benign latencies are the reported query latency.
const REFERENCE: usize = 0;
/// p90 latency limit of a rung, milliseconds.
pub const SLO_MS: f64 = 150.0;
/// Served requests replayed through the stage functions.
const REPLAY: usize = 24;

fn defended() -> ServeConfig {
    ServeConfig {
        defense: Some(DefenseConfig {
            stream: StreamConfig::default(),
            purify: Purify::Squeeze(FeatureSqueezing::default()),
        }),
        ..ServeConfig::default()
    }
}

fn is_benign(account: usize) -> bool {
    account < BENIGN
}

/// A defense refusal of an adversarial account is the intended outcome,
/// not a failure.
fn is_defense_refusal(account: usize, e: &ServeError) -> bool {
    !is_benign(account)
        && matches!(
            e,
            ServeError::Throttled { .. } | ServeError::Quarantined { .. }
        )
}

/// Generates the ladder's load from the seed. The clip table holds the
/// 102 test probes, then one base clip per adversarial account. Benign
/// accounts walk their own seeded order of the probes; adversarial
/// accounts send seeded near-duplicates of their base clip.
fn generate(
    dataset: &SyntheticDataset,
    seed: u64,
    seconds: f64,
) -> (Vec<Video>, Vec<RungLoad>, u64) {
    let mut rng = Rng64::new(seed ^ 0x5E7E_1A0D);
    let mut clips: Vec<Video> = dataset.test().iter().map(|&id| dataset.video(id)).collect();
    let probes = clips.len();
    for i in rng.sample_indices(dataset.train().len(), ADVERSARIAL) {
        clips.push(dataset.video(dataset.train()[i]));
    }
    let order: Vec<Vec<usize>> = (0..BENIGN)
        .map(|_| {
            let mut p: Vec<usize> = (0..probes).collect();
            rng.shuffle(&mut p);
            p
        })
        .collect();
    let mut cursor = [0usize; BENIGN];
    let mut fp = Fingerprint::default();
    for clip in &clips {
        fp.f32s(clip.tensor().as_slice());
    }
    let mut load = Vec::with_capacity(RUNGS.len());
    for (rate, share) in RUNGS {
        let due = poisson_arrivals(&mut rng, rate, seconds * share);
        let adversarial = (ADVERSARIAL_SHARE * due.len() as f64).round() as usize;
        let mut from_adversary = vec![false; due.len()];
        for i in rng.sample_indices(due.len(), adversarial) {
            from_adversary[i] = true;
        }
        let requests = from_adversary
            .iter()
            .map(|&from_adversary| {
                if from_adversary {
                    let account = BENIGN + rng.below(ADVERSARIAL);
                    let perturb = rng.as_rng().next_u64();
                    Request {
                        account,
                        clip: probes + account - BENIGN,
                        perturb: Some(perturb),
                    }
                } else {
                    let account = rng.below(BENIGN);
                    let clip = order[account][cursor[account] % probes];
                    cursor[account] += 1;
                    Request {
                        account,
                        clip,
                        perturb: None,
                    }
                }
            })
            .collect();
        let rung = RungLoad {
            rate,
            due,
            requests,
        };
        rung.fingerprint(&mut fp);
        load.push(rung);
    }
    (clips, load, fp.digest())
}

pub fn run(args: Args) -> BenchResult<Outcome> {
    let (dataset, mut service, setups) = served::set_up(args.seed, defended(), args.trace)?;
    let (clips, load, fingerprint) = generate(&dataset, args.seed, args.seconds);
    println!("input fingerprint {fingerprint:016x}");
    common::report_setup(&setups);

    let accounts = |service: &RetrievalService| -> Vec<_> {
        (0..BENIGN + ADVERSARIAL)
            .map(|_| service.client(None, None))
            .collect()
    };
    let mut pass = served::run_ladder(&accounts(&service), &clips, &load, is_benign);
    let mut overhead = None;
    if args.trace {
        // The traced pass runs on a fresh service (new accounts, zeroed
        // counters); the first pass above is its untraced twin.
        service = served::restart(service, defended())?;
        let traced = served::run_ladder(&accounts(&service), &clips, &load, is_benign);
        overhead = Some(traced.wall.as_secs_f64() / pass.wall.as_secs_f64());
        pass = traced;
    }
    let client_stats = service.client_stats();
    let stats = service.stats();

    let mut failures = Vec::new();
    let mut metrics = Metrics::default();
    if let Err(e) = checks::accounts_balance(&client_stats) {
        failures.push(e);
    }
    let purify = defended().defense.expect("defended config").purify;
    let ok: Vec<usize> = (0..pass.results.len())
        .filter(|&k| pass.results[k].3.is_ok())
        .collect();
    let mut rng = Rng64::new(args.seed ^ 0x004E_71A7);
    let mut served_sample = Vec::new();
    let mut replays = Vec::new();
    for p in rng.sample_indices(ok.len(), REPLAY.min(ok.len())) {
        let (r, i, sent, result) = &pass.results[ok[p]];
        let list = result
            .as_ref()
            .expect("sampled from served requests")
            .clone();
        served_sample.push((sent.service, list));
        replays.push(served::replay(
            service.system(),
            &load[*r].requests[*i].video(&clips),
            &purify,
        )?);
    }
    served::score_replays(
        &served_sample,
        &replays,
        args.trace,
        &mut metrics,
        &mut failures,
    );

    let mut benign = Tally::default();
    let mut adversarial = Tally::default();
    for (r, i, _, result) in &pass.results {
        let account = load[*r].requests[*i].account;
        let tally = if is_benign(account) {
            &mut benign
        } else {
            &mut adversarial
        };
        tally.sent += 1;
        match result {
            Ok(_) => tally.succeeded += 1,
            Err(e) if is_defense_refusal(account, e) => {}
            Err(_) => tally.failed += 1,
        }
    }
    let mut total = benign;
    total.add(adversarial);

    let reference: Vec<f64> = pass
        .results
        .iter()
        .filter(|(r, i, ..)| *r == REFERENCE && is_benign(load[*r].requests[*i].account))
        .map(|(_, _, sent, result)| {
            if result.is_ok() {
                ms(sent.latency)
            } else {
                f64::INFINITY
            }
        })
        .collect();
    for rung in &pass.rungs {
        println!("{}", rung.describe(SLO_MS));
    }
    let (_, rss) = resource_usage();
    metrics.set("setup_s", median(&setups));
    metrics.set("peak_rss_mb", rss);
    metrics.set("cpu_s", pass.cpu_s);
    metrics.set("query_p50_ms", query_p50(&reference));
    metrics.set("max_qps_under_slo", max_rate_under_slo(&pass.rungs, SLO_MS));
    println!(
        "reference rung {} req/s, benign: {}; cpu {:.2} s over {:.2} s",
        RUNGS[REFERENCE].0,
        describe_latencies(&reference),
        pass.cpu_s,
        pass.wall.as_secs_f64()
    );

    let sum = |accounts: &[ClientStats], f: fn(&ClientStats) -> u64| -> f64 {
        accounts.iter().map(f).sum::<u64>() as f64
    };
    let (benign_stats, adv_stats) = client_stats.split_at(BENIGN);
    let blocked = sum(adv_stats, |s| s.defense_throttled + s.defense_rejected);
    let blocked_frac = blocked / adversarial.sent.max(1) as f64;
    let error_frac = total.failed as f64 / total.sent.max(1) as f64;
    println!(
        "error_frac {error_frac:.4}; attacker_blocked_frac {blocked_frac:.3} ({blocked} of {} adversarial attempts)",
        adversarial.sent
    );

    if args.trace {
        metrics.set(
            "bench.trace_overhead",
            overhead.expect("traced runs measure overhead"),
        );
        metrics.set("bench.query_p90_ms", percentile(&reference, 90.0));
        let lags: Vec<f64> = pass
            .results
            .iter()
            .map(|(_, _, sent, _)| ms(sent.lag))
            .collect();
        metrics.set("bench.gen_lag_p99_ms", percentile(&lags, 99.0));
        metrics.set("bench.error_frac", error_frac);
        for (phase, t) in [("ladder", benign), ("adversarial", adversarial)] {
            metrics.set(format!("bench.{phase}.sent"), t.sent as f64);
            metrics.set(format!("bench.{phase}.succeeded"), t.succeeded as f64);
            metrics.set(format!("bench.{phase}.failed"), t.failed as f64);
        }
        metrics.set("defenses.flagged", sum(adv_stats, |s| s.defense_flagged));
        metrics.set(
            "defenses.throttled",
            sum(adv_stats, |s| s.defense_throttled),
        );
        metrics.set("defenses.rejected", sum(adv_stats, |s| s.defense_rejected));
        metrics.set(
            "defenses.benign_flagged",
            sum(benign_stats, |s| s.defense_flagged),
        );
        metrics.set("defenses.attacker_blocked_frac", blocked_frac);
        served::serve_counters(&stats, &mut metrics);

        let probes: Vec<Video> = load[REFERENCE]
            .requests
            .iter()
            .take(8)
            .map(|r| r.video(&clips).into_owned())
            .collect();
        let victim = service.system().backbone();
        if let Err(e) = layers::shape_table_matches(Architecture::I3d, victim.config()) {
            failures.push(e);
        }
        let (convs, _) = layers::i3d_convs(victim.config());
        let conv_us = layers::tensor_probe("i3d", &convs, false, &mut metrics)?;
        layers::i3d_model_probe(victim, &probes, conv_us, &mut metrics)?;
        layers::defense_probe(&probes, &mut metrics);
        let queries = served::probe_features(service.system(), &probes)?;
        layers::shard_probe(service.system(), &queries, &mut metrics);
    }
    service.shutdown();
    Ok(Outcome {
        metrics,
        tally: total,
        failures,
    })
}
