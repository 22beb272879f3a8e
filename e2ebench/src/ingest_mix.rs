//! `ingest_mix`: the retrieval tier alone, reads beside live writes.
//!
//! A gallery of clustered 128-d features (the victim backbone's feature
//! width) on 4 shards in `IndexMode::Ivf`. One thread sends open-loop
//! `retrieve_resilient` feature reads up a ladder of fixed rates; another
//! applies open-loop `RetrievalSystem::apply` batches of inserts and
//! deletes at fixed times beside the reference rung. No backbone runs on
//! either path.

use crate::checks;
use crate::common::{
    self, describe_latencies, err, max_rate_under_slo, mean, median, ms, open_loop, percentile,
    poisson_arrivals, query_p50, resource_usage, us, BenchResult, Fingerprint, Metrics, Rung,
    Tally,
};
use crate::layers;
use crate::{Args, Outcome};
use duo_models::{Architecture, Backbone, BackboneConfig};
use duo_retrieval::{EpochTransition, IndexMode, MutationBatch, RetrievalConfig, RetrievalSystem};
use duo_tensor::{Rng64, Tensor};
use duo_video::{ClipSpec, DatasetKind, SyntheticDataset, VideoId};
use std::collections::{HashMap, HashSet};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Gallery rows at set-up (about 20 MB of f32 features).
const ROWS: usize = 40_000;
/// Feature width: the victim backbone's embedding size.
const DIM: usize = 128;
/// Cluster centres the rows scatter around.
const CLUSTERS: usize = 256;
/// Per-coordinate spread of a row around its centre.
const SPREAD: f32 = 0.08;
/// Shards and their index.
const NODES: usize = 4;
const INDEX: IndexMode = IndexMode::Ivf {
    nlist: 64,
    nprobe: 8,
};
/// Retrieval list length (the standard scale's `m`).
const M: usize = 14;
/// Read ladder: offered reads per second and the share of `--seconds`
/// each rung runs.
const RUNGS: [(f64, f64); 3] = [(100.0, 0.6), (150.0, 0.25), (1000.0, 0.02)];
/// The rung whose reads are the reported query latency.
const REFERENCE: usize = 0;
/// p90 read latency limit of a rung, milliseconds.
const SLO_MS: f64 = 25.0;
/// Timed mutation batches per pass, due a quarter and three quarters of
/// the way into the reference rung, and inserts/deletes per batch. Writes
/// run beside the reference rung only. A publish takes 2–3 s here and
/// reads beside one run two to three times slower: this way about a third
/// of the reference reads overlap one, which keeps the read p50 off the
/// edge between the two modes while `bench.query_p90_ms` shows the
/// overlap. In the capacity rungs a publish covering a fifth to a half of
/// a rung put its p90 on the edge of the limit, and `max_qps_under_slo`
/// flipped between runs; those rungs measure reads alone.
const WRITES: usize = 2;
const INSERTS: usize = 8;
const DELETES: usize = 8;
/// Mutation batches applied back to back before each pass, unmeasured.
/// Reads beside a writer's first few publishes ran two to three times
/// slower than beside its later ones; a long-running store pays that
/// once.
const WARMUP_WRITES: usize = 2;
/// Queries scored against brute force after the run.
const RECALL_QUERIES: usize = 100;
/// Recall floor below which the index is treated as broken.
const RECALL_FLOOR: f64 = 0.5;
/// Set-ups timed per untraced run.
const SETUPS: usize = 3;

/// The seeded inputs: initial gallery, write batches, read queries.
struct Inputs {
    centres: Vec<Vec<f32>>,
    gallery: Vec<(VideoId, Vec<f32>)>,
    /// Warm-up batches first, then one per entry of `write_due`.
    writes: Vec<MutationBatch>,
    write_due: Vec<Duration>,
    reads: Vec<(Vec<Duration>, Vec<Vec<f32>>)>,
    /// The gallery after every write batch, as the bench expects it.
    mirror: HashMap<VideoId, Vec<f32>>,
    fingerprint: u64,
}

fn normalized(mut v: Vec<f32>) -> Vec<f32> {
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
    v.iter_mut().for_each(|x| *x /= norm);
    v
}

fn near(centre: &[f32], rng: &mut Rng64) -> Vec<f32> {
    normalized(centre.iter().map(|c| c + SPREAD * rng.normal()).collect())
}

fn generate(seed: u64, seconds: f64) -> Inputs {
    let mut rng = Rng64::new(seed ^ 0x16E5_7000);
    let centres: Vec<Vec<f32>> = (0..CLUSTERS)
        .map(|_| normalized((0..DIM).map(|_| rng.normal()).collect()))
        .collect();
    let id = |i: usize| VideoId {
        class: (i / 65_536) as u32,
        instance: (i % 65_536) as u32,
    };
    let gallery: Vec<(VideoId, Vec<f32>)> = (0..ROWS)
        .map(|i| (id(i), near(&centres[rng.below(CLUSTERS)], &mut rng)))
        .collect();
    let mut mirror: HashMap<VideoId, Vec<f32>> = gallery.iter().cloned().collect();
    let mut live: Vec<VideoId> = gallery.iter().map(|(i, _)| *i).collect();
    let mut next = ROWS;
    let span = RUNGS[REFERENCE].1 * seconds;
    let write_due: Vec<Duration> = (0..WRITES)
        .map(|k| Duration::from_secs_f64((k as f64 + 0.5) * span / WRITES as f64))
        .collect();
    let mut fp = Fingerprint::default();
    let writes = (0..WARMUP_WRITES + write_due.len())
        .map(|_| {
            let mut batch = MutationBatch::new();
            for _ in 0..INSERTS {
                let row = near(&centres[rng.below(CLUSTERS)], &mut rng);
                fp.f32s(&row);
                mirror.insert(id(next), row.clone());
                live.push(id(next));
                batch = batch.insert(
                    id(next),
                    Tensor::from_vec(row, &[DIM]).expect("row has DIM floats"),
                );
                next += 1;
            }
            for _ in 0..DELETES {
                let victim = live.swap_remove(rng.below(live.len()));
                fp.u64(u64::from(victim.class) << 32 | u64::from(victim.instance));
                mirror.remove(&victim);
                batch = batch.delete(victim);
            }
            batch
        })
        .collect();
    let reads = RUNGS
        .iter()
        .map(|&(rate, share)| {
            let due = poisson_arrivals(&mut rng, rate, seconds * share);
            let queries = due
                .iter()
                .map(|_| near(&centres[rng.below(CLUSTERS)], &mut rng))
                .collect();
            (due, queries)
        })
        .collect::<Vec<(Vec<Duration>, Vec<Vec<f32>>)>>();
    for (id, row) in &gallery {
        fp.u64(u64::from(id.class) << 32 | u64::from(id.instance));
        fp.f32s(row);
    }
    for (due, queries) in &reads {
        for (at, q) in due.iter().zip(queries) {
            fp.u64(at.as_nanos() as u64);
            fp.f32s(q);
        }
    }
    Inputs {
        centres,
        gallery,
        writes,
        write_due,
        reads,
        mirror,
        fingerprint: fp.digest(),
    }
}

/// Builds the system: an empty sharded IVF gallery bulk-loaded with the
/// seeded rows in one epoch transaction (which trains every shard's
/// coarse quantizer). The tiny backbone only satisfies the constructor;
/// nothing here embeds a clip.
fn build(inputs: &Inputs) -> BenchResult<(RetrievalSystem, f64)> {
    let t = Instant::now();
    let backbone = Backbone::new(
        Architecture::C3d,
        BackboneConfig::tiny(),
        &mut Rng64::new(0),
    )
    .map_err(err("placeholder backbone"))?;
    let dataset = SyntheticDataset::subsampled(DatasetKind::Hmdb51Like, ClipSpec::tiny(), 0, 0, 0);
    let config = RetrievalConfig {
        m: M,
        nodes: NODES,
        threaded: false,
        index: INDEX,
    };
    let system =
        RetrievalSystem::build(backbone, &dataset, &[], config).map_err(err("empty system"))?;
    let mut batch = MutationBatch::new();
    for (id, row) in &inputs.gallery {
        batch.push(duo_retrieval::Mutation::Insert {
            id: *id,
            feature: Tensor::from_vec(row.clone(), &[DIM]).expect("row has DIM floats"),
        });
    }
    system.apply(&batch).map_err(err("bulk load"))?;
    Ok((system, t.elapsed().as_secs_f64()))
}

/// One pass, after the warm-up batches: the read ladder on this thread's
/// sender, the write stream on a second thread, both open loop from the
/// same start.
struct Pass {
    reads: Vec<(usize, crate::common::Sent, bool)>,
    rungs: Vec<Rung>,
    writes: Vec<(crate::common::Sent, Result<EpochTransition, String>)>,
    wall: Duration,
    cpu_s: f64,
    index_before: duo_retrieval::IndexStats,
}

fn run_pass(system: &RetrievalSystem, inputs: &Inputs) -> BenchResult<Pass> {
    let warmed = Barrier::new(2);
    let (warmup, pass) = std::thread::scope(|scope| {
        // One writer thread applies the warm-up batches and then the timed
        // stream: the first publishes of a fresh writer thread are the
        // slow ones, and it is those the warm-up absorbs.
        let writer = scope.spawn(|| {
            let warmup = inputs.writes[..WARMUP_WRITES]
                .iter()
                .try_for_each(|batch| system.apply(batch).map(drop))
                .map_err(err("warm-up mutation batch"));
            warmed.wait();
            let writes = open_loop(&inputs.write_due, 1, |k| {
                system
                    .apply(&inputs.writes[WARMUP_WRITES + k])
                    .map_err(|e| e.to_string())
            });
            (warmup, writes)
        });
        warmed.wait();
        let index_before = system.index_stats();
        let (cpu0, _) = resource_usage();
        let start = Instant::now();
        let mut reads = Vec::new();
        let mut rungs = Vec::new();
        for (r, (due, queries)) in inputs.reads.iter().enumerate() {
            let out = open_loop(due, 1, |i| {
                let q = Tensor::from_vec(queries[i].clone(), &[DIM]).expect("query has DIM floats");
                system
                    .retrieve_resilient(&q)
                    .is_ok_and(|got| got.ids.len() == M)
            });
            let latencies: Vec<f64> = out
                .iter()
                .map(|(s, ok)| if *ok { ms(s.latency) } else { f64::INFINITY })
                .collect();
            let lags: Vec<f64> = out.iter().map(|(s, _)| ms(s.lag)).collect();
            rungs.push(Rung::measure(RUNGS[r].0, &latencies, &lags));
            reads.extend(out.into_iter().map(|(s, ok)| (r, s, ok)));
        }
        let (warmup, writes) = writer.join().expect("writer thread");
        let wall = start.elapsed();
        let (cpu1, _) = resource_usage();
        let pass = Pass {
            reads,
            rungs,
            writes,
            wall,
            cpu_s: cpu1 - cpu0,
            index_before,
        };
        (warmup, pass)
    });
    warmup.map(|()| pass)
}

pub fn run(args: Args) -> BenchResult<Outcome> {
    let inputs = generate(args.seed, args.seconds);
    println!("input fingerprint {:016x}", inputs.fingerprint);
    let (mut system, t) = build(&inputs)?;
    let mut setups = vec![t];
    for _ in 1..if args.trace { 1 } else { SETUPS } {
        drop(system);
        let (s, t) = build(&inputs)?;
        system = s;
        setups.push(t);
    }
    common::report_setup(&setups);

    let mut pass = run_pass(&system, &inputs)?;
    let mut overhead = None;
    if args.trace {
        // The traced pass needs the gallery as set up, not as mutated.
        let (fresh, _) = build(&inputs)?;
        system = fresh;
        let traced = run_pass(&system, &inputs)?;
        overhead = Some(traced.wall.as_secs_f64() / pass.wall.as_secs_f64());
        pass = traced;
    }

    let mut failures = Vec::new();
    if let Err(e) = checks::gallery_len_matches(system.gallery_len(), inputs.mirror.len()) {
        failures.push(e);
    }
    let live: HashSet<VideoId> = inputs.mirror.keys().copied().collect();
    let mut rng = Rng64::new(args.seed ^ 0x002E_C411);
    let mut recalls = Vec::with_capacity(RECALL_QUERIES);
    for _ in 0..RECALL_QUERIES {
        let q = near(&inputs.centres[rng.below(CLUSTERS)], &mut rng);
        let got = system
            .retrieve_resilient(&Tensor::from_vec(q.clone(), &[DIM]).expect("query has DIM floats"))
            .map_err(err("recall read"))?;
        if let Err(e) = checks::list_is_live(&got.ids, &live, M) {
            failures.push(e);
            break;
        }
        let exact = checks::brute_force_top_m(
            inputs.mirror.iter().map(|(id, f)| (*id, f.as_slice())),
            &q,
            M,
        );
        recalls.push(checks::recall(&got.ids, &exact));
    }
    let recall = mean(&recalls);
    if let Err(e) = checks::recall_above(recall, RECALL_FLOOR) {
        failures.push(e);
    }

    let reference: Vec<f64> = pass
        .reads
        .iter()
        .filter(|(r, ..)| *r == REFERENCE)
        .map(|(_, s, ok)| if *ok { ms(s.latency) } else { f64::INFINITY })
        .collect();
    let mut reads = Tally::default();
    for (_, _, ok) in &pass.reads {
        reads.sent += 1;
        if *ok {
            reads.succeeded += 1;
        } else {
            reads.failed += 1;
        }
    }
    // The warm-up batches were sent and, the run having gone on, applied.
    let mut writes = Tally {
        sent: WARMUP_WRITES as u64,
        succeeded: WARMUP_WRITES as u64,
        failed: 0,
    };
    let mut publish_ms = Vec::new();
    let mut rebuilt = Vec::new();
    for (sent, result) in &pass.writes {
        writes.sent += 1;
        match result {
            Ok(t) => {
                writes.succeeded += 1;
                publish_ms.push(ms(sent.service));
                rebuilt.push(t.rebuilt_shards as f64);
            }
            Err(e) => {
                writes.failed += 1;
                failures.push(format!("mutation batch failed: {e}"));
            }
        }
    }
    let mut total = reads;
    total.add(writes);

    for rung in &pass.rungs {
        println!("{}", rung.describe(SLO_MS));
    }
    println!(
        "reference rung reads: {}; publishes {publish_ms:.0?} ms, p50 {:.1} ms \
         ({:.2} shards rebuilt each); recall@{M} {recall:.4}; gallery {} rows; cpu {:.2} s over {:.2} s",
        describe_latencies(&reference),
        median(&publish_ms),
        mean(&rebuilt),
        system.gallery_len(),
        pass.cpu_s,
        pass.wall.as_secs_f64()
    );

    let mut metrics = Metrics::default();
    let (_, rss) = resource_usage();
    metrics.set("setup_s", median(&setups));
    metrics.set("peak_rss_mb", rss);
    metrics.set("cpu_s", pass.cpu_s);
    metrics.set("query_p50_ms", query_p50(&reference));
    metrics.set("max_qps_under_slo", max_rate_under_slo(&pass.rungs, SLO_MS));
    metrics.set("recall_at_m", recall);

    if args.trace {
        metrics.set(
            "bench.trace_overhead",
            overhead.expect("traced runs measure overhead"),
        );
        metrics.set("bench.query_p90_ms", percentile(&reference, 90.0));
        let lags: Vec<f64> = pass.reads.iter().map(|(_, s, _)| ms(s.lag)).collect();
        metrics.set("bench.gen_lag_p99_ms", percentile(&lags, 99.0));
        metrics.set(
            "bench.error_frac",
            total.failed as f64 / total.sent.max(1) as f64,
        );
        for (phase, t) in [("ladder", reads), ("writes", writes)] {
            metrics.set(format!("bench.{phase}.sent"), t.sent as f64);
            metrics.set(format!("bench.{phase}.succeeded"), t.succeeded as f64);
            metrics.set(format!("bench.{phase}.failed"), t.failed as f64);
        }
        let services: Vec<f64> = pass.reads.iter().map(|(_, s, _)| us(s.service)).collect();
        metrics.set("retrieval.fanout_us", median(&services));
        let stats = system.index_stats();
        let queries = (stats.queries - pass.index_before.queries).max(1) as f64;
        metrics.set(
            "retrieval.scanned_rows_per_query",
            (stats.scanned_rows - pass.index_before.scanned_rows) as f64 / queries,
        );
        metrics.set(
            "retrieval.probed_lists_per_query",
            (stats.probed_lists - pass.index_before.probed_lists) as f64 / queries,
        );
        metrics.set(
            "retrieval.audited_recall",
            f64::from(stats.recall_at_m().unwrap_or(1.0)),
        );
        let queries: Vec<Vec<f32>> = inputs.reads[REFERENCE].1.iter().take(32).cloned().collect();
        layers::shard_probe(&system, &queries, &mut metrics);
        let build_ms = metrics
            .get("retrieval.shard_build_ms")
            .expect("shard probe sets the build time");
        let publish = median(&publish_ms);
        metrics.set("retrieval.publish_p50_ms", publish);
        metrics.set("retrieval.rebuilt_shards_per_publish", mean(&rebuilt));
        metrics.set(
            "retrieval.publish_stage_share",
            (1.0 - mean(&rebuilt) * build_ms / publish).clamp(0.0, 1.0),
        );
    }
    Ok(Outcome {
        metrics,
        tally: total,
        failures,
    })
}
