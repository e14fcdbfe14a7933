//! `eval-sweep`: the paper's evaluation loop — back-to-back persisted
//! `ExperimentRunner` sweeps (sample → project → reconstruct → compare →
//! persist) against a stored gold standard.

use std::time::{Duration, Instant};

use crimson::experiment::cell_seed;
use crimson::sampling::SamplingStrategy;
use crimson::{
    DistanceSource, Durability, ExperimentRecord, ExperimentRunner, ExperimentSpec, Method,
    Repository, RepositoryOptions, TreeHandle,
};
use reconstruction::compare::CompareError;
use reconstruction::{
    compare_sources, jc_corrected_matrix, neighbor_joining, robinson_foulds, upgma,
};
use simulation::{GoldStandard, GoldStandardBuilder, Model};

use crate::common::*;
use crate::trace::Tracer;

const SETUP_REPS: usize = 5;
const REPLICATES: usize = 4;
const WORKERS: usize = 2;
/// Sweeps run (untimed) on a separate set-up before its size is measured.
const STORE_SWEEPS: u64 = 2;
/// Equal-count chunks of sweeps the run's figures are the median over.
const SWEEP_CHUNKS: usize = 5;
const METHODS: [Method; 2] = [Method::NeighborJoining, Method::Upgma];

fn spec(name: String, seed: u64, ks: [usize; 2]) -> ExperimentSpec {
    ExperimentSpec {
        name,
        methods: METHODS.to_vec(),
        strategies: ks
            .iter()
            .map(|&k| SamplingStrategy::Uniform { k })
            .collect(),
        replicates: REPLICATES,
        distance_source: DistanceSource::SequencesJc,
        compute_triplets: false,
        seed,
        workers: WORKERS,
        cell_commits: false,
    }
}

/// Back-to-back sweeps for one stretch of the run.
struct Segment {
    records: Vec<ExperimentRecord>,
    latency: Latencies,
}

struct Sweeper {
    repo: Repository,
    gold: TreeHandle,
    ks: [usize; 2],
    seed: u64,
    next: u64,
}

impl Sweeper {
    fn sweep(&mut self) -> Result<ExperimentRecord, String> {
        self.next += 1;
        let s = spec(
            format!("sweep-{}", self.next),
            splitmix64(self.seed ^ self.next),
            self.ks,
        );
        ExperimentRunner::new(&mut self.repo, self.gold)
            .run(&s)
            .map_err(err)
    }

    fn segment(
        &mut self,
        span: Duration,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Segment, String> {
        let mut seg = Segment {
            records: Vec::new(),
            latency: Latencies::default(),
        };
        let start = Instant::now();
        loop {
            let before = self.repo.buffer_stats();
            let t0 = Instant::now();
            let record = self.sweep()?;
            let t1 = Instant::now();
            // With a tracer, every other sweep is traced.
            let traced = tracer.is_some() && seg.records.len() % 2 == 1;
            if let Some(tr) = tracer.as_deref_mut().filter(|_| traced) {
                let after = self.repo.buffer_stats();
                let id = tr.record("crimson.experiment.sweep", None, record.id, t0, t1);
                tr.counter(id, "cells", record.runs);
                tr.counter(id, "wal_bytes", after.wal_bytes - before.wal_bytes);
                tr.counter(
                    id,
                    "wal_page_images",
                    after.wal_page_images - before.wal_page_images,
                );
                tr.counter(id, "wal_syncs", after.wal_syncs - before.wal_syncs);
                tr.counter(id, "commits", after.commits - before.commits);
                tr.counter(id, "page_reads", after.page_reads() - before.page_reads());
                tr.counter(id, "misses", after.misses - before.misses);
                tr.counter(id, "evictions", after.evictions - before.evictions);
            }
            seg.latency.push(traced, t1 - start, ms(t1 - t0));
            seg.records.push(record);
            if t1 >= start + span && (tracer.is_none() || seg.records.len() >= 2) {
                break;
            }
        }
        Ok(seg)
    }
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let (taxa, sites, ks) = match args.size {
        Size::Full => (5_000, 500, [128, 32]),
        Size::Tiny => (200, 100, [32, 8]),
    };
    let cells_per_sweep = (METHODS.len() * ks.len() * REPLICATES) as u64;
    let gold = GoldStandardBuilder::new()
        .leaves(taxa)
        .sequence_length(sites)
        .model(Model::Jc69 { rate: 0.02 })
        .seed(args.seed)
        .build()
        .map_err(err)?;
    let input_bytes = (phylo::newick::write(&gold.tree).len()
        + gold.sequences.values().map(String::len).sum::<usize>()) as f64;
    let work = WorkDir::new("sweep").map_err(err)?;

    let set_up = |rep: usize| -> Result<(Sweeper, Duration, Duration), String> {
        let path = work.path().join(format!("gold-{rep}"));
        let t0 = Instant::now();
        let mut repo = Repository::create(&path, RepositoryOptions::default()).map_err(err)?;
        let (handle, load) = timed(|| repo.load_gold_standard("gold", &gold));
        let sweeper = Sweeper {
            repo,
            gold: handle.map_err(err)?,
            ks,
            seed: args.seed,
            next: 0,
        };
        Ok((sweeper, t0.elapsed(), load))
    };
    let (mut sweeper, setup, load) = set_up(0)?;
    let (mut setups, mut loads) = (vec![setup], vec![load]);
    let wal_at_setup = sweeper.repo.buffer_stats().wal_bytes;

    // One untimed sweep lets caches fill; then the timed stretches.
    sweeper.sweep()?;
    let mut tracer = Tracer::new(Instant::now());
    let cache_before = sweeper.repo.record_cache_stats().0;
    let span = Duration::from_secs_f64(args.seconds);
    let mut seg = sweeper.segment(span, args.trace.then_some(&mut tracer))?;
    let cache_after = sweeper.repo.record_cache_stats().0;

    // Checks and shares, off the clock.
    let repo = &sweeper.repo;
    match repo.integrity_check() {
        Ok(_) => out.check(true),
        Err(e) => out.fail(format!("integrity check: {e}")),
    }
    let mut rng = Rng::new(args.seed, 3);
    let mut corrupt = args.corrupt;
    let (mut persist_ms, mut wall_ms, mut sampling_ms, mut cell_ms) = (0.0, 0.0, 0.0, 0.0);
    for record in &seg.records {
        let results = repo.experiment_results(record.id).map_err(err)?;
        out.check(record.runs == cells_per_sweep && results.len() as u64 == cells_per_sweep);
        wall_ms += record.wall_ms;
        for res in &results {
            let t = &res.timings;
            persist_ms += res.persist_ms;
            sampling_ms += t.sampling_ms;
            cell_ms += t.sampling_ms
                + t.projection_ms
                + t.distances_ms
                + t.reconstruction_ms
                + t.comparison_ms;
        }
        // RF of one cell per sweep, recomputed in memory from the stored
        // reconstruction and the gold tree projected onto its leaves.
        let Some(res) = results.get(rng.below(results.len().max(1))) else {
            continue;
        };
        let mut stored = res.rf;
        if corrupt > 0 {
            stored.distance += 1;
            corrupt -= 1;
        }
        out.check(rf_matches(repo, &gold, res.recon, stored).unwrap_or(false));
    }
    let persist_share = ratio(persist_ms, wall_ms);
    let sampling_share = ratio(sampling_ms, cell_ms);
    out.note(format!(
        "property eval-sweep: {taxa} taxa x {sites} sites, {cells_per_sweep} cells per sweep; \
         persist share of sweep wall time {persist_share:.3}; sampling share of cell time \
         {sampling_share:.3}; {} sweeps measured",
        seg.records.len()
    ));

    if !args.trace {
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    // The other set-ups come after the memory reading; they feed the
    // set-up medians. The first of them also gives the stored size: the
    // gold standard plus a fixed number of sweeps, after a clean close.
    let mut stored_bytes = 0;
    for rep in 1..SETUP_REPS {
        let (mut again, setup, load) = set_up(rep)?;
        setups.push(setup);
        loads.push(load);
        let store_probe = rep == 1;
        if store_probe {
            for _ in 0..STORE_SWEEPS {
                again.sweep()?;
            }
        }
        drop(again);
        let path = work.path().join(format!("gold-{rep}"));
        if store_probe {
            stored_bytes = repo_bytes(&path);
        }
        remove_repo(&path);
    }

    if !args.trace {
        out.metric("setup_s", median_s(setups), "s");
        // A run holds tens of sweeps, so its chunks are few.
        let (sweeps_per_s, p50, p99) = seg.latency.chunked(SWEEP_CHUNKS);
        out.metric("ops_per_s", sweeps_per_s * cells_per_sweep as f64, "1/s");
        out.metric("op_p50_ms", p50, "ms");
        out.metric("op_p99_ms", p99, "ms");
        out.metric(
            "store_bytes_per_input_byte",
            stored_bytes as f64 / input_bytes,
            "ratio",
        );
    } else {
        let sweep = "crimson.experiment.sweep";
        let total = |c: &str| tracer.counter_total(sweep, c).0 as f64;
        let cells = total("cells");
        out.metric(
            "storage.wal.bytes_per_run",
            ratio(total("wal_bytes"), cells),
            "bytes",
        );
        out.metric(
            "storage.wal.page_images_per_run",
            ratio(total("wal_page_images"), cells),
            "count",
        );
        out.metric(
            "storage.wal.fsyncs_per_commit",
            ratio(total("wal_syncs"), total("commits")),
            "count",
        );
        out.metric(
            "storage.wal.bytes_per_input_byte",
            wal_at_setup as f64 / input_bytes,
            "ratio",
        );
        out.metric(
            "storage.buffer.page_reads_per_op",
            ratio(total("page_reads"), cells),
            "count",
        );
        out.metric(
            "storage.buffer.misses_per_op",
            ratio(total("misses"), cells),
            "count",
        );
        out.metric(
            "storage.buffer.evictions_per_op",
            ratio(total("evictions"), cells),
            "count",
        );
        out.metric(
            "storage.buffer.hit_ratio",
            1.0 - ratio(total("misses"), total("page_reads")),
            "ratio",
        );
        let (h, m) = (
            cache_after.0 - cache_before.0,
            cache_after.1 - cache_before.1,
        );
        out.metric(
            "crimson.cache.record_hit_ratio",
            ratio(h as f64, (h + m) as f64),
            "ratio",
        );
        let load_s = median_s(loads);
        out.metric("crimson.repository.load_s", load_s, "s");
        out.metric(
            "crimson.repository.rows_per_s",
            (gold.tree.node_count() + gold.sequences.len()) as f64 / load_s,
            "1/s",
        );
        out.metric("trace.persist_share", persist_share, "ratio");
        out.metric("trace.sampling_share", sampling_share, "ratio");
        out.metric("trace.overhead_frac", seg.latency.trace_overhead(), "ratio");
        // The first traced sweep (the loop runs at least two).
        let first = seg.records[1].clone();
        replay_stages(&mut sweeper, &first, &mut tracer, out)?;
        crate::finish_trace(&tracer, args, out);
    }
    Ok(())
}

/// Whether the stored RF of a reconstruction matches the one recomputed
/// in memory against the gold tree projected onto the same leaves.
fn rf_matches(
    repo: &Repository,
    gold: &GoldStandard,
    recon: TreeHandle,
    stored: reconstruction::RfResult,
) -> Result<bool, String> {
    let leaves = repo.leaves(recon).map_err(err)?;
    let tree = repo.project(recon, &leaves).map_err(err)?;
    let names = tree.leaf_names();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let truth = phylo::ops::project_by_names(&gold.tree, &names).map_err(err)?;
    let rf = robinson_foulds(&truth, &tree).map_err(err)?;
    Ok(rf.distance == stored.distance && rf.max_distance == stored.max_distance)
}

/// Replay each cell of one traced sweep stage by stage through the public
/// functions, with the sweep's own cell seeds, under one span per stage.
fn replay_stages(
    sweeper: &mut Sweeper,
    record: &ExperimentRecord,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let gold = sweeper.gold;
    let spec = &record.spec;
    let results = sweeper.repo.experiment_results(record.id).map_err(err)?;
    let reader = sweeper.repo.reader().map_err(err)?;
    // Persist without a per-tree fsync, as inside the sweep's single
    // transaction.
    sweeper.repo.set_durability(Durability::Async);
    let (mut eval_ms, mut persist_ms) = (0.0, 0.0);
    for res in &results {
        let req = res.id;
        let cell = Instant::now();
        let seed = cell_seed(spec.seed, res.strategy_index, res.replicate);
        let root = tracer.record("bench.cell", None, req, cell, cell);
        let mut stage = |name: &'static str, start: Instant, parent: usize| {
            tracer.record(name, Some(parent), req, start, Instant::now())
        };
        let before = sweeper.repo.buffer_stats();
        let t = Instant::now();
        let sample = reader.sample(gold, &res.strategy, seed).map_err(err)?;
        let s = stage("crimson.sampling.sample", t, root);
        let pages = sweeper.repo.buffer_stats().page_reads() - before.page_reads();
        let t = Instant::now();
        let reference = reader.project(gold, &sample).map_err(err)?;
        stage("crimson.query.project", t, root);
        let t = Instant::now();
        let names = reader.names_of(&sample).map_err(err)?;
        let seqs = reader.sequences_for(gold, &names).map_err(err)?;
        stage("crimson.sampling.sequences", t, root);
        let t = Instant::now();
        let matrix = jc_corrected_matrix(&seqs).map_err(err)?;
        stage("reconstruction.distance", t, root);
        let t = Instant::now();
        let recon = match res.method {
            Method::NeighborJoining => neighbor_joining(&matrix).map_err(err)?,
            Method::Upgma => upgma(&matrix).map_err(err)?,
        };
        let name = match res.method {
            Method::NeighborJoining => "reconstruction.nj",
            Method::Upgma => "reconstruction.upgma",
        };
        stage(name, t, root);
        let t = Instant::now();
        let cmp = compare_sources::<_, _, CompareError>(&reference, &recon, false).map_err(err)?;
        stage("reconstruction.compare", t, root);
        eval_ms += ms(cell.elapsed());
        let t = Instant::now();
        sweeper
            .repo
            .load_tree(&format!("replay-{}-{req}", record.name), &recon)
            .map_err(err)?;
        stage("crimson.repository.persist", t, root);
        persist_ms += ms(t.elapsed());
        tracer.finish(root, Instant::now());
        tracer.counter(s, "page_reads", pages);
        // The replay reproduces the stored cell.
        out.check(cmp.rf.distance == res.rf.distance);
    }
    sweeper.repo.set_durability(Durability::Sync);
    let p50 = |name: &str| tracer.durations_us(name).p50() / 1e3;
    out.metric(
        "crimson.sampling.sample_p50_ms",
        p50("crimson.sampling.sample"),
        "ms",
    );
    let (pages, samples) = tracer.counter_total("crimson.sampling.sample", "page_reads");
    out.metric(
        "crimson.sampling.page_reads_per_sample",
        ratio(pages as f64, samples as f64),
        "count",
    );
    out.metric(
        "crimson.query.project_p50_us",
        p50("crimson.query.project") * 1e3,
        "us",
    );
    out.metric(
        "reconstruction.distance_p50_ms",
        p50("reconstruction.distance"),
        "ms",
    );
    out.metric("reconstruction.nj_p50_ms", p50("reconstruction.nj"), "ms");
    out.metric(
        "reconstruction.upgma_p50_ms",
        p50("reconstruction.upgma"),
        "ms",
    );
    out.metric(
        "reconstruction.compare_p50_ms",
        p50("reconstruction.compare"),
        "ms",
    );
    out.metric(
        "crimson.repository.persist_p50_ms",
        p50("crimson.repository.persist"),
        "ms",
    );
    // The writer persists cells one after another while the workers
    // evaluate in parallel: the larger of the two bounds the sweep.
    let eval_per_worker = eval_ms / WORKERS as f64;
    out.note(format!(
        "stage replay of {} cells: evaluation {eval_ms:.1} ms ({eval_per_worker:.1} ms per worker), \
         persist {persist_ms:.1} ms; critical path: {}",
        results.len(),
        if persist_ms >= eval_per_worker { "persist" } else { "evaluation" }
    ));
    Ok(())
}
