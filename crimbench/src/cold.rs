//! `cold-reads`: structure queries on a repository about thirty times its
//! buffer pool, issued embedded (no server) by one caller through one
//! `RepositoryReader`.

use std::time::{Duration, Instant};

use crimson::{Repository, RepositoryOptions, RepositoryReader, StoredNodeId};

use crate::common::*;
use crate::ops::{check_all, cold_mix, op_stream, Answer, Op};
use crate::probe;
use crate::reference::Reference;
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Operations replayed on the writer to read its record-cache counters.
const CACHE_REPLAY: usize = 2_000;
/// Keys probed against the interval index for the B+tree timing.
const BTREE_PROBES: usize = 4_000;

/// Calls per second the single caller stays below.
const CALLS_PER_S: usize = 5_000;
/// Seeded operation streams: the measured one, and the warm-up's.
const MEASURED: u64 = 1;
const WARM_UP: u64 = 2;

/// One timed stretch of the closed loop.
struct Segment {
    answers: Vec<Answer>,
    latency: Latencies,
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let (leaves, pool) = match args.size {
        Size::Full => (100_000, 512),
        Size::Tiny => (2_000, 16),
    };
    // Inputs exist before any clock starts.
    let newick = phylo::newick::write(&simulation::yule_tree(leaves, 1.0, args.seed));
    let r = Reference::new(phylo::newick::parse(&newick).map_err(err)?);
    let work = WorkDir::new("cold").map_err(err)?;

    let path = work.path().join("gold");
    let set = set_up(&path, &r, pool)?;
    let (mut setups, mut loads) = (vec![set.setup], vec![set.load]);
    let SetUp {
        repo,
        reader,
        tree,
        wal_bytes,
        stored_bytes,
        ..
    } = set;

    // The id ↔ oracle mapping, confirmed by leaf name.
    let leaf_sids: Vec<StoredNodeId> = r.leaf_sids(tree).into_iter().map(StoredNodeId).collect();
    match reader.names_of(&leaf_sids) {
        Ok(names) if r.verify_names(&names) => out.check(true),
        Ok(_) => out.fail("stored leaf names do not match the generated tree"),
        Err(e) => out.fail(format!("names_of: {e}")),
    }

    let ops = |stream| op_stream(&r, cold_mix, args.seed, stream);
    let mut tracer = Tracer::new(Instant::now());
    let warm = warm_up(args.seconds);
    closed_loop(&reader, &repo, tree, ops(WARM_UP), warm, None);
    let span = Duration::from_secs_f64(args.seconds);
    let before = repo.buffer_stats();
    let traced = args.trace.then_some(&mut tracer);
    let mut seg = closed_loop(&reader, &repo, tree, ops(MEASURED), span, traced);
    let after = repo.buffer_stats();

    let n = seg.answers.len();
    let misses_per_op = ratio((after.misses - before.misses) as f64, n as f64);
    out.note(format!(
        "property cold-reads: {leaves} leaves, {} stored pages, {pool}-page pool \
         (pool/working set {:.3}); buffer misses per op {misses_per_op:.2}; {n} calls measured",
        stored_bytes / storage::PAGE_SIZE as u64,
        pool as f64 / (stored_bytes / storage::PAGE_SIZE as u64).max(1) as f64,
    ));

    // Every answer is checked against the in-memory tree, off the clock.
    check_all(
        &r,
        tree,
        ops(MEASURED),
        &mut seg.answers,
        &mut args.corrupt.clone(),
        out,
    );

    if !args.trace {
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    // The other set-ups come after the memory reading; they feed the
    // set-up medians.
    for rep in 1..SETUP_REPS {
        let again = work.path().join(format!("gold-{rep}"));
        let set = set_up(&again, &r, pool)?;
        setups.push(set.setup);
        loads.push(set.load);
        drop(set);
        remove_repo(&again);
    }
    let setup_s = median_s(setups);
    let load_s = median_s(loads);
    let input_bytes = newick.len() as f64;
    if !args.trace {
        out.metric("setup_s", setup_s, "s");
        let (ops_per_s, p50, p99) = seg.latency.chunked(CHUNKS);
        out.metric("ops_per_s", ops_per_s, "1/s");
        out.metric("op_p50_ms", p50, "ms");
        out.metric("op_p99_ms", p99, "ms");
        out.metric(
            "store_bytes_per_input_byte",
            stored_bytes as f64 / input_bytes,
            "ratio",
        );
    } else {
        probe::query_metrics(&tracer, out);
        let replay = ops(MEASURED).take(CACHE_REPLAY.min(n));
        let hit = probe::record_hit_ratio(&repo, tree, replay);
        out.metric("crimson.cache.record_hit_ratio", hit, "ratio");
        out.metric("crimson.repository.load_s", load_s, "s");
        out.metric(
            "crimson.repository.rows_per_s",
            r.tree.node_count() as f64 / load_s,
            "1/s",
        );
        out.metric(
            "storage.wal.bytes_per_input_byte",
            wal_bytes as f64 / input_bytes,
            "ratio",
        );
        out.metric("trace.overhead_frac", seg.latency.trace_overhead(), "ratio");
        drop((reader, repo));
        probe::btree_probe(
            &path,
            pool,
            &r,
            tree,
            ops(MEASURED).take(n),
            BTREE_PROBES,
            &mut tracer,
            out,
        )?;
        crate::finish_trace(&tracer, args, out);
    }
    Ok(())
}

/// A repository ready to serve: created, loaded, closed and reopened with
/// the small pool.
struct SetUp {
    repo: Repository,
    reader: RepositoryReader,
    tree: u64,
    /// WAL bytes the load wrote.
    wal_bytes: u64,
    /// Bytes of the repository's files after the clean close.
    stored_bytes: u64,
    setup: Duration,
    load: Duration,
}

fn set_up(path: &std::path::Path, r: &Reference, pool: usize) -> Result<SetUp, String> {
    let start = Instant::now();
    let mut repo = Repository::create(path, RepositoryOptions::default()).map_err(err)?;
    let (handle, load) = timed(|| repo.load_tree("gold", &r.tree));
    let tree = handle.map_err(err)?.0;
    let wal_bytes = repo.buffer_stats().wal_bytes;
    drop(repo);
    let stored_bytes = repo_bytes(path);
    let options = RepositoryOptions {
        buffer_pool_pages: pool,
        ..RepositoryOptions::default()
    };
    let repo = Repository::open(path, options).map_err(err)?;
    let reader = repo.reader().map_err(err)?;
    Ok(SetUp {
        repo,
        reader,
        tree,
        wal_bytes,
        stored_bytes,
        setup: start.elapsed(),
        load,
    })
}

/// Closed loop: one call at a time until `span` has passed. With a tracer,
/// every other call is traced.
fn closed_loop(
    reader: &RepositoryReader,
    repo: &Repository,
    tree: u64,
    mut ops: impl Iterator<Item = Op>,
    span: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Segment {
    // Room for the fastest expected run, so peak memory does not jump
    // with throughput.
    let calls = (span.as_secs() as usize + 1) * CALLS_PER_S;
    let mut answers = Vec::with_capacity(calls);
    let mut latency = Latencies::with_capacity(calls);
    let start = Instant::now();
    let deadline = start + span;
    loop {
        let op = ops.next().expect("the operation stream is endless");
        let req = answers.len() as u64;
        let t0 = Instant::now();
        let traced = tracer.is_some() && req % 2 == 1;
        let answer = match tracer.as_deref_mut().filter(|_| traced) {
            Some(tr) => probe::traced_op(reader, repo, tree, &op, tr, req),
            None => op.run(reader, tree),
        };
        let t1 = Instant::now();
        latency.push(traced, t1 - start, ms(t1 - t0));
        answers.push(answer);
        if t1 >= deadline {
            break;
        }
    }
    Segment { answers, latency }
}
