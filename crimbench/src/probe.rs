//! Layer probes shared by the read workloads: traced engine calls with
//! buffer-pool counter deltas, the record-cache replay, and the B+tree
//! lookup timing on the closed repository file.

use std::path::Path;
use std::time::Instant;

use crimson::Repository;
use storage::db::Database;

use crate::common::{ratio, us, Outcome, Samples};
use crate::ops::{Answer, Engine, Op};
use crate::reference::Reference;
use crate::trace::Tracer;

pub const QUERY_KINDS: [(&str, &str); 4] = [
    ("crimson.query.lca", "lca"),
    ("crimson.query.is_ancestor", "is_ancestor"),
    ("crimson.query.spanning_clade", "spanning_clade"),
    ("crimson.query.project", "project"),
];

/// Run one operation with a span around the engine call and the buffer
/// pool's counter deltas (`pool` shares the engine's buffer pool).
pub fn traced_op<E: Engine>(
    engine: &E,
    pool: &Repository,
    tree: u64,
    op: &Op,
    tracer: &mut Tracer,
    req: u64,
) -> Answer {
    let before = pool.buffer_stats();
    let start = Instant::now();
    let answer = op.run(engine, tree);
    let end = Instant::now();
    let after = pool.buffer_stats();
    let span = tracer.record(op.span(), None, req, start, end);
    tracer.counter(span, "page_reads", after.page_reads() - before.page_reads());
    tracer.counter(span, "misses", after.misses - before.misses);
    tracer.counter(span, "evictions", after.evictions - before.evictions);
    answer
}

/// The `crimson.query.*` and `storage.buffer.*` metrics of the traced
/// engine calls.
pub fn query_metrics(tracer: &Tracer, out: &mut Outcome) {
    let mut all = Samples::default();
    let (mut reads, mut misses, mut evictions, mut ops) = (0, 0, 0, 0);
    for (span, kind) in QUERY_KINDS {
        let mut d = tracer.durations_us(span);
        out.metric(&format!("crimson.query.{kind}_p50_us"), d.p50(), "us");
        out.metric(&format!("crimson.query.{kind}_p99_us"), d.p99(), "us");
        all.extend(&d);
        reads += tracer.counter_total(span, "page_reads").0;
        misses += tracer.counter_total(span, "misses").0;
        let (ev, n) = tracer.counter_total(span, "evictions");
        evictions += ev;
        ops += n;
    }
    out.metric("crimson.query.engine_p50_us", all.p50(), "us");
    let per_op = |x: u64| ratio(x as f64, ops as f64);
    out.metric("storage.buffer.page_reads_per_op", per_op(reads), "count");
    out.metric("storage.buffer.misses_per_op", per_op(misses), "count");
    out.metric(
        "storage.buffer.evictions_per_op",
        per_op(evictions),
        "count",
    );
    out.metric(
        "storage.buffer.hit_ratio",
        1.0 - ratio(misses as f64, reads as f64),
        "ratio",
    );
}

/// Replay operations on the writer, whose decoded-record cache exposes
/// counters, and return its hit ratio over the replay.
pub fn record_hit_ratio(repo: &Repository, tree: u64, ops: impl Iterator<Item = Op>) -> f64 {
    let ((h0, m0), _) = repo.record_cache_stats();
    for op in ops {
        let _ = op.run(repo, tree);
    }
    let ((h1, m1), _) = repo.record_cache_stats();
    ratio((h1 - h0) as f64, ((h1 - h0) + (m1 - m0)) as f64)
}

/// Time `Database::raw_get` on the closed file's `ivl_by_node` index for
/// keys the workload touched, checking each value against the oracle.
#[allow(clippy::too_many_arguments)]
pub fn btree_probe(
    path: &Path,
    pool_pages: usize,
    r: &Reference,
    tree: u64,
    ops: impl Iterator<Item = Op>,
    cap: usize,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let db = Database::open_with_capacity(path, pool_pages).map_err(|e| e.to_string())?;
    let index = db.raw_index("ivl_by_node").map_err(|e| e.to_string())?;
    let keys: Vec<_> = ops.flat_map(|op| op.nodes()).take(cap).collect();
    let mut times = Samples::default();
    for (i, node) in keys.into_iter().enumerate() {
        let key = Reference::sid(tree, node).to_be_bytes();
        let start = Instant::now();
        let got = db.raw_get(index, &key);
        let end = Instant::now();
        tracer.record("storage.btree.raw_get", None, i as u64, start, end);
        times.push(us(end - start));
        out.check(matches!(got, Ok(Some(v)) if v == r.packed_interval(node)));
    }
    out.metric("storage.btree.raw_get_p50_us", times.p50(), "us");
    Ok(())
}
