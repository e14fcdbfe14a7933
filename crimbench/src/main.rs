//! Crimson's benchmark: three workloads, end-to-end metrics with tracing
//! off, layer-attributed metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path crimbench/Cargo.toml -- \
//!     --workload served-reads|cold-reads|eval-sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (every end-to-end metric with `--trace 0`, every
//! per-layer metric with `--trace 1`). Lines above it report the workload
//! properties and, when traced, each layer's self time. `--size tiny` and
//! `--corrupt N` exist for the self-test.

mod cold;
mod common;
mod ops;
mod probe;
mod reference;
mod served;
mod sweep;
mod trace;

use common::{Args, Outcome};
use trace::Tracer;

/// End-to-end metrics, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("store_bytes_per_input_byte", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, as `BENCHMARK.json` lists them. A workload that does
/// not exercise a layer reports 0 for its metrics.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("storage.buffer.page_reads_per_op", "count"),
    ("storage.buffer.misses_per_op", "count"),
    ("storage.buffer.evictions_per_op", "count"),
    ("storage.buffer.hit_ratio", "ratio"),
    ("storage.btree.raw_get_p50_us", "us"),
    ("storage.wal.bytes_per_run", "bytes"),
    ("storage.wal.page_images_per_run", "count"),
    ("storage.wal.fsyncs_per_commit", "count"),
    ("storage.wal.bytes_per_input_byte", "ratio"),
    ("crimson.repository.load_s", "s"),
    ("crimson.repository.rows_per_s", "1/s"),
    ("crimson.repository.persist_p50_ms", "ms"),
    ("crimson.query.lca_p50_us", "us"),
    ("crimson.query.lca_p99_us", "us"),
    ("crimson.query.is_ancestor_p50_us", "us"),
    ("crimson.query.is_ancestor_p99_us", "us"),
    ("crimson.query.spanning_clade_p50_us", "us"),
    ("crimson.query.spanning_clade_p99_us", "us"),
    ("crimson.query.project_p50_us", "us"),
    ("crimson.query.project_p99_us", "us"),
    ("crimson.query.engine_p50_us", "us"),
    ("crimson.cache.record_hit_ratio", "ratio"),
    ("crimson.sampling.sample_p50_ms", "ms"),
    ("crimson.sampling.page_reads_per_sample", "count"),
    ("reconstruction.distance_p50_ms", "ms"),
    ("reconstruction.nj_p50_ms", "ms"),
    ("reconstruction.upgma_p50_ms", "ms"),
    ("reconstruction.compare_p50_ms", "ms"),
    ("server.msg.codec_p50_us", "us"),
    ("server.dispatch.coalesced_fraction", "ratio"),
    ("server.dispatch.batches_per_read", "ratio"),
    ("server.dispatch.overloaded", "count"),
    ("server.server.overhead_p50_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("trace.persist_share", "ratio"),
    ("trace.sampling_share", "ratio"),
    ("trace.served_embedded_p50_ratio", "ratio"),
];

/// Report each layer's self time, and write the spans out.
pub fn finish_trace(tracer: &Tracer, args: &Args, out: &mut Outcome) {
    for (layer, (self_us, reqs)) in tracer.layer_self_us() {
        out.note(format!(
            "layer {layer}: self time {:.1} ms over {reqs} requests ({:.2} us/request)",
            self_us / 1e3,
            common::ratio(self_us, reqs as f64)
        ));
    }
    let path = common::out_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => out.note(format!("spans written to {}", path.display())),
        Err(e) => out.note(format!("could not write spans to {}: {e}", path.display())),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("crimbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    let ran = match args.workload.as_str() {
        "served-reads" => served::run(&args, &mut out),
        "cold-reads" => cold::run(&args, &mut out),
        "eval-sweep" => sweep::run(&args, &mut out),
        other => Err(format!("unknown workload {other:?}")),
    };
    if let Err(e) = ran {
        eprintln!("crimbench: {} failed: {e}", args.workload);
        std::process::exit(1);
    }
    if args.trace {
        out.fill_missing(&PER_LAYER);
    }
    out.print();
}
