//! `served-reads`: small structure queries through an in-process
//! `crimson-server` over loopback, two connections in a closed loop, on a
//! tree whose repository fits the default buffer pool.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use crimson::{Repository, RepositoryOptions, StoredNodeId};
use crimson_server::dispatch::ServerStats;
use crimson_server::{
    Client, ErrorCode, Request, Response, Server, ServerConfig, WireDurability, WireError,
};

use crate::common::*;
use crate::ops::{check_all, op_stream, served_mix, Answer, Op};
use crate::probe;
use crate::reference::Reference;
use crate::trace::Tracer;

const TENANT: &str = "bench";
const CONNECTIONS: usize = 2;
/// Calls per second one connection stays below.
const CALLS_PER_S: usize = 20_000;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Served requests replayed embedded (and through the codec) per run.
const REPLAY: usize = 20_000;
const CACHE_REPLAY: usize = 2_000;
const BTREE_PROBES: usize = 4_000;

/// Seeded operation streams of connection `c`: measured `MEASURED + c`,
/// warm-up `WARM_UP + c`.
const MEASURED: u64 = 100;
const WARM_UP: u64 = 200;

/// One timed stretch of the closed loop, both connections together.
struct Segment {
    /// Answers of each connection, in the order sent.
    answers: Vec<Vec<Answer>>,
    /// The first requests and replies of a traced run, with their request
    /// ids, for the codec replay.
    codec: Vec<(u64, Request, Response)>,
    latency: Latencies,
}

/// The request id shared by every span of connection `conn`'s `i`-th call.
fn req_id(conn: usize, i: usize) -> u64 {
    ((conn as u64) << 40) | i as u64
}

struct Running {
    server: Server,
    dir: WorkDir,
    tree: u64,
}

/// Set-up: start a server, load the tree over the wire, list its leaves.
/// Returns the running server, the set-up and load times, and whether the
/// stored leaves are the generated tree's.
fn start(
    newick: &str,
    r: &Reference,
    rep: usize,
) -> Result<(Running, Duration, Duration, bool), String> {
    let t0 = Instant::now();
    let dir = WorkDir::new(&format!("served-{rep}")).map_err(err)?;
    let server = Server::start(ServerConfig::default(), dir.path()).map_err(err)?;
    let mut client = Client::connect(server.addr()).map_err(err)?;
    client.attach(TENANT).map_err(err)?;
    let (loaded, load) = timed(|| client.load_tree("gold", newick, WireDurability::Sync));
    let tree = match loaded.map_err(err)? {
        Response::TreeLoaded { tree, .. } => tree,
        other => return Err(format!("LoadTree answered {other:?}")),
    };
    let leaves = match client.call(&Request::Leaves { tree }).map_err(err)? {
        Response::Nodes(v) => v,
        other => return Err(format!("Leaves answered {other:?}")),
    };
    let mut expected = r.leaf_sids(tree);
    let mut got = leaves;
    expected.sort_unstable();
    got.sort_unstable();
    let running = Running { server, dir, tree };
    Ok((running, t0.elapsed(), load, got == expected))
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let leaves = match args.size {
        Size::Full => 20_000,
        Size::Tiny => 400,
    };
    let newick = phylo::newick::write(&simulation::yule_tree(leaves, 1.0, args.seed));
    let r = Reference::new(phylo::newick::parse(&newick).map_err(err)?);

    let (running, setup, load, leaves_ok) = start(&newick, &r, 0)?;
    let (mut setups, mut loads) = (vec![setup], vec![load]);
    out.check(leaves_ok);
    let Running { server, dir, tree } = running;
    let stats = server.stats();

    let mut clients = Vec::new();
    for _ in 0..CONNECTIONS {
        let mut c = Client::connect(server.addr()).map_err(err)?;
        c.attach(TENANT).map_err(err)?;
        clients.push(c);
    }
    let ops = |stream: u64| op_stream(&r, served_mix, args.seed, stream);
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let warm = warm_up(args.seconds);
    closed_loop(&mut clients, &ops, WARM_UP, tree, warm, None);
    let before = dispatch_counters(&stats);
    let span = Duration::from_secs_f64(args.seconds);
    let traced = args.trace.then_some(&mut tracer);
    let mut seg = closed_loop(&mut clients, &ops, MEASURED, tree, span, traced);
    let after = dispatch_counters(&stats);
    drop(clients);
    server.shutdown();

    let mut corrupt = args.corrupt;
    for (conn, answers) in seg.answers.iter_mut().enumerate() {
        check_all(
            &r,
            tree,
            ops(MEASURED + conn as u64),
            answers,
            &mut corrupt,
            out,
        );
    }
    // The replay set: the first requests of each connection, with ids.
    let mut replay: Vec<(u64, Op)> = Vec::new();
    for (conn, answers) in seg.answers.iter().enumerate() {
        let n = answers.len().min(REPLAY / CONNECTIONS);
        let stream = ops(MEASURED + conn as u64).take(n).enumerate();
        replay.extend(stream.map(|(i, op)| (req_id(conn, i), op)));
    }

    // The tenant's own repository, reopened: store size, then an embedded
    // replay of the served requests.
    let path = dir.path().join(TENANT);
    let stored_bytes = repo_bytes(&path);
    let repo = Repository::open(&path, RepositoryOptions::default()).map_err(err)?;
    let reader = repo.reader().map_err(err)?;
    let leaf_sids: Vec<StoredNodeId> = r.leaf_sids(tree).into_iter().map(StoredNodeId).collect();
    match reader.names_of(&leaf_sids) {
        Ok(names) if r.verify_names(&names) => out.check(true),
        Ok(_) => out.fail("stored leaf names do not match the generated tree"),
        Err(e) => out.fail(format!("names_of: {e}")),
    }
    // One warm pass, as the served run's pool was warm, then the timed one.
    for (_, op) in &replay {
        let _ = op.run(&reader, tree);
    }
    let mut engine_us = Samples::default();
    let mut replay_tracer = Tracer::new(origin);
    for (req, op) in &replay {
        let t0 = Instant::now();
        if args.trace {
            probe::traced_op(&reader, &repo, tree, op, &mut replay_tracer, *req);
        } else {
            let _ = op.run(&reader, tree);
        }
        engine_us.push(us(t0.elapsed()));
    }
    let (ops_per_s, served_p50_ms, served_p99_ms) = seg.latency.chunked(CHUNKS);
    let served_p50_us = served_p50_ms * 1e3;
    // Traced, the span around the engine call is the tighter figure.
    let engine_p50_us = if args.trace {
        let mut spans = Samples::default();
        for (name, _) in probe::QUERY_KINDS {
            spans.extend(&replay_tracer.durations_us(name));
        }
        spans.p50()
    } else {
        engine_us.p50()
    };
    out.note(format!(
        "property served-reads: {leaves} leaves, {} stored pages, 4096-page pool; \
         served p50 {served_p50_us:.1} us / embedded p50 {engine_p50_us:.1} us = {:.2}x; \
         {} calls measured",
        stored_bytes / storage::PAGE_SIZE as u64,
        ratio(served_p50_us, engine_p50_us),
        seg.answers.iter().map(Vec::len).sum::<usize>(),
    ));

    if !args.trace {
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    // The other set-ups come after the memory reading, which they would
    // only inflate; they feed the set-up medians.
    for rep in 1..SETUP_REPS {
        let (running, setup, load, leaves_ok) = start(&newick, &r, rep)?;
        setups.push(setup);
        loads.push(load);
        out.check(leaves_ok);
        running.server.shutdown();
    }
    let setup_s = median_s(setups);
    if !args.trace {
        out.metric("setup_s", setup_s, "s");
        out.metric("ops_per_s", ops_per_s, "1/s");
        out.metric("op_p50_ms", served_p50_ms, "ms");
        out.metric("op_p99_ms", served_p99_ms, "ms");
        out.metric(
            "store_bytes_per_input_byte",
            stored_bytes as f64 / newick.len() as f64,
            "ratio",
        );
    } else {
        tracer.merge(replay_tracer);
        probe::query_metrics(&tracer, out);
        let codec_p50_us = codec_replay(&seg, &mut tracer, out);
        let cached = replay.iter().map(|(_, op)| op.clone()).take(CACHE_REPLAY);
        let hit = probe::record_hit_ratio(&repo, tree, cached);
        out.metric("crimson.cache.record_hit_ratio", hit, "ratio");
        let load_s = median_s(loads);
        out.metric("crimson.repository.load_s", load_s, "s");
        out.metric(
            "crimson.repository.rows_per_s",
            r.tree.node_count() as f64 / load_s,
            "1/s",
        );
        let reads = (after.0 - before.0) as f64;
        out.metric(
            "server.dispatch.coalesced_fraction",
            ratio((after.2 - before.2) as f64, reads),
            "ratio",
        );
        out.metric(
            "server.dispatch.batches_per_read",
            ratio((after.1 - before.1) as f64, reads),
            "ratio",
        );
        out.metric(
            "server.dispatch.overloaded",
            (after.3 - before.3) as f64,
            "count",
        );
        out.metric("server.msg.codec_p50_us", codec_p50_us, "us");
        out.metric(
            "server.server.overhead_p50_us",
            served_p50_us - engine_p50_us - codec_p50_us,
            "us",
        );
        out.note(format!(
            "served p50 {served_p50_us:.1} us = engine {engine_p50_us:.1} + codec \
                 {codec_p50_us:.1} + server overhead {:.1}",
            served_p50_us - engine_p50_us - codec_p50_us
        ));
        out.metric(
            "trace.served_embedded_p50_ratio",
            ratio(served_p50_us, engine_p50_us),
            "ratio",
        );
        out.metric("trace.overhead_frac", seg.latency.trace_overhead(), "ratio");
        drop((reader, repo));
        let pool = RepositoryOptions::default().buffer_pool_pages;
        probe::btree_probe(
            &path,
            pool,
            &r,
            tree,
            replay.into_iter().map(|(_, op)| op),
            BTREE_PROBES,
            &mut tracer,
            out,
        )?;
        crate::finish_trace(&tracer, args, out);
    }
    Ok(())
}

/// `(reads, read_batches, coalesced_reads, overloaded)`.
fn dispatch_counters(stats: &ServerStats) -> (u64, u64, u64, u64) {
    (
        stats.reads.load(Ordering::Relaxed),
        stats.read_batches.load(Ordering::Relaxed),
        stats.coalesced_reads.load(Ordering::Relaxed),
        stats.overloaded.load(Ordering::Relaxed),
    )
}

/// Closed loop on every connection at once: each sends its next request
/// only after the previous reply arrived. With a tracer, every other call
/// is traced.
fn closed_loop<I: Iterator<Item = Op>>(
    clients: &mut [Client],
    ops: &(impl Fn(u64) -> I + Sync),
    streams: u64,
    tree: u64,
    span: Duration,
    tracer: Option<&mut Tracer>,
) -> Segment {
    let start = Instant::now();
    let deadline = start + span;
    let tracing = tracer.is_some();
    let per_conn: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                scope.spawn(move || {
                    let mut local = Tracer::new(start);
                    // Room for the fastest expected run, so peak memory does
                    // not jump with throughput.
                    let calls = (span.as_secs() as usize + 1) * CALLS_PER_S;
                    let mut answers = Vec::with_capacity(calls);
                    let mut codec = Vec::new();
                    let mut latency = Latencies::with_capacity(calls);
                    for op in ops(streams + conn as u64) {
                        let request = op.request(tree);
                        let req = req_id(conn, answers.len());
                        let t0 = Instant::now();
                        let resp = client.call(&request);
                        let t1 = Instant::now();
                        let traced = tracing && answers.len() % 2 == 1;
                        if traced {
                            local.record("server.call", None, req, t0, t1);
                        }
                        latency.push(traced, t1 - start, ms(t1 - t0));
                        // A broken connection ends this caller's loop; the
                        // lost request counts as failed.
                        let (resp, broken) = match resp {
                            Ok(resp) => (resp, false),
                            Err(e) => (
                                Response::Error(WireError::new(ErrorCode::Internal, e.to_string())),
                                true,
                            ),
                        };
                        answers.push(Answer::from_response(&resp));
                        if tracing && codec.len() < REPLAY / CONNECTIONS {
                            codec.push((req, request, resp));
                        }
                        if broken || t1 >= deadline {
                            break;
                        }
                    }
                    (answers, codec, latency, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let (mut answers, mut codec, mut parts) = (Vec::new(), Vec::new(), Vec::new());
    let mut merged = Tracer::new(start);
    for (conn_answers, conn_codec, latency, local) in per_conn {
        answers.push(conn_answers);
        codec.extend(conn_codec);
        parts.push(latency);
        merged.merge(local);
    }
    if let Some(t) = tracer {
        t.merge(merged);
    }
    Segment {
        answers,
        codec,
        latency: Latencies::merged(parts),
    }
}

/// Encode and decode each replayed request and its response, as client
/// and server do; returns the p50 in µs. A codec round trip that changes
/// a message counts as a failure.
fn codec_replay(seg: &Segment, tracer: &mut Tracer, out: &mut Outcome) -> f64 {
    let mut times = Samples::default();
    for (req, request, resp) in &seg.codec {
        let req = *req;
        let t0 = Instant::now();
        let req_back = Request::decode(&request.encode(req));
        let resp_back = Response::decode(&resp.encode(req));
        let t1 = Instant::now();
        tracer.record("server.msg.codec", None, req, t0, t1);
        times.push(us(t1 - t0));
        let same = matches!(&req_back, Ok((_, q)) if q == request)
            && matches!(&resp_back, Ok((_, s)) if s == resp);
        if !same {
            out.fail("codec round trip changed a message");
        }
    }
    times.p50()
}
