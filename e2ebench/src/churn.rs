//! `durable_churn`: writes beside reads on a `DurableGraph`. Each request
//! applies and acknowledges one batch of hot-label mutations, compacts when
//! the overlay reaches its budget, evicts the hot label's relations, and
//! re-queries one hot/cold query pair over the overlay.

use crate::digest::Digest;
use crate::query::{
    check_pinned, is_sorted_subset, parse, record_layers, traced_request, LayerCounts, NODES,
};
use crate::run::{repeated_setup, timed_phase, Args, Outcome, Sample, SETUPS};
use crate::stats::{median, percentile, SplitMix};
use crate::trace::Tracer;
use crpq_core::{eval_tuples, eval_tuples_with_catalog, RelationCatalog, Semantics};
use crpq_graph::wal::{DurableGraph, EdgeMutation, SyncPolicy};
use crpq_graph::{GraphView, NodeId};
use crpq_util::storage::{StdStorage, Storage};
use crpq_util::{FxHashSet, Interner, Symbol};
use crpq_workloads::scaling::million_graph;
use std::collections::VecDeque;
use std::io;
use std::time::Instant;

/// Hot/cold query pairs per run; request `i` re-queries pair
/// `(i / 3) mod PAIRS` under semantics `i mod 3`.
const PAIRS: usize = 4;

/// Edges inserted (and as many deleted) per batch.
const BATCH_INSERTS: usize = 256;
/// Batches between compactions: the overlay budget is
/// `2 · BATCH_INSERTS · COMPACT_EVERY` mutations.
const COMPACT_EVERY: usize = 20;
/// Depth of the FIFO of inserted edges, in batches. Deletes pop the
/// oldest, so every delete hits and the edge count stays constant.
const FIFO_BATCHES: usize = 2 * COMPACT_EVERY;
/// Requests whose answers enter the pinned run digest.
const DIGEST_REQUESTS: usize = 24;
/// Reopens of the store at the end of the run; `recover` is their median.
const REOPENS: usize = 5;
/// Flush policy: `apply_batch` appends the batch's records as one write
/// and fsyncs once before it returns (group commit).
const POLICY: SyncPolicy = SyncPolicy::Always;

/// Write-path I/O totals.
#[derive(Clone, Copy, Default)]
struct IoCounts {
    append_ns: u64,
    appended_bytes: usize,
    syncs: usize,
    sync_ns: u64,
}

impl IoCounts {
    fn since(self, before: IoCounts) -> IoCounts {
        IoCounts {
            append_ns: self.append_ns - before.append_ns,
            appended_bytes: self.appended_bytes - before.appended_bytes,
            syncs: self.syncs - before.syncs,
            sync_ns: self.sync_ns - before.sync_ns,
        }
    }

    fn add(&mut self, d: IoCounts) {
        self.append_ns += d.append_ns;
        self.appended_bytes += d.appended_bytes;
        self.syncs += d.syncs;
        self.sync_ns += d.sync_ns;
    }
}

/// `Storage` over the real filesystem that counts and times appends and
/// syncs.
#[derive(Default)]
struct TimedStorage {
    inner: StdStorage,
    io: IoCounts,
}

impl Storage for TimedStorage {
    fn read(&mut self, path: &str) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn exists(&mut self, path: &str) -> bool {
        self.inner.exists(path)
    }
    fn write(&mut self, path: &str, data: &[u8]) -> io::Result<()> {
        self.inner.write(path, data)
    }
    fn append(&mut self, path: &str, data: &[u8]) -> io::Result<()> {
        let t0 = Instant::now();
        let r = self.inner.append(path, data);
        self.io.append_ns += t0.elapsed().as_nanos() as u64;
        self.io.appended_bytes += data.len();
        r
    }
    fn sync(&mut self, path: &str) -> io::Result<()> {
        let t0 = Instant::now();
        let r = self.inner.sync(path);
        self.io.sync_ns += t0.elapsed().as_nanos() as u64;
        self.io.syncs += 1;
        r
    }
    fn rename(&mut self, from: &str, to: &str) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn truncate(&mut self, path: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(path, len)
    }
    fn remove(&mut self, path: &str) -> io::Result<()> {
        self.inner.remove(path)
    }
}

struct Paths {
    dir: String,
    snapshot: String,
    wal: String,
}

impl Paths {
    fn new(workload: &str) -> Paths {
        let dir = format!("{}/{workload}-{}", crate::OUT_DIR, std::process::id());
        Paths {
            snapshot: format!("{dir}/graph.snap"),
            wal: format!("{dir}/graph.wal"),
            dir,
        }
    }
}

/// The run's live state.
struct Store {
    db: DurableGraph<TimedStorage>,
    catalog: RelationCatalog,
    pairs: Vec<[String; 2]>,
    alphabet: Interner,
    rng: SplitMix,
    hot: Symbol,
    /// Inserted edges, oldest first: the next deletes.
    fifo: VecDeque<(NodeId, NodeId)>,
    edges: usize,
}

/// The seeded hot/cold pairs. A hot query is the anchored chain
/// `x -[l0 (lb+lc)*]-> y, y -[lc (ld+le)*]-> z` whose first atom mentions
/// the churned label `l0`; its cold partner has the same shape over
/// `l8…l15`, a footprint disjoint from every hot query's (`l0…l7`).
fn query_pairs(seed: u64) -> Vec<[String; 2]> {
    let mut rng = SplitMix(seed ^ 0x3C_6E_F3_72_FE_94_F8_2B);
    let mut pick = |pool: std::ops::Range<usize>| {
        let mut labels: Vec<usize> = pool.collect();
        rng.shuffle(&mut labels);
        labels
    };
    let chain = |a: usize, l: &[usize]| {
        format!(
            "(x, y) <- x -[l{a} (l{}+l{})*]-> y, y -[l{} (l{}+l{})*]-> z",
            l[0], l[1], l[1], l[2], l[3]
        )
    };
    (0..PAIRS)
        .map(|_| {
            let hot = pick(1..8);
            let cold = pick(8..16);
            [chain(0, &hot), chain(cold[4], &cold)]
        })
        .collect()
}

/// Builds the graph, creates the store, pre-fills the FIFO, compacts so
/// the pre-filled edges sit in the checkpoint, and warms the catalog.
fn setup(seed: u64, paths: &Paths) -> Store {
    let _ = std::fs::remove_dir_all(&paths.dir);
    std::fs::create_dir_all(&paths.dir).expect("create the store directory");
    let base = million_graph(NODES, seed);
    let mut db = DurableGraph::create_with(
        TimedStorage::default(),
        &paths.snapshot,
        &paths.wal,
        base,
        POLICY,
    )
    .expect("create the durable store");
    db.set_compact_threshold(2 * BATCH_INSERTS * COMPACT_EVERY);
    let hot = db.label("l0").expect("l0 is a base label");
    let mut rng = SplitMix(seed ^ 0xD1_B5_4A_32_D1_92_ED_03);
    let mut fifo = VecDeque::new();
    let prefill = fresh_inserts(&db, hot, &mut rng, &mut fifo, FIFO_BATCHES * BATCH_INSERTS);
    let changed = db.apply_batch(&prefill).expect("pre-fill batch");
    assert_eq!(changed, prefill.len(), "pre-fill inserts are fresh");
    db.compact().expect("compact after pre-fill");
    let mut catalog = RelationCatalog::new(db.graph());
    let mut alphabet = db.graph().alphabet().clone();
    let pairs = query_pairs(seed);
    for text in pairs.iter().flatten() {
        let q = parse(text, &mut alphabet);
        eval_tuples_with_catalog(&q, db.graph(), Semantics::Standard, &mut catalog);
    }
    let edges = db.graph().num_edges();
    Store {
        db,
        catalog,
        pairs,
        alphabet,
        rng,
        hot,
        fifo,
        edges,
    }
}

/// `count` inserts of hot-label edges absent from the graph and from each
/// other, queued on the FIFO.
fn fresh_inserts(
    db: &DurableGraph<TimedStorage>,
    hot: Symbol,
    rng: &mut SplitMix,
    fifo: &mut VecDeque<(NodeId, NodeId)>,
    count: usize,
) -> Vec<EdgeMutation> {
    let g = db.graph();
    let n = g.num_nodes();
    let mut seen = FxHashSet::default();
    let mut batch = Vec::with_capacity(count);
    while batch.len() < count {
        let (u, v) = (NodeId(rng.below(n) as u32), NodeId(rng.below(n) as u32));
        if g.has_edge(u, hot, v) || !seen.insert((u, v)) {
            continue;
        }
        fifo.push_back((u, v));
        batch.push(EdgeMutation::Insert { u, label: hot, v });
    }
    batch
}

/// The next request's batch: fresh inserts, then deletes of the oldest
/// inserted edges.
fn next_batch(store: &mut Store) -> Vec<EdgeMutation> {
    let hot = store.hot;
    let deletes: Vec<EdgeMutation> = (0..BATCH_INSERTS)
        .map(|_| {
            let (u, v) = store.fifo.pop_front().expect("FIFO holds earlier inserts");
            EdgeMutation::Delete { u, label: hot, v }
        })
        .collect();
    let mut batch = fresh_inserts(
        &store.db,
        hot,
        &mut store.rng,
        &mut store.fifo,
        BATCH_INSERTS,
    );
    batch.extend(deletes);
    batch
}

/// Per-layer totals over the traced requests, and the run's write
/// latencies and compaction count.
#[derive(Default)]
struct Counts {
    query: LayerCounts,
    batches: usize,
    mutations: usize,
    delete_hits: usize,
    compactions: usize,
    compact_ns: u64,
    overlay_edges: usize,
    evictions: usize,
    io: IoCounts,
    traced_write_ms: Vec<f64>,
    /// Every request's acknowledged-write ms.
    write_ms: Vec<f64>,
    /// Compactions over every request.
    all_compactions: usize,
}

/// One request. Returns its ms, the ms until the hot query's answer over
/// the written graph was complete, whether it compacted, and the answers
/// of the hot and cold queries.
fn request(
    i: usize,
    store: &mut Store,
    tracer: &mut Tracer,
    counts: &mut Counts,
    out: &mut Outcome,
) -> (f64, f64, bool, [Vec<Vec<NodeId>>; 2]) {
    let batch = next_batch(store);
    let sem = Semantics::ALL[i % 3];
    let traced = tracer.enabled();
    let io0 = store.db.storage_mut().io;
    tracer.enter("request");
    let t0 = Instant::now();
    let changed = match tracer.span("wal.apply_batch", || store.db.apply_batch(&batch)) {
        Ok(c) => c,
        Err(e) => {
            out.fail(format!("request {i}: apply_batch: {e}"));
            0
        }
    };
    let ack = t0.elapsed().as_secs_f64() * 1e3;
    if changed != batch.len() {
        out.fail(format!(
            "request {i}: batch changed {changed} of {} edges",
            batch.len()
        ));
    }
    let overlay = store.db.graph().delta().len();
    let tc = Instant::now();
    let compacted = tracer.span("delta.compact", || store.db.maybe_compact());
    let compact_ns = tc.elapsed().as_nanos() as u64;
    let evicted = tracer.span("catalog.invalidate", || {
        store.catalog.invalidate_label(store.hot)
    });
    let mut fresh_ms = 0.0;
    let pair = &store.pairs[(i / 3) % PAIRS];
    let alphabet = &mut store.alphabet;
    let answers = pair.each_ref().map(|text| {
        let answer = if traced {
            traced_request(
                tracer,
                text,
                alphabet,
                store.db.graph(),
                sem,
                &mut store.catalog,
                &mut counts.query,
            )
        } else {
            let q = parse(text, alphabet);
            eval_tuples_with_catalog(&q, store.db.graph(), sem, &mut store.catalog)
        };
        if fresh_ms == 0.0 {
            fresh_ms = t0.elapsed().as_secs_f64() * 1e3;
        }
        answer
    });
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    tracer.exit();

    let compacted = match compacted {
        Ok(c) => c,
        Err(e) => {
            out.fail(format!("request {i}: compaction: {e}"));
            false
        }
    };
    if store.db.graph().num_edges() != store.edges {
        out.fail(format!(
            "request {i}: edge count drifted to {} from {}",
            store.db.graph().num_edges(),
            store.edges
        ));
    }
    counts.write_ms.push(ack);
    counts.all_compactions += usize::from(compacted);
    if traced {
        counts.batches += 1;
        counts.mutations += batch.len();
        counts.delete_hits += changed.saturating_sub(BATCH_INSERTS);
        counts.overlay_edges += overlay;
        counts.evictions += evicted;
        counts.io.add(store.db.storage_mut().io.since(io0));
        counts.traced_write_ms.push(ack);
        if compacted {
            counts.compactions += 1;
            counts.compact_ns += compact_ns;
        }
    }
    (ms, fresh_ms, compacted, answers)
}

/// Applies untimed batches until the log holds `COMPACT_EVERY - 1`
/// batches, so every run recovers the same number of records.
fn top_up(store: &mut Store, out: &mut Outcome) {
    let target = (COMPACT_EVERY - 1) * 2 * BATCH_INSERTS;
    while store.db.records_since_checkpoint() != target {
        let batch = next_batch(store);
        if let Err(e) = store
            .db
            .apply_batch(&batch)
            .and_then(|_| store.db.maybe_compact())
        {
            out.fail(format!("top-up batch: {e}"));
            return;
        }
    }
}

/// Reopens the store `REOPENS` times; checks replay count and edge count
/// and returns the median reopen time in s and the replayed count.
fn recover(store: Store, paths: &Paths, out: &mut Outcome) -> (f64, usize) {
    let records = store.db.records_since_checkpoint();
    let edges = store.db.graph().num_edges();
    drop(store);
    let mut times = Vec::new();
    let mut replayed = 0;
    for _ in 0..REOPENS {
        let t0 = Instant::now();
        match DurableGraph::open(&paths.snapshot, &paths.wal, POLICY) {
            Ok((db, report)) => {
                times.push(t0.elapsed().as_secs_f64());
                replayed = report.replayed;
                if report.replayed != records {
                    out.fail(format!(
                        "recovery replayed {} of {records} records",
                        report.replayed
                    ));
                }
                if db.graph().num_edges() != edges {
                    out.fail(format!(
                        "recovered {} edges, live {edges}",
                        db.graph().num_edges()
                    ));
                }
            }
            Err(e) => out.fail(format!("reopen: {e}")),
        }
    }
    (
        if times.is_empty() {
            f64::NAN
        } else {
            median(&times)
        },
        replayed,
    )
}

/// Final answers through the catalog equal a fresh evaluation, and obey
/// `q-inj ⊆ a-inj ⊆ st`.
fn check_final(store: &mut Store, out: &mut Outcome) {
    for text in store.pairs.iter().flatten() {
        let q = parse(text, &mut store.alphabet);
        let g = store.db.graph();
        let answers: Vec<Vec<Vec<NodeId>>> = Semantics::ALL
            .iter()
            .map(|&sem| {
                let cached = eval_tuples_with_catalog(&q, g, sem, &mut store.catalog);
                if cached != eval_tuples(&q, g, sem) {
                    out.fail(format!(
                        "{text} under {sem}: catalog answers differ from a fresh evaluation"
                    ));
                }
                cached
            })
            .collect();
        for w in answers.windows(2) {
            if !is_sorted_subset(&w[1], &w[0]) {
                out.fail(format!("{text}: semantics hierarchy violated"));
            }
        }
    }
}

pub fn durable_churn(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let paths = Paths::new(&args.workload);
    let mut store = repeated_setup(&mut out, 1, || setup(args.seed, &paths));
    let mut counts = Counts::default();
    let mut requests = 0usize;

    timed_phase(args, tracer, &mut out, |_, tracer, out| {
        let (ms, fresh_ms, compacted, answers) =
            request(requests, &mut store, tracer, &mut counts, out);
        if requests < DIGEST_REQUESTS {
            for (k, a) in answers.iter().enumerate() {
                out.digest.fold((2 * requests + k) as u64, Digest::of(a));
            }
        }
        requests += 1;
        // The first answer over the written graph: the hot query's. A
        // traced run's pairs are consecutive requests, so every compaction
        // (one per COMPACT_EVERY batches, an even number) would land on the
        // traced half: such pairs stay out of the `trace.*` means.
        Sample {
            ms,
            first_ms: fresh_ms,
            uneven: compacted,
        }
    });
    out.attempted = requests;
    out.notes.push(format!(
        "write_ms p50={:.3} p90={:.3} (acknowledged batch: apply + append + one fsync)",
        percentile(&counts.write_ms, 50.0),
        percentile(&counts.write_ms, 90.0)
    ));
    out.notes.push(format!(
        "{} compactions in {requests} requests (one per {COMPACT_EVERY} batches)",
        counts.all_compactions
    ));

    if args.trace {
        record_write_layers(&mut out, tracer, &mut counts, &store);
    }
    check_final(&mut store, &mut out);
    top_up(&mut store, &mut out);
    let (recover_s, replayed) = recover(store, &paths, &mut out);
    out.notes.push(format!(
        "recover_s={recover_s:.6} (median of {REOPENS} reopens replaying {replayed} records)"
    ));
    out.layers.insert("wal.recover_ms".into(), recover_s * 1e3);
    out.layers.insert("wal.replayed".into(), replayed as f64);
    repeated_setup(&mut out, SETUPS - 1, || setup(args.seed, &paths));
    let _ = std::fs::remove_dir_all(&paths.dir);
    check_pinned(args, &mut out);
    out
}

fn record_write_layers(out: &mut Outcome, tracer: &Tracer, c: &mut Counts, store: &Store) {
    c.query.requests = out.traced_request_ms.len();
    c.query.relation_bytes = store.catalog.relation_bytes() * c.query.requests;
    c.query.scratch_bytes = store.catalog.peak_scratch_bytes();
    record_layers(out, tracer, &c.query);
    let io = c.io;
    let b = c.batches.max(1) as f64;
    let per = |total: f64, n: usize| if n == 0 { 0.0 } else { total / n as f64 };
    let l = &mut out.layers;
    l.insert("catalog.evictions".into(), c.evictions as f64);
    l.insert("wal.append_ms".into(), io.append_ns as f64 / b / 1e6);
    l.insert(
        "wal.fsync_ms".into(),
        per(io.sync_ns as f64, io.syncs) / 1e6,
    );
    l.insert("wal.fsyncs".into(), io.syncs as f64);
    l.insert(
        "wal.bytes_per_mutation".into(),
        per(io.appended_bytes as f64, c.mutations),
    );
    l.insert(
        "wal.write_ms_p50".into(),
        percentile(&c.traced_write_ms, 50.0),
    );
    l.insert(
        "wal.write_ms_p90".into(),
        percentile(&c.traced_write_ms, 90.0),
    );
    l.insert("delta.compactions".into(), c.compactions as f64);
    l.insert(
        "delta.compact_ms".into(),
        per(c.compact_ns as f64, c.compactions) / 1e6,
    );
    l.insert("delta.overlay_edges".into(), c.overlay_edges as f64 / b);
    l.insert(
        "delta.delete_hit_ratio".into(),
        per(c.delete_hits as f64, c.batches * BATCH_INSERTS),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(text: &str) -> Vec<usize> {
        text.split(|c: char| !c.is_ascii_alphanumeric())
            .filter_map(|w| w.strip_prefix('l')?.parse().ok())
            .collect()
    }

    #[test]
    fn cold_footprints_avoid_the_churned_label_range() {
        for [hot, cold] in query_pairs(9) {
            let (h, c) = (labels(&hot), labels(&cold));
            assert_eq!(h[0], 0, "{hot}");
            assert!(h.iter().all(|&l| l < 8), "{hot}");
            assert!(c.iter().all(|&l| l >= 8), "{cold}");
        }
        assert_eq!(query_pairs(9), query_pairs(9));
    }
}
