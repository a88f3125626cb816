//! `cold_stream` and `warm_join`: the seeded query log over the million
//! family, evaluated under `st` / `a-inj` / `q-inj` in equal thirds.

use crate::digest::{self, Digest};
use crate::report::SEM_NAMES;
use crate::run::{repeated_setup, timed_phase, Args, Outcome, Sample, SETUPS};
use crate::stats::SplitMix;
use crate::trace::Tracer;
use crpq_core::{eval_stream, eval_tuples, eval_tuples_with_catalog, RelationCatalog, Semantics};
use crpq_graph::{GraphDb, GraphView, NodeId};
use crpq_query::{parse_crpq, Crpq};
use crpq_util::Interner;
use crpq_workloads::scaling::{million_graph, MILLION_LABELS};
use std::sync::Arc;
use std::time::Instant;

/// Nodes of the million-family graph (4 edges per node, 16 labels).
pub const NODES: usize = 50_000;
/// Distinct queries in the log; each runs under all three semantics.
const LOG_QUERIES: usize = 8;

/// A log entry: the query's index and the semantics it runs under.
/// Request `i` runs entry `i mod 3·LOG_QUERIES`, so semantics rotate
/// `st`, `a-inj`, `q-inj` in equal thirds.
fn entry(i: usize) -> (usize, Semantics) {
    let e = i % (3 * LOG_QUERIES);
    (e / 3, Semantics::ALL[e % 3])
}

fn entries() -> usize {
    3 * LOG_QUERIES
}

/// The seeded log: anchored two-atom chains
/// `x -[la (lb+lc)*]-> y, y -[lc (ld+le)*]-> z` over five distinct labels.
fn query_log(seed: u64) -> Vec<String> {
    let mut rng = SplitMix(seed ^ 0x51_7C_C1_B7_27_22_0A_95);
    (0..LOG_QUERIES)
        .map(|_| {
            let mut labels: Vec<usize> = (0..MILLION_LABELS).collect();
            rng.shuffle(&mut labels);
            let [a, b, c, d, e] = [labels[0], labels[1], labels[2], labels[3], labels[4]];
            format!("(x, y) <- x -[l{a} (l{b}+l{c})*]-> y, y -[l{c} (l{d}+l{e})*]-> z")
        })
        .collect()
}

fn graph(seed: u64) -> GraphDb {
    million_graph(NODES, seed)
}

pub fn parse(text: &str, alphabet: &mut Interner) -> Crpq {
    parse_crpq(text, alphabet).expect("log query text parses")
}

fn sem_name(sem: Semantics) -> &'static str {
    SEM_NAMES[Semantics::ALL
        .iter()
        .position(|&s| s == sem)
        .expect("known semantics")]
}

/// Per-layer totals of a traced phase.
#[derive(Default)]
pub struct LayerCounts {
    pub requests: usize,
    pub variants: usize,
    pub tuples: usize,
    pub hits: usize,
    pub misses: usize,
    pub relation_bytes: usize,
    pub scratch_bytes: usize,
}

/// The traced request path: parse → ε-free variants → NFA compile →
/// `get_or_materialize` per atom → `eval_tuples_with_catalog` on the now
/// all-hits catalog. Returns the answers.
pub fn traced_request<G: GraphView>(
    tracer: &mut Tracer,
    text: &str,
    alphabet: &mut Interner,
    g: &G,
    sem: Semantics,
    catalog: &mut RelationCatalog,
    counts: &mut LayerCounts,
) -> Vec<Vec<NodeId>> {
    let (hits0, misses0) = (catalog.hits(), catalog.misses());
    let q = tracer.span("query.parse", || parse(text, alphabet));
    let variants = tracer.span("query.variants", || q.epsilon_free_union());
    let nfas = tracer.span("automata.compile", || {
        variants
            .iter()
            .flat_map(|v| v.atoms.iter().map(|a| a.nfa()))
            .collect::<Vec<_>>()
    });
    for nfa in &nfas {
        tracer.span("rpq.materialise", || catalog.get_or_materialize(g, nfa));
    }
    let tuples = tracer.span(format!("eval.join.{}", sem_name(sem)), || {
        eval_tuples_with_catalog(&q, g, sem, catalog)
    });
    counts.variants += variants.len();
    counts.tuples += tuples.len();
    counts.hits += catalog.hits() - hits0;
    counts.misses += catalog.misses() - misses0;
    tuples
}

pub fn record_layers(out: &mut Outcome, tracer: &Tracer, c: &LayerCounts) {
    let by = tracer.by_name();
    let n = c.requests.max(1) as f64;
    let self_ns = |name: &str| by.get(name).map_or(0.0, |s| s.self_ns as f64);
    let request_ns = by.get("request").map_or(0.0, |s| s.total_ns as f64);
    let l = &mut out.layers;
    l.insert("query.parse_us".into(), self_ns("query.parse") / n / 1e3);
    l.insert("query.variants".into(), c.variants as f64 / n);
    l.insert(
        "query.variants_us".into(),
        self_ns("query.variants") / n / 1e3,
    );
    l.insert(
        "automata.compile_us".into(),
        self_ns("automata.compile") / n / 1e3,
    );
    l.insert("catalog.hits".into(), c.hits as f64);
    l.insert("catalog.misses".into(), c.misses as f64);
    l.insert(
        "catalog.relation_mb".into(),
        c.relation_bytes as f64 / n / 1e6,
    );
    l.insert("catalog.scratch_kb".into(), c.scratch_bytes as f64 / 1e3);
    let mat = self_ns("rpq.materialise");
    let per_miss = if c.misses == 0 {
        0.0
    } else {
        mat / c.misses as f64 / 1e6
    };
    l.insert("rpq.materialise_ms".into(), per_miss);
    l.insert("rpq.materialise_share".into(), mat / request_ns.max(1.0));
    for sem in SEM_NAMES {
        let ms = by
            .get(&format!("eval.join.{sem}"))
            .map_or(0.0, |s| s.self_ns as f64 / s.count.max(1) as f64 / 1e6);
        l.insert(format!("eval.join_ms.{sem}"), ms);
    }
    l.insert("eval.tuples".into(), c.tuples as f64 / n);
}

/// The reference answers of every log entry (fresh `eval_tuples` per
/// entry), checked for `q-inj ⊆ a-inj ⊆ st` per query; returns the
/// per-entry digests.
fn reference(g: &GraphDb, log: &[String], out: &mut Outcome) -> Vec<Digest> {
    let mut alphabet = g.alphabet().clone();
    let mut digests = Vec::with_capacity(entries());
    for (qi, text) in log.iter().enumerate() {
        let q = parse(text, &mut alphabet);
        let answers: Vec<Vec<Vec<NodeId>>> = Semantics::ALL
            .iter()
            .map(|&sem| eval_tuples(&q, g, sem))
            .collect();
        for w in answers.windows(2) {
            if !is_sorted_subset(&w[1], &w[0]) {
                out.fail(format!("query {qi}: semantics hierarchy violated"));
            }
        }
        digests.extend(answers.iter().map(|a| Digest::of(a)));
    }
    digests
}

/// Whether `a` ⊆ `b`, both sorted and free of duplicates.
pub fn is_sorted_subset(a: &[Vec<NodeId>], b: &[Vec<NodeId>]) -> bool {
    let mut j = 0;
    a.iter().all(|t| {
        while j < b.len() && b[j] < *t {
            j += 1;
        }
        j < b.len() && b[j] == *t
    })
}

/// Checks every request's answer digest against the reference of its
/// entry and the run digest against the pinned one.
fn check_answers(
    args: &Args,
    g: &GraphDb,
    log: &[String],
    observed: &[(usize, Digest)],
    out: &mut Outcome,
) {
    let reference = reference(g, log, out);
    for &(i, d) in observed {
        let e = i % entries();
        if d != reference[e] {
            out.fail(format!(
                "request {i} (query {}, {}): answer digest {d:?} != reference {:?}",
                e / 3,
                entry(i).1,
                reference[e]
            ));
        }
    }
    for (e, &d) in reference.iter().enumerate() {
        out.digest.fold(e as u64, d);
    }
    check_pinned(args, out);
}

pub fn check_pinned(args: &Args, out: &mut Outcome) {
    let d = out.digest;
    let status = match digest::pinned(&args.workload, args.seed) {
        Some(p) if p != d => {
            out.fail(format!("run digest {d:?} != pinned {p:?}"));
            "DIFFERS from the pinned one"
        }
        Some(_) => "matches the pinned one",
        None => "not pinned for this seed",
    };
    out.notes.push(format!(
        "answer digest {} {} {:#018x} {status}",
        args.seed, d.count, d.hash
    ));
}

/// `cold_stream`: each request parses its query text and drains
/// `eval_stream`, which materialises every relation in a fresh catalog.
/// The traced request runs the same query through the decomposed path on
/// a fresh catalog instead of the stream.
pub fn cold_stream(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let g = repeated_setup(&mut out, 1, || Arc::new(graph(args.seed)));
    let log = query_log(args.seed);
    let mut alphabet = g.alphabet().clone();
    let mut observed = Vec::new();
    let mut counts = LayerCounts::default();

    timed_phase(args, tracer, &mut out, |i, tracer, _| {
        let (qi, sem) = entry(i);
        let t0 = Instant::now();
        if tracer.enabled() {
            tracer.enter("request");
            let mut catalog = RelationCatalog::new(&*g);
            let tuples = traced_request(
                tracer,
                &log[qi],
                &mut alphabet,
                &*g,
                sem,
                &mut catalog,
                &mut counts,
            );
            tracer.exit();
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            counts.requests += 1;
            counts.relation_bytes += catalog.relation_bytes();
            counts.scratch_bytes = counts.scratch_bytes.max(catalog.peak_scratch_bytes());
            observed.push((i, Digest::of(&tuples)));
            return Sample::new(ms, ms);
        }
        let q = parse(&log[qi], &mut alphabet);
        let mut stream = eval_stream(&q, &g, sem);
        let mut d = Digest::default();
        if let Some(t) = stream.next() {
            d.add(&t);
        }
        let first = t0.elapsed();
        for t in stream {
            d.add(&t);
        }
        let total = t0.elapsed();
        observed.push((i, d));
        Sample::new(
            total.as_secs_f64() * 1e3,
            // An empty answer's first response is its completion.
            if d.count == 0 { total } else { first }.as_secs_f64() * 1e3,
        )
    });
    out.attempted = observed.len();
    if args.trace {
        record_layers(&mut out, tracer, &counts);
    }
    check_answers(args, &g, &log, &observed, &mut out);
    drop(g);
    repeated_setup(&mut out, SETUPS - 1, || graph(args.seed));
    out
}

fn warm_setup(seed: u64, log: &[String]) -> (GraphDb, RelationCatalog) {
    let g = graph(seed);
    let mut alphabet = g.alphabet().clone();
    let mut catalog = RelationCatalog::new(&g);
    for text in log {
        let q = parse(text, &mut alphabet);
        eval_tuples_with_catalog(&q, &g, Semantics::Standard, &mut catalog);
    }
    (g, catalog)
}

/// `warm_join`: setup warms one catalog over every log query; each
/// request parses and runs `eval_tuples_with_catalog`, which must make no
/// catalog miss.
pub fn warm_join(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let log = query_log(args.seed);
    let (g, mut catalog) = repeated_setup(&mut out, 1, || warm_setup(args.seed, &log));
    let mut alphabet = g.alphabet().clone();
    let mut observed = Vec::new();
    let mut counts = LayerCounts::default();

    let misses0 = catalog.misses();
    timed_phase(args, tracer, &mut out, |i, tracer, _| {
        let (qi, sem) = entry(i);
        let t0 = Instant::now();
        tracer.enter("request");
        let tuples = if tracer.enabled() {
            counts.requests += 1;
            traced_request(
                tracer,
                &log[qi],
                &mut alphabet,
                &g,
                sem,
                &mut catalog,
                &mut counts,
            )
        } else {
            let q = parse(&log[qi], &mut alphabet);
            eval_tuples_with_catalog(&q, &g, sem, &mut catalog)
        };
        tracer.exit();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        observed.push((i, Digest::of(&tuples)));
        // The whole answer set arrives at once: the first response is the
        // last.
        Sample::new(ms, ms)
    });
    out.attempted = observed.len();
    if catalog.misses() != misses0 {
        let m = catalog.misses() - misses0;
        out.fail(format!("{m} catalog misses in the timed phase"));
    }
    if args.trace {
        counts.relation_bytes = catalog.relation_bytes() * counts.requests;
        counts.scratch_bytes = catalog.peak_scratch_bytes();
        record_layers(&mut out, tracer, &counts);
    }
    check_answers(args, &g, &log, &observed, &mut out);
    drop((g, catalog));
    repeated_setup(&mut out, SETUPS - 1, || warm_setup(args.seed, &log));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semantics_take_equal_thirds() {
        let mut counts = [0usize; 3];
        for i in 0..entries() * 5 {
            let (qi, sem) = entry(i);
            assert!(qi < LOG_QUERIES);
            counts[Semantics::ALL.iter().position(|&s| s == sem).unwrap()] += 1;
        }
        assert_eq!(counts, [LOG_QUERIES * 5; 3]);
    }

    #[test]
    fn log_is_seeded() {
        assert_eq!(query_log(3), query_log(3));
        assert_ne!(query_log(3), query_log(4));
        let mut alphabet = graph_alphabet();
        for text in query_log(3) {
            parse(&text, &mut alphabet);
        }
    }

    fn graph_alphabet() -> Interner {
        let mut a = Interner::new();
        for l in 0..MILLION_LABELS {
            a.intern(&format!("l{l}"));
        }
        a
    }

    #[test]
    fn sorted_subset() {
        let t = |x: u32| vec![NodeId(x)];
        assert!(is_sorted_subset(&[t(1), t(3)], &[t(1), t(2), t(3)]));
        assert!(is_sorted_subset(&[], &[t(1)]));
        assert!(!is_sorted_subset(&[t(4)], &[t(1), t(2), t(3)]));
        assert!(!is_sorted_subset(&[t(2)], &[t(1), t(3)]));
    }
}
