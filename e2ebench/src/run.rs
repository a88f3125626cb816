//! What every workload reports, and the closed request loop they share.

use crate::digest::Digest;
use crate::host::Reference;
use crate::stats::{mean, median, percentile, MIN_REQUESTS};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Untraced/traced request pairs a traced run issues at least.
const MIN_TRACED_REQUESTS: usize = 30;

/// Seconds of timed phase between two samples of the host reference
/// kernel.
const REF_EVERY_S: f64 = 0.2;

#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// Untraced request latencies, in ms.
    pub request_ms: Vec<f64>,
    /// Untraced time from a request's start to its first response, in ms.
    pub first_ms: Vec<f64>,
    /// Wall clock of the timed phase, in s.
    pub elapsed_s: f64,
    pub attempted: usize,
    /// Errors, wrong answers and failed checks.
    pub failed: usize,
    /// Containment verdicts that were neither contained nor not contained.
    pub inconclusive: usize,
    /// Digest of the run's answers, checked against the pinned one.
    pub digest: Digest,
    /// Workload-specific figures printed beside the result.
    pub notes: Vec<String>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// Latencies of the traced requests (traced runs only), in ms.
    pub traced_request_ms: Vec<f64>,
    /// (untraced, traced) latencies of the pairs whose two halves did
    /// comparable work (traced runs only), in ms.
    pub pairs_ms: Vec<(f64, f64)>,
    /// Host reference kernel samples taken between requests, in ms.
    pub ref_ms: Vec<f64>,
}

impl Outcome {
    pub fn fail(&mut self, why: impl AsRef<str>) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("check failed: {}", why.as_ref());
        }
    }

    pub fn setup_median(&self) -> f64 {
        median(&self.setup_s)
    }

    pub fn end_to_end(&self) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        m.insert("setup_s".into(), self.setup_median());
        m.insert("request_ms_p90".into(), percentile(&self.request_ms, 90.0));
        m.insert(
            "requests_per_s".into(),
            self.request_ms.len() as f64 / self.elapsed_s,
        );
        m.insert("first_ms_p90".into(), percentile(&self.first_ms, 90.0));
        m
    }

    /// Adds `trace.*`: traced and untraced mean request time over the
    /// comparable pairs, their gap, and the request spans' own
    /// (unattributed) self time per traced request.
    pub fn record_trace_totals(&mut self, tracer: &Tracer) {
        let untraced = mean(&self.pairs_ms.iter().map(|p| p.0).collect::<Vec<_>>());
        let traced = mean(&self.pairs_ms.iter().map(|p| p.1).collect::<Vec<_>>());
        let n = self.traced_request_ms.len().max(1) as f64;
        let unattributed = tracer
            .by_name()
            .get("request")
            .map_or(0.0, |s| s.self_ns as f64 / 1e6 / n);
        self.layers.insert("trace.request_ms".into(), traced);
        self.layers
            .insert("trace.untraced_request_ms".into(), untraced);
        self.layers
            .insert("trace.overhead_ms".into(), traced - untraced);
        self.layers
            .insert("trace.unattributed_ms".into(), unattributed);
    }
}

/// Set-up repetitions per run; `setup_s` is their median. The timed phase
/// runs on the state of the first one, built once in a fresh process as a
/// server would build it; the others run after the timed phase and its
/// checks, once that state is dropped, so no discarded state shares the
/// heap with the measured one.
pub const SETUPS: usize = 6;

/// Runs `setup` `reps` times, recording each duration in `out.setup_s`,
/// and keeps the last result (the previous one is dropped first, so at
/// most one lives at a time).
pub fn repeated_setup<T>(out: &mut Outcome, reps: usize, mut setup: impl FnMut() -> T) -> T {
    let mut kept = None;
    for _ in 0..reps {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(setup());
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }
    kept.expect("at least one set-up")
}

/// One request's latency and time to its first response, in ms.
pub struct Sample {
    pub ms: f64,
    pub first_ms: f64,
    /// The request did work its twin in a traced pair does not do (a
    /// compaction), so the pair is left out of the `trace.*` means.
    pub uneven: bool,
}

impl Sample {
    pub fn new(ms: f64, first_ms: f64) -> Sample {
        Sample {
            ms,
            first_ms,
            uneven: false,
        }
    }
}

/// The timed phase, closed loop with one client.
///
/// Untraced: `request(i, …)` for i = 0, 1, … until `args.seconds` have
/// passed and at least [`MIN_REQUESTS`] completed. Traced: pairs of an
/// untraced and a traced request, both given `i`, back to back, so host
/// drift cancels in their gap (the tracing overhead); a workload whose
/// requests change its state (`durable_churn`) runs two consecutive
/// requests of its stream instead of one input twice. The request
/// opens its own `request` span; the tracer is enabled only for the
/// traced half of each pair.
///
/// Every [`REF_EVERY_S`] the host reference kernel is sampled between two
/// requests; the sampling time is left out of `out.elapsed_s`.
pub fn timed_phase(
    args: &Args,
    tracer: &mut Tracer,
    out: &mut Outcome,
    mut request: impl FnMut(usize, &mut Tracer, &mut Outcome) -> Sample,
) {
    let t0 = Instant::now();
    let min = if args.trace {
        MIN_TRACED_REQUESTS
    } else {
        MIN_REQUESTS
    };
    let reference = Reference::new();
    let mut ref_s = 0.0;
    let mut next_ref = 0.0;
    let mut i = 0;
    while i < min || t0.elapsed().as_secs_f64() - ref_s < args.seconds {
        let now = t0.elapsed().as_secs_f64() - ref_s;
        if now >= next_ref {
            let r0 = Instant::now();
            out.ref_ms.push(reference.sample_ms());
            ref_s += r0.elapsed().as_secs_f64();
            next_ref = now + REF_EVERY_S;
        }
        let s = request(i, tracer, out);
        out.request_ms.push(s.ms);
        out.first_ms.push(s.first_ms);
        if args.trace {
            tracer.set_enabled(true);
            tracer.set_request(i);
            let t = request(i, tracer, out);
            tracer.set_enabled(false);
            out.traced_request_ms.push(t.ms);
            if !(s.uneven || t.uneven) {
                out.pairs_ms.push((s.ms, t.ms));
            }
        }
        i += 1;
    }
    out.elapsed_s = t0.elapsed().as_secs_f64() - ref_s;
}

/// Writes the spans next to the run's other outputs and returns the path.
pub fn write_spans(tracer: &Tracer, args: &Args) -> std::io::Result<String> {
    std::fs::create_dir_all(crate::OUT_DIR)?;
    let path = format!(
        "{}/trace-{}-seed{}.tsv",
        crate::OUT_DIR,
        args.workload,
        args.seed
    );
    std::fs::write(&path, tracer.to_tsv())?;
    Ok(path)
}
