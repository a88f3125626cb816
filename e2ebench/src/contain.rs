//! `contain_grid`: each request is one sweep of the Figure-1 grid — nine
//! class pairs × contained / not contained × three semantics = 54
//! `contain` calls at one fixed size — in an order the seed shuffles.

use crate::digest::Digest;
use crate::query::check_pinned;
use crate::report::{PAIR_NAMES, SEM_NAMES};
use crate::run::{repeated_setup, timed_phase, Args, Outcome, Sample};
use crate::stats::SplitMix;
use crate::trace::Tracer;
use crpq_containment::{contain, recommended_limits, Outcome as Verdict, Semantics};
use crpq_query::enumerate_expansions;
use crpq_util::Interner;
use crpq_workloads::figure1::{instance, ClassPair, ContainmentInstance};
use std::ops::ControlFlow;
use std::time::Instant;

/// Size parameter of every Figure-1 family.
const SIZE: usize = 5;

/// One grid cell: an instance (by index) under one semantics.
struct Cell {
    instance: usize,
    sem: usize,
    /// Span name: `contain.<pair>.<semantics>`.
    span: String,
}

/// The 18 instances, in `ClassPair::ALL` × [contained, not contained]
/// order.
fn instances() -> Vec<ContainmentInstance> {
    let mut alphabet = Interner::new();
    ClassPair::ALL
        .iter()
        .flat_map(|&pair| [true, false].map(|c| (pair, c)))
        .map(|(pair, contained)| instance(pair, SIZE, contained, &mut alphabet))
        .collect()
}

fn cells() -> Vec<Cell> {
    (0..18)
        .flat_map(|instance| {
            (0..3).map(move |sem| Cell {
                instance,
                sem,
                span: format!("contain.{}.{}", PAIR_NAMES[instance / 2], SEM_NAMES[sem]),
            })
        })
        .collect()
}

/// The verdict the instance promises under `sem`, where known.
fn expected(inst: &ContainmentInstance, sem: Semantics) -> Option<bool> {
    match sem {
        Semantics::AtomInjective => inst.expected_ainj,
        _ => Some(inst.expected),
    }
}

/// Verdict code folded into the run digest: 0 not contained, 1 contained,
/// 2 inconclusive.
fn code(v: &Verdict) -> u64 {
    match v.as_bool() {
        Some(false) => 0,
        Some(true) => 1,
        None => 2,
    }
}

pub fn contain_grid(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let insts = repeated_setup(&mut out, 1, instances);
    let cells = cells();
    let mut rng = SplitMix(args.seed ^ 0xC0_47_A1_9E_D5_11_3B_27);
    let mut verdicts: Vec<Option<u64>> = vec![None; cells.len()];
    let mut order: Vec<usize> = (0..cells.len()).collect();

    timed_phase(args, tracer, &mut out, |_, tracer, out| {
        // A traced request repeats its untraced twin's order.
        if !tracer.enabled() {
            rng.shuffle(&mut order);
            // Building the 18 instances takes tens of microseconds: one
            // more sample before every sweep spreads the set-up samples
            // over the whole run, as the requests are, instead of one
            // instant at its start.
            let t0 = Instant::now();
            drop(std::hint::black_box(instances()));
            out.setup_s.push(t0.elapsed().as_secs_f64());
        }
        let t0 = Instant::now();
        tracer.enter("request");
        for &c in &order {
            let cell = &cells[c];
            let inst = &insts[cell.instance];
            let sem = Semantics::ALL[cell.sem];
            let v = tracer.span(cell.span.as_str(), || contain(&inst.q1, &inst.q2, sem));
            out.attempted += 1;
            match (v.as_bool(), expected(inst, sem)) {
                (None, _) => out.inconclusive += 1,
                (Some(got), Some(want)) if got != want => out.fail(format!(
                    "{} n={SIZE} expected={want} under {sem}: got {got}",
                    inst.family
                )),
                _ => {}
            }
            match verdicts[c] {
                None => verdicts[c] = Some(code(&v)),
                Some(prev) if prev != code(&v) => {
                    out.fail(format!(
                        "{} under {sem}: verdict changed between sweeps",
                        inst.family
                    ));
                }
                Some(_) => {}
            }
        }
        tracer.exit();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        // The grid's 54 verdicts are one response.
        Sample::new(ms, ms)
    });
    if args.trace {
        record_layers(&mut out, tracer, &insts, &verdicts);
    }

    for (c, v) in verdicts.iter().enumerate() {
        let mut d = Digest::default();
        d.add_hash(v.expect("every cell ran"));
        out.digest.fold(c as u64, d);
    }
    out.notes.push(format!(
        "setup_s is instance construction only: {:.3} ms, median of {} samples",
        out.setup_median() * 1e3,
        out.setup_s.len()
    ));
    check_pinned(args, &mut out);
    out
}

fn record_layers(
    out: &mut Outcome,
    tracer: &Tracer,
    insts: &[ContainmentInstance],
    verdicts: &[Option<u64>],
) {
    let by = tracer.by_name();
    let n = out.traced_request_ms.len().max(1) as f64;
    let mut per_pair = [0u64; 9];
    let mut per_sem = [0u64; 3];
    for (pi, pair) in PAIR_NAMES.iter().enumerate() {
        for (si, sem) in SEM_NAMES.iter().enumerate() {
            let ns = by
                .get(&format!("contain.{pair}.{sem}"))
                .map_or(0, |s| s.self_ns);
            per_pair[pi] += ns;
            per_sem[si] += ns;
        }
    }
    for (pi, pair) in PAIR_NAMES.iter().enumerate() {
        out.layers.insert(
            format!("contain.decide_ms.{pair}"),
            per_pair[pi] as f64 / n / 1e6,
        );
    }
    for (si, sem) in SEM_NAMES.iter().enumerate() {
        out.layers.insert(
            format!("contain.decide_ms.{sem}"),
            per_sem[si] as f64 / n / 1e6,
        );
    }
    let mut counts = [0usize; 3];
    for v in verdicts.iter().flatten() {
        counts[*v as usize] += 1;
    }
    for (name, c) in ["not_contained", "contained", "inconclusive"]
        .iter()
        .zip(counts)
    {
        out.layers
            .insert(format!("contain.verdicts.{name}"), c as f64);
    }
    let expansions: usize = insts
        .iter()
        .map(|inst| {
            enumerate_expansions(&inst.q1, recommended_limits(&inst.q1), |_| {
                ControlFlow::Continue(())
            })
            .count
        })
        .sum();
    out.layers
        .insert("query.expansions".into(), expansions as f64);
}
