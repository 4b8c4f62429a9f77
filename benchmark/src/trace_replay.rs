//! Per-layer trace of the replay workloads.
//!
//! `ReplayEngine::run` is a ten-line loop over `StreamSession`; the traced
//! pass is that loop written out here with a timer around each call into a
//! layer, and changes no program code:
//!
//! ```text
//! replay.pass
//! ├─ sim.step                  StreamSession::step, source time taken out
//! │  └─ swf.next               the SwfJobs iterator, wrapped by TimedSource
//! ├─ sched.select              select_streaming            (heuristic heads)
//! ├─ core.obs.encode           ObsEncoder::encode_jobs_extend  (agent head)
//! └─ nn.infer.forward          Agent::score                    (agent head)
//! ```
//!
//! The traced pass must reproduce the end-to-end passes' `StreamMetrics`,
//! decision count and peak queue bit for bit, or the row says `correct:
//! false`. This file is the only place the benchmark touches
//! `StreamSession`, `select_streaming`, `ObsEncoder` and `Agent::score`
//! directly; retarget it when those entry points move.

use std::cell::Cell;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use serde_json::json;

use rlsched_replay::open_swf;
use rlsched_rl::ActorScratch;
use rlsched_sched::select_streaming;
use rlsched_sim::StreamSession;
use rlsched_swf::Job;

use crate::estimate::best_min;
use crate::replay::{fingerprint, replay_once, synthesize, ReplayIdentity, ReplaySpec, TRACE_FILE};
use crate::spans::{LayerId, Recorder};
use crate::{hygiene, measure_passes, per_layer_row, Outcome, RunArgs};

/// Time spent inside the job source, shared between the iterator adapter
/// (owned by the session) and the loop that reads it back.
#[derive(Default)]
struct SourceClock {
    busy_ns: Cell<u64>,
    jobs: Cell<u64>,
}

/// Times every `next()` of the wrapped job iterator.
struct TimedSource<I> {
    inner: I,
    clock: Rc<SourceClock>,
}

impl<I: Iterator<Item = Job>> Iterator for TimedSource<I> {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        let t = Instant::now();
        let job = self.inner.next();
        let c = &self.clock;
        c.busy_ns
            .set(c.busy_ns.get() + t.elapsed().as_nanos() as u64);
        c.jobs.set(c.jobs.get() + u64::from(job.is_some()));
        job
    }
}

/// One traced pass: its spans and what it measured besides them.
struct TracedPass {
    rec: Recorder,
    layers: Layers,
    wall_s: f64,
    identity: ReplayIdentity,
    jobs: u64,
    depth_sum: u64,
}

struct Layers {
    step: LayerId,
    /// Source time that fell inside `step` spans: `step`'s child.
    source_in_step: LayerId,
    /// All source time, wherever it fell.
    source: LayerId,
    select: LayerId,
    encode: LayerId,
    forward: LayerId,
}

/// `ReplayEngine::run`, written out with timers.
fn traced_pass(spec: &ReplaySpec, pass: u32) -> Result<TracedPass, String> {
    let mut rec = Recorder::new(pass);
    let step = rec.layer("sim.step", None);
    let layers = Layers {
        step,
        source_in_step: rec.layer("swf.next (inside sim.step)", Some(step)),
        source: rec.layer("swf.next", None),
        select: rec.layer("sched.select", None),
        encode: rec.layer("core.obs.encode", None),
        forward: rec.layer("nn.infer.forward", None),
    };
    let agent = spec.fresh_agent();
    let src = open_swf(TRACE_FILE).map_err(|e| e.to_string())?;
    let clock = Rc::new(SourceClock::default());
    let source = TimedSource {
        inner: src.jobs,
        clock: Rc::clone(&clock),
    };
    let (mut obs, mut mask, mut scratch) = (Vec::new(), Vec::new(), ActorScratch::new());

    let t_pass = Instant::now();
    // `new` already pulls from the source; that time is swf's, not sim's,
    // and is picked up through the clock like every later pull.
    let mut session =
        StreamSession::new(source, src.max_procs, spec.sim()).map_err(|e| e.to_string())?;
    let (mut decisions, mut depth_sum) = (0u64, 0u64);
    while !session.done() {
        let depth = session.queue_len();
        depth_sum += depth as u64;
        // Each timestamp closes one span and opens the next, so recorder
        // bookkeeping lands inside a span instead of between two.
        let t0 = Instant::now();
        let (pos, t_decided) = match (spec.heuristic(), &agent) {
            (Some(kind), _) => {
                let pos = select_streaming(kind, session.waiting())
                    .expect("decision points always have waiting jobs");
                let t1 = Instant::now();
                rec.span(layers.select, t0, t1, decisions);
                (pos, t1)
            }
            (None, Some(agent)) => {
                // StreamDecider::decide for a policy without a packed
                // scorer (the kernel network has none): encode, score, clamp.
                obs.clear();
                mask.clear();
                agent.encoder().encode_jobs_extend(
                    session.free_procs(),
                    session.total_procs(),
                    depth,
                    session.waiting(),
                    &mut obs,
                    &mut mask,
                );
                let t1 = Instant::now();
                rec.span(layers.encode, t0, t1, decisions);
                let action = agent.score(&obs, &mask, &mut scratch);
                let t2 = Instant::now();
                rec.span(layers.forward, t1, t2, decisions);
                (action.min(depth.saturating_sub(1)), t2)
            }
            (None, None) => unreachable!("agent head comes with an agent"),
        };
        let source_before = clock.busy_ns.get();
        session.step(pos).map_err(|e| e.to_string())?;
        rec.span(layers.step, t_decided, Instant::now(), decisions);
        rec.add_busy(
            layers.source_in_step,
            clock.busy_ns.get() - source_before,
            0,
        );
        decisions += 1;
    }
    let wall_s = t_pass.elapsed().as_secs_f64();
    // All source time, including the pulls `new` made outside any step.
    rec.add_busy(layers.source, clock.busy_ns.get(), clock.jobs.get());

    let identity = ReplayIdentity {
        decisions,
        peak_queue: session.peak_queue_depth(),
        metrics: fingerprint(session.metrics()),
        swf_error: src.errors.take().map(|e| e.to_string()),
    };
    Ok(TracedPass {
        rec,
        layers,
        wall_s,
        identity,
        jobs: clock.jobs.get(),
        depth_sum,
    })
}

/// `trace <replay workload>`.
pub fn trace(spec: &ReplaySpec, args: RunArgs) -> Result<Outcome, String> {
    synthesize(spec, args.seed)?;
    let third = args.seconds / 3.0;

    // Reference passes through the real entry point, tracing off.
    let plain = measure_passes(
        third,
        |_| replay_once(spec, TRACE_FILE, spec.jobs),
        |p| p.stat.wall_s,
    )?;
    let plain_wall = best_min(&plain.iter().map(|p| p.stat.wall_s).collect::<Vec<_>>());

    // Traced passes; the least disturbed one is reported.
    let traced = measure_passes(third, |i| traced_pass(spec, i as u32), |p| p.wall_s)?;
    let identical = traced.iter().all(|p| p.identity == plain[0].identity);
    let replayed: u64 = traced.iter().map(|p| p.jobs).sum();
    let attempted = (traced.len() * spec.jobs) as u64;
    let p = traced
        .iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("at least three traced passes ran");

    let (rec, l) = (&p.rec, &p.layers);
    let share = |busy_s: f64| busy_s / p.wall_s;
    let swf = share(rec.busy_s(l.source));
    let sim = share(rec.self_s(l.step));
    let sched = share(rec.busy_s(l.select));
    let encode = share(rec.busy_s(l.encode));
    let forward = share(rec.busy_s(l.forward));
    let covered = swf + sim + sched + encode + forward;
    let decisions = p.identity.decisions as f64;
    let depth_mean = p.depth_sum as f64 / decisions;
    let metrics = per_layer_row(&[
        ("swf.share", swf),
        ("swf.jobs", p.jobs as f64),
        ("sim.share", sim),
        ("sim.decisions", decisions),
        ("sim.backfilled_share", 1.0 - decisions / p.jobs as f64),
        ("sim.queue_depth_mean", depth_mean),
        ("sim.queue_depth_peak", p.identity.peak_queue as f64),
        ("sched.share", sched),
        // A heuristic head scans the whole queue; the agent's window is
        // the encoder's business, not sched's.
        (
            "sched.jobs_scanned_per_decision",
            if spec.heuristic().is_some() {
                depth_mean
            } else {
                0.0
            },
        ),
        ("core.obs.share", encode),
        ("nn.infer.share", forward),
        ("replay.loop_self_share", 1.0 - covered),
        ("trace.covered_share", covered),
        ("trace.overhead_share", p.wall_s / plain_wall - 1.0),
        ("trace.pass_wall_s", p.wall_s),
    ]);

    let spans_file = Path::new(hygiene::BENCH_DIR)
        .join("work")
        .join(format!("spans-{}-seed{}.jsonl", spec.name, args.seed));
    rec.write_samples(&spans_file)
        .map_err(|e| format!("{}: {e}", spans_file.display()))?;
    let info = json!({
        "workload": spec.name, "seed": args.seed,
        "layers": rec.table(),
        "sampled_spans": rec.sample_count(), "spans_file": spans_file.display().to_string(),
        "untraced_wall_s": plain.iter().map(|p| p.stat.wall_s).collect::<Vec<_>>(),
        "traced_wall_s": traced.iter().map(|p| p.wall_s).collect::<Vec<_>>(),
        "traced_equals_end_to_end": identical,
    });
    Ok(Outcome {
        correct: identical && replayed == attempted && p.identity.swf_error.is_none(),
        attempted,
        failed: attempted.abs_diff(replayed),
        metrics,
        info,
    })
}
