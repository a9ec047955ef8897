//! `serve_flat` and `serve_cascade`: open-loop Poisson single-example
//! traffic against a sharded `Server` booted from an `MNE1` artifact.
//!
//! One process generates the load with two threads: a sender that submits
//! each request at its scheduled time and a collector that waits for the
//! answers. The schedule and the payloads come from the seed before a
//! phase starts, and each request's latency is timed from the time it was
//! due, so a late generator or a stalled server shows in the latency.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mn_ensemble::engine::{calibrate, Confidence, EnginePlan, ExecPolicy};
use mn_ensemble::serve::{BatchingConfig, PendingPrediction, ServeError, Server};
use mn_ensemble::{EnsembleManifest, EnsembleMember};
use mn_nn::arch::{Architecture, ConvBlockSpec, InputSpec};
use mn_nn::{LayerNode, Network};
use mn_tensor::Tensor;
use mothernets::TrainedEnsemble;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers::{self, EngineCurve};
use crate::report::Outcome;
use crate::spec::{self, ServeSpec};
use crate::stats::{median, quantile};
use crate::trace::{Span, Tracer};

/// Queue depth at which a phase stops sending: the backlog is already
/// growing, and stopping well below the server's 1024-request bound keeps
/// an over-rate ladder step from turning into `Overloaded` refusals.
const ABORT_DEPTH: usize = 512;
/// Shares of `--seconds` that the parts of an untraced serving run take:
/// each of the three low-rate slices, the high rate, and each ladder
/// probe (about six probes, some tried twice).
const LOW_SLICE: f64 = 0.08;
const HIGH: f64 = 0.12;
const PROBE: f64 = 0.08;
/// Warm-up bursts of `shards × max_batch` requests at set-up.
const WARMUP_BURSTS: usize = 4;
/// A phase polls `Server::queue_depth` at this interval.
const POLL: Duration = Duration::from_millis(2);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Flat,
    Cascade,
}

/// SplitMix64 mixing of the seed argument into independent streams.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// The served ensembles are fixed: the seed argument makes the traffic
// (arrival schedule and payloads), not the model under load.

/// The five Table-1 VGGs, member `i` initialised from seed `i`.
fn flat_members() -> Vec<EnsembleMember> {
    crate::train::table1(10)
        .iter()
        .enumerate()
        .map(|(i, arch)| EnsembleMember::new(arch.name.clone(), Network::seeded(arch, i as u64)))
        .collect()
}

/// The 8-member deep-trunk ensemble of the repository's serving bench
/// (same seeds): clones of one conv base whose classifier heads diverge
/// by multiplicative noise, so the gate member can disagree with the full
/// ensemble on hard examples.
fn cascade_members() -> Vec<EnsembleMember> {
    let arch = Architecture::plain(
        "cascaded",
        InputSpec::new(3, 8, 8),
        10,
        vec![
            ConvBlockSpec::repeated(3, 8, 2),
            ConvBlockSpec::repeated(3, 8, 2),
        ],
        vec![16],
    );
    let base = Network::seeded(&arch, 78);
    (0..8u64)
        .map(|s| {
            let mut net = base.clone();
            let mut rng = StdRng::seed_from_u64(900 + s);
            match net.nodes_mut().last_mut() {
                Some(LayerNode::Dense(l)) => {
                    for w in l.weight.value.data_mut() {
                        *w *= 1.0 + rng.gen_range(-0.15..0.15f32);
                    }
                }
                _ => unreachable!("a plain architecture ends in a dense head"),
            }
            EnsembleMember::new(format!("c{s}"), net)
        })
        .collect()
}

/// `n` payloads `[3, 8, 8]`. With `hard_every > 0`, example `i` is hard
/// (near-zero input, near-uniform logits) when `i % hard_every == 3` and
/// easy (saturating input) otherwise; with 0 every example is `N(0, 1)`.
fn payloads(n: usize, hard_every: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let scale = match hard_every {
                0 => 1.0,
                h if i % h == 3 => 0.05,
                _ => 6.0,
            };
            Tensor::randn([3, 8, 8], scale, &mut rng)
        })
        .collect()
}

/// Payloads `[3, 8, 8]` stacked into one batch `[n, 3, 8, 8]`.
pub fn stack(xs: &[Tensor]) -> Tensor {
    let mut data = Vec::with_capacity(xs.len() * 192);
    for x in xs {
        data.extend_from_slice(x.data());
    }
    Tensor::from_vec([xs.len(), 3, 8, 8], data)
}

/// A running server and what set-up produced for it.
struct Booted {
    plan: Arc<EnginePlan>,
    policy: ExecPolicy,
    server: Server,
    artifact: Vec<u8>,
    warmup_requests: u64,
}

/// Set-up: encode the members as an `MNE1` artifact, boot the plan from
/// it, calibrate the cascade (cascade only), start the server and warm it
/// up.
fn boot(
    members: Vec<EnsembleMember>,
    kind: Kind,
    spec: &ServeSpec,
    pool: &[Tensor],
    tracer: &mut Tracer,
) -> Booted {
    let artifact = tracer.span("artifact.encode", || {
        EnginePlan::new(members, 64)
            .expect("ensemble builds")
            .to_artifact_bytes(&EnsembleManifest::default())
    });
    let plan = tracer
        .span("artifact.boot", || {
            EnginePlan::from_artifact_bytes(&artifact, 64)
        })
        .expect("artifact boots")
        .into_shared();
    let policy = match kind {
        Kind::Flat => ExecPolicy::Auto,
        Kind::Cascade => {
            // Calibrated on a fixed batch, like the ensemble itself.
            let cal = stack(&payloads(128, spec.hard_every, 41));
            let mut session = plan.session();
            let c = tracer.span("engine.calibrate", || {
                calibrate(
                    &mut session,
                    &cal,
                    Confidence::MaxProb,
                    spec.calibration_agreement,
                )
            });
            ExecPolicy::Cascade(c.policy)
        }
    };
    let server = Server::builder(Arc::clone(&plan))
        .shards(spec.shards)
        .policy(policy)
        .start();
    // Warm-up: bursts of one full micro-batch per shard, submitted back to
    // back, so that every shard's workspaces have held the largest batch
    // before anything is measured. The resident set then no longer
    // depends on how early traffic happened to coalesce.
    let id = tracer.begin("serve.warmup", None);
    let client = server.client();
    let burst = spec.shards * BatchingConfig::default().max_batch;
    for b in 0..WARMUP_BURSTS {
        let pending: Vec<_> = (0..burst)
            .map(|i| {
                let x = &pool[(b * burst + i) % pool.len()];
                client.submit(x).expect("warm-up submit")
            })
            .collect();
        for p in pending {
            p.wait().expect("warm-up answer");
        }
    }
    tracer.end(id);
    Booted {
        plan,
        policy,
        server,
        artifact,
        warmup_requests: (WARMUP_BURSTS * burst) as u64,
    }
}

/// What a served answer must equal, per payload.
struct Refs {
    /// Full-ensemble average row (bitwise).
    full: Vec<Vec<f32>>,
    /// Gate-member row (cascade only).
    gate: Vec<Vec<f32>>,
    full_label: Vec<usize>,
}

/// Direct, unbatched engine evaluation of every payload.
fn references(plan: &Arc<EnginePlan>, kind: Kind, pool: &[Tensor]) -> Refs {
    let mut session = plan.session();
    let mut refs = Refs {
        full: Vec::new(),
        gate: Vec::new(),
        full_label: Vec::new(),
    };
    for x in pool {
        let x1 = x.reshape([1, 3, 8, 8]);
        let avg = session.predict_average(&x1);
        refs.full_label.push(mn_tensor::ops::argmax_rows(&avg)[0]);
        refs.full.push(avg.data().to_vec());
        if kind == Kind::Cascade {
            refs.gate
                .push(session.predict(&x1).probs()[0].data().to_vec());
        }
    }
    refs
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One request in flight from the sender to the collector.
struct Sent {
    req: u64,
    payload: usize,
    due: Instant,
    sent: Instant,
    submit: Duration,
    pending: Result<PendingPrediction, ServeError>,
}

/// Everything one open-loop phase measured.
#[derive(Default)]
struct Phase {
    rate: f64,
    /// Latency from due time, ms, of answered requests.
    latency_ms: Vec<f64>,
    /// Micro-batch size each answered request was served in.
    batch: Vec<usize>,
    submit_us: Vec<f64>,
    late_ms: Vec<f64>,
    depth: Vec<usize>,
    sent: u64,
    answered: u64,
    overloaded: u64,
    deadline: u64,
    worker_gone: u64,
    other_errors: u64,
    wrong_rows: u64,
    label_mismatch: u64,
    escalated: u64,
    aborted: bool,
    /// Whether the sender ran under `SCHED_FIFO`.
    realtime: bool,
    spans: Vec<Span>,
}

impl Phase {
    fn failed(&self) -> u64 {
        self.sent - self.answered
    }

    fn p(&self, q: f64) -> f64 {
        quantile(&self.latency_ms, q)
    }

    /// Whether the queue grew over the phase: mean depth over its last
    /// quarter exceeds that over its first quarter by a whole micro-batch,
    /// or the phase stopped sending at `ABORT_DEPTH`.
    fn backlog(&self) -> bool {
        let q = self.depth.len() / 4;
        if self.aborted {
            return true;
        }
        if q == 0 {
            return false;
        }
        let mean = |d: &[usize]| d.iter().sum::<usize>() as f64 / d.len() as f64;
        let max_batch = BatchingConfig::default().max_batch as f64;
        mean(&self.depth[self.depth.len() - q..]) > mean(&self.depth[..q]) + max_batch
    }

    /// The slices of one rate as one phase: samples and counts pooled.
    fn pooled(parts: Vec<Phase>) -> Phase {
        let mut all = Phase::default();
        for p in parts {
            all.rate = p.rate;
            all.latency_ms.extend(p.latency_ms);
            all.batch.extend(p.batch);
            all.submit_us.extend(p.submit_us);
            all.late_ms.extend(p.late_ms);
            all.depth.extend(p.depth);
            all.sent += p.sent;
            all.answered += p.answered;
            all.overloaded += p.overloaded;
            all.deadline += p.deadline;
            all.worker_gone += p.worker_gone;
            all.other_errors += p.other_errors;
            all.wrong_rows += p.wrong_rows;
            all.label_mismatch += p.label_mismatch;
            all.escalated += p.escalated;
            all.aborted |= p.aborted;
            all.realtime |= p.realtime;
            all.spans.extend(p.spans);
        }
        all
    }

    fn meets(&self, p99_limit_ms: f64) -> bool {
        self.failed() == 0 && !self.backlog() && self.p(0.99) <= p99_limit_ms
    }
}

/// Runs one open-loop phase at `rate` req/s for `seconds`.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    server: &Server,
    kind: Kind,
    pool: &[Tensor],
    refs: &Refs,
    rate: f64,
    seconds: f64,
    seed: u64,
    epoch: Option<Instant>,
) -> Phase {
    // The whole schedule exists before the first request is sent.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut offsets = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.gen_range(0.0..1.0f64)).ln() / rate;
        if t >= seconds {
            break;
        }
        offsets.push(t);
    }
    let client = server.client();
    let (tx, rx) = mpsc::channel::<Sent>();
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let realtime = realtime_priority();
            let mut s = Phase::default();
            let start = Instant::now() + Duration::from_millis(5);
            let mut last_poll = start;
            for (i, &off) in offsets.iter().enumerate() {
                // Request i carries payload i mod pool size, so every 7th
                // cascade request is hard (the pool size is a multiple of 7).
                let payload = i % pool.len();
                let due = start + Duration::from_secs_f64(off);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let pending = client.submit(&pool[payload]);
                let submit = sent.elapsed();
                s.late_ms.push((sent - due).as_secs_f64() * 1e3);
                s.submit_us.push(submit.as_secs_f64() * 1e6);
                s.sent += 1;
                tx.send(Sent {
                    req: i as u64,
                    payload,
                    due,
                    sent,
                    submit,
                    pending,
                })
                .expect("the collector outlives the sender");
                if sent - last_poll >= POLL {
                    last_poll = sent;
                    let depth = server.queue_depth();
                    s.depth.push(depth);
                    if depth >= ABORT_DEPTH {
                        s.aborted = true;
                        break;
                    }
                }
            }
            (s, realtime)
        });
        // The collector runs at the sender's priority too: drained
        // promptly, answers do not pile up in reply channels, so the
        // generator's own memory stays out of `peak_rss_mb`.
        let collector = scope.spawn(move || {
            realtime_priority();
            collect(rx, kind, refs, epoch)
        });
        let (s, realtime) = sender.join().expect("sender thread");
        let mut phase = collector.join().expect("collector thread");
        phase.rate = rate;
        phase.realtime = realtime;
        phase.late_ms = s.late_ms;
        phase.submit_us = s.submit_us;
        phase.sent = s.sent;
        phase.depth = s.depth;
        phase.aborted = s.aborted;
        phase
    })
}

/// Puts the calling thread (the sender or the collector) under
/// `SCHED_FIFO`, so that its wake-ups are not queued behind the server's
/// threads on a small machine. Both threads block between requests, so
/// they take little CPU from the server. Returns whether the kernel allowed it; without it
/// the generator runs at normal priority and reports its lateness all
/// the same.
fn realtime_priority() -> bool {
    #[repr(C)]
    struct SchedParam {
        priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_FIFO: i32 = 1;
    let param = SchedParam { priority: 10 };
    // SAFETY: pid 0 names the calling thread, `param` is a valid
    // `struct sched_param` that outlives the call, and the call changes
    // only this thread's scheduling policy.
    unsafe { sched_setscheduler(0, SCHED_FIFO, &param) == 0 }
}

/// The collector: waits for each answer in send order and checks it.
fn collect(rx: mpsc::Receiver<Sent>, kind: Kind, refs: &Refs, epoch: Option<Instant>) -> Phase {
    let mut c = Phase::default();
    for s in rx {
        let answer = s.pending.and_then(PendingPrediction::wait);
        let pred = match answer {
            Ok(p) => p,
            Err(ServeError::Overloaded { .. }) => {
                c.overloaded += 1;
                continue;
            }
            Err(ServeError::DeadlineExceeded) => {
                c.deadline += 1;
                continue;
            }
            Err(ServeError::WorkerGone) => {
                c.worker_gone += 1;
                continue;
            }
            Err(_) => {
                c.other_errors += 1;
                continue;
            }
        };
        c.answered += 1;
        let done = s.sent + pred.latency;
        c.latency_ms.push((done - s.due).as_secs_f64() * 1e3);
        c.batch.push(pred.batch);
        let full = &refs.full[s.payload];
        let ok = match kind {
            Kind::Flat => same_bits(&pred.probs, full) && !pred.degraded,
            Kind::Cascade => {
                let gate = &refs.gate[s.payload];
                if pred.escalated {
                    same_bits(&pred.probs, full)
                } else {
                    same_bits(&pred.probs, gate)
                }
            }
        };
        c.wrong_rows += u64::from(!ok);
        c.label_mismatch += u64::from(pred.label != refs.full_label[s.payload]);
        c.escalated += u64::from(pred.escalated);
        if let Some(epoch) = epoch {
            let at = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64();
            let parent = c.spans.len();
            c.spans.push(Span {
                name: "serve.request".into(),
                start: at(s.due),
                end: at(done),
                parent: None,
                req: Some(s.req),
            });
            c.spans.push(Span {
                name: "serve.submit".into(),
                start: at(s.sent),
                end: at(s.sent + s.submit),
                parent: Some(parent),
                req: Some(s.req),
            });
        }
    }
    c
}

fn print_phase(label: &str, p: &Phase) {
    println!(
        "phase {label:<12} rate={:>7.0}/s sent={:>6} answered={:>6} failed={} p50={:.3}ms p99={:.3}ms batch_mean={:.1} late_p99={:.3}ms backlog={} rt={}",
        p.rate,
        p.sent,
        p.answered,
        p.failed(),
        p.p(0.5),
        p.p(0.99),
        p.batch.iter().sum::<usize>() as f64 / p.batch.len().max(1) as f64,
        quantile(&p.late_ms, 0.99),
        p.backlog(),
        p.realtime
    );
}

/// Correctness and tally over every phase of a run.
fn account(phases: &[&Phase], kind: Kind, out: &mut Outcome) {
    let sum = |f: fn(&Phase) -> u64| phases.iter().map(|p| f(p)).sum::<u64>();
    let sent = sum(|p| p.sent);
    let answered = sum(|p| p.answered);
    let failed = sent - answered;
    out.attempted += sent;
    out.failed += failed;
    out.metric(
        "fail_pct",
        failed as f64 * 100.0 / sent.max(1) as f64,
        "%",
        Some(sent as usize),
    );
    out.metric(
        "label_mismatch_pct",
        sum(|p| p.label_mismatch) as f64 * 100.0 / answered.max(1) as f64,
        "%",
        Some(answered as usize),
    );
    let wrong = sum(|p| p.wrong_rows);
    let what = match kind {
        Kind::Flat => "every answered row is bitwise the direct predict_average row",
        Kind::Cascade => "every answered row is bitwise the gate row (early exit) or the full average (escalated)",
    };
    out.gate(
        &format!("{what} ({wrong} of {answered} differ)"),
        wrong == 0,
    );
    if kind == Kind::Cascade {
        out.metric(
            "served_early_exit_pct",
            (answered - sum(|p| p.escalated)) as f64 * 100.0 / answered.max(1) as f64,
            "%",
            Some(answered as usize),
        );
    }
    if kind == Kind::Flat {
        out.gate(
            "serve_flat answers carry the full-ensemble label",
            sum(|p| p.label_mismatch) == 0,
        );
    }
}

/// Shuts the server down and checks its own tallies against ours.
fn shutdown(
    booted: Booted,
    phases: &[&Phase],
    out: &mut Outcome,
) -> (Arc<EnginePlan>, ExecPolicy, Vec<u8>) {
    let report = booted.server.shutdown();
    let answered: u64 = phases.iter().map(|p| p.answered).sum();
    let overloaded: u64 = phases.iter().map(|p| p.overloaded).sum();
    out.gate(
        "server counted every answered request",
        report.aggregate.requests == answered + booted.warmup_requests,
    );
    out.gate(
        "server counted every Overloaded refusal",
        report.rejected == overloaded,
    );
    out.gate("no worker panicked", report.worker_panics == 0);
    (booted.plan, booted.policy, booted.artifact)
}

/// The ladder: a bisection over the rates of `spec.ladder_rps` (sorted,
/// about 5% apart) for the highest one met, assuming that a rate met
/// means every lower rate is met too. A rate that misses the p99 limit,
/// fails a request or grows a backlog is tried once more before it counts
/// as missed. Returns the highest rate met, or 0 if none was.
#[allow(clippy::too_many_arguments)]
fn ladder(
    server: &Server,
    kind: Kind,
    pool: &[Tensor],
    refs: &Refs,
    spec: &ServeSpec,
    step_s: f64,
    seed: u64,
    phases: &mut Vec<Phase>,
) -> f64 {
    let rates = &spec.ladder_rps;
    // Every rung below `lo` was met; every rung from `hi` on was missed.
    let (mut lo, mut hi) = (0usize, rates.len());
    while lo < hi {
        let i = (lo + hi) / 2;
        let mut met = false;
        for attempt in 0..2u64 {
            let p = run_phase(
                server,
                kind,
                pool,
                refs,
                rates[i],
                step_s,
                mix(seed, 1000 + 2 * i as u64 + attempt),
                None,
            );
            print_phase(&format!("ladder{i}.{attempt}"), &p);
            met = p.meets(spec.p99_limit_ms);
            // Only the step's counts are needed from here on; its samples
            // go, so that the generator's own memory does not grow with
            // the ladder and blur `peak_rss_mb`.
            phases.push(Phase {
                latency_ms: Vec::new(),
                batch: Vec::new(),
                submit_us: Vec::new(),
                late_ms: Vec::new(),
                depth: Vec::new(),
                spans: Vec::new(),
                ..p
            });
            if met {
                break;
            }
        }
        if met {
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    lo.checked_sub(1).map_or(0.0, |i| rates[i])
}

pub fn run(workload: &str, seed: u64, seconds: f64, tracer: &mut Tracer, out: &mut Outcome) {
    let kind = if workload == "serve_cascade" {
        Kind::Cascade
    } else {
        Kind::Flat
    };
    let spec = spec::serve_spec(workload);
    let pool = payloads(spec.pool, spec.hard_every, mix(seed, 1));
    let members = || match kind {
        Kind::Flat => flat_members(),
        Kind::Cascade => cascade_members(),
    };

    let setup = |tracer: &mut Tracer| {
        let t = Instant::now();
        let id = tracer.begin("setup", None);
        let m = tracer.span("setup.members", members);
        let booted = boot(m, kind, &spec, &pool, tracer);
        tracer.end(id);
        (booted, t.elapsed().as_secs_f64())
    };
    // The measured server comes from the first set-up. The other set-ups
    // only time set-up for `setup_s`, and run after the measured phases so
    // that what they leave resident stays out of `peak_rss_mb`.
    let (booted, first) = setup(tracer);
    let refs = references(&booted.plan, kind, &pool);
    if tracer.on() {
        traced(
            booted, kind, &spec, &pool, &refs, seed, seconds, tracer, out, true,
        );
        crate::train::tiny_records(seed, tracer, out);
    } else {
        untraced(booted, kind, &spec, &pool, &refs, seed, seconds, out);
    }
    let mut setups = vec![first];
    for _ in 1..spec.setup_repeats {
        let (booted, secs) = setup(tracer);
        booted.server.shutdown();
        setups.push(secs);
    }
    out.metric("setup_s", median(&setups), "s", Some(setups.len()));
}

/// An untraced serving run: the fixed rates and the ladder.
#[allow(clippy::too_many_arguments)]
fn untraced(
    booted: Booted,
    kind: Kind,
    spec: &ServeSpec,
    pool: &[Tensor],
    refs: &Refs,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) {
    // The low rate runs in three slices spread over the run (before and
    // after the high rate, and after the ladder); p50_ms_low is the median
    // of the slices' p50s, so one slow stretch of the machine does not
    // set it.
    let low_slice = |i: u64| {
        let p = run_phase(
            &booted.server,
            kind,
            pool,
            refs,
            spec.low_rps,
            LOW_SLICE * seconds,
            mix(seed, 20 + i),
            None,
        );
        print_phase(&format!("low{i}"), &p);
        p
    };
    let mut slices = vec![low_slice(0)];
    // Peak memory to boot the server, warm it up and serve light load.
    // Under heavy load the peak also holds whatever thread stacks the C
    // library has cached for the threads the engine spawns per call,
    // which varies by several MB from run to run.
    out.metric("peak_rss_mb", crate::report::peak_rss_mb(), "MB", None);
    let high = run_phase(
        &booted.server,
        kind,
        pool,
        refs,
        spec.high_rps,
        HIGH * seconds,
        mix(seed, 3),
        None,
    );
    print_phase("high", &high);
    slices.push(low_slice(1));
    let mut steps = Vec::new();
    let max_rate = ladder(
        &booted.server,
        kind,
        pool,
        refs,
        spec,
        PROBE * seconds,
        seed,
        &mut steps,
    );
    slices.push(low_slice(2));
    let slice_p50: Vec<f64> = slices.iter().map(|p| p.p(0.5)).collect();
    let low = Phase::pooled(slices);

    for (name, p) in [("low", &low), ("high", &high)] {
        let n = p.latency_ms.len();
        let p50 = if name == "low" {
            median(&slice_p50)
        } else {
            p.p(0.5)
        };
        out.metric(&format!("p50_ms_{name}"), p50, "ms", Some(n));
        out.metric(&format!("p99_ms_{name}"), p.p(0.99), "ms", Some(n));
        out.gate(
            &format!("p99_ms_{name} has at least 10 samples beyond it (n={n})"),
            n >= 1000,
        );
    }
    // The fixed rates are the ladder's lowest rungs: if the machine is too
    // slow for every ladder rate, the highest fixed rate met still counts.
    let max_rate = [(spec.low_rps, &low), (spec.high_rps, &high)]
        .into_iter()
        .filter(|(_, p)| p.meets(spec.p99_limit_ms))
        .map(|(rate, _)| rate)
        .fold(max_rate, f64::max);
    out.metric("max_rate_rps", max_rate, "1/s", Some(steps.len()));
    let late: Vec<f64> = [&low, &high]
        .iter()
        .flat_map(|p| p.late_ms.iter().copied())
        .collect();
    println!(
        "generator: late p99 {:.3} ms, max {:.3} ms over the fixed-rate phases",
        quantile(&late, 0.99),
        quantile(&late, 1.0)
    );
    let all: Vec<&Phase> = [&low, &high].into_iter().chain(steps.iter()).collect();
    account(&all, kind, out);
    shutdown(booted, &all, out);
}

/// A traced serving run: the low rate once untraced and once traced (the
/// p50 difference is the tracing overhead when `overhead` is set), the
/// high rate traced, then the engine and artifact probes on the same plan
/// and the `serve.*`/`gen.*` layers from the traced phases.
#[allow(clippy::too_many_arguments)]
fn traced(
    booted: Booted,
    kind: Kind,
    spec: &ServeSpec,
    pool: &[Tensor],
    refs: &Refs,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
    overhead: bool,
) {
    let epoch = Some(tracer.epoch());
    let dur = 0.25 * seconds;
    let plain = overhead.then(|| {
        let p = run_phase(
            &booted.server,
            kind,
            pool,
            refs,
            spec.low_rps,
            dur,
            mix(seed, 2),
            None,
        );
        print_phase("low.untraced", &p);
        p
    });
    let phase = |tracer: &mut Tracer, name: &str, rate: f64, salt: u64| {
        let id = tracer.begin(name, None);
        let p = run_phase(
            &booted.server,
            kind,
            pool,
            refs,
            rate,
            dur,
            mix(seed, salt),
            epoch,
        );
        let mut p = p;
        tracer.adopt(std::mem::take(&mut p.spans));
        tracer.end(id);
        print_phase(name, &p);
        p
    };
    let low = phase(tracer, "serve.phase.low", spec.low_rps, 2);
    let high = phase(tracer, "serve.phase.high", spec.high_rps, 3);
    if let Some(plain) = &plain {
        out.layer(
            "trace.overhead_pct",
            (low.p(0.5) - plain.p(0.5)) / plain.p(0.5) * 100.0,
            "%",
            Some(low.latency_ms.len()),
        );
    }

    let mut all: Vec<&Phase> = vec![&low, &high];
    all.extend(plain.iter());
    account(&all, kind, out);
    let depth_max = all
        .iter()
        .flat_map(|p| p.depth.iter().copied())
        .max()
        .unwrap_or(0);
    let (plan, policy, artifact) = shutdown(booted, &all, out);

    let curve: EngineCurve = layers::ensemble(&plan, policy, &artifact, pool, tracer, out);

    let submit: Vec<f64> = [&low, &high]
        .iter()
        .flat_map(|p| p.submit_us.iter().copied())
        .collect();
    let batches: Vec<f64> = high.batch.iter().map(|&b| b as f64).collect();
    let nonengine: Vec<f64> = low
        .latency_ms
        .iter()
        .zip(&low.batch)
        .map(|(&l, &b)| l - curve.at(b))
        .collect();
    let late: Vec<f64> = [&low, &high]
        .iter()
        .flat_map(|p| p.late_ms.iter().copied())
        .collect();
    let sum = |f: fn(&Phase) -> u64| all.iter().map(|p| f(p)).sum::<u64>() as f64;
    out.layer("serve.submit_us", median(&submit), "us", Some(submit.len()));
    out.layer(
        "serve.batch_mean",
        batches.iter().sum::<f64>() / batches.len().max(1) as f64,
        "count",
        Some(batches.len()),
    );
    out.layer(
        "serve.batch_p99",
        quantile(&batches, 0.99),
        "count",
        Some(batches.len()),
    );
    // Inferred, not measured: request latency at the low rate minus the
    // engine's measured predict time at that request's batch size.
    out.layer(
        "serve.nonengine_ms_p50",
        median(&nonengine),
        "ms",
        Some(nonengine.len()),
    );
    out.layer("serve.queue_depth_max", depth_max as f64, "count", None);
    out.layer("serve.overloaded", sum(|p| p.overloaded), "count", None);
    out.layer("serve.deadline_expired", sum(|p| p.deadline), "count", None);
    out.layer("serve.worker_gone", sum(|p| p.worker_gone), "count", None);
    out.layer("gen.sent", sum(|p| p.sent), "count", None);
    out.layer(
        "gen.late_p99_ms",
        quantile(&late, 0.99),
        "ms",
        Some(late.len()),
    );
    out.layer(
        "gen.late_max_ms",
        quantile(&late, 1.0),
        "ms",
        Some(late.len()),
    );
}

/// Companion probe for `train_fig5`, whose traced run must report the
/// serving layers too: the just-trained ensemble is encoded, booted and
/// served at `serve_flat`'s fixed rates, as a deployment would.
pub fn deploy_probe(trained: &TrainedEnsemble, seed: u64, tracer: &mut Tracer, out: &mut Outcome) {
    let spec = spec::serve_spec("serve_flat");
    let pool = payloads(spec.pool, 0, mix(seed, 1));
    let id = tracer.begin("deploy", None);
    let booted = boot(trained.members.clone(), Kind::Flat, &spec, &pool, tracer);
    let refs = references(&booted.plan, Kind::Flat, &pool);
    traced(
        booted,
        Kind::Flat,
        &spec,
        &pool,
        &refs,
        seed,
        8.0,
        tracer,
        out,
        false,
    );
    tracer.end(id);
}
