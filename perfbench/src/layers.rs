//! Per-layer probes for traced runs. Each times the benchmark's own calls
//! into one layer's public functions (or reads a public return value);
//! nothing inside the crates is instrumented.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mn_data::Scale;
use mn_ensemble::engine::{EnginePlan, ExecPolicy};
use mn_nn::loss::softmax_cross_entropy_ws;
use mn_nn::optim::Sgd;
use mn_nn::{LayerNode, Mode, Network};
use mn_tensor::{Tensor, Workspace};
use mothernets::{cluster_architectures, hatch, mothernet_of, Strategy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

use crate::alloc;
use crate::report::Outcome;
use crate::stats::{median, median_ms};
use crate::trace::Tracer;
use crate::train::table1;

/// Node kinds the Table-1 VGGs and the cascade ensemble are built from.
const KINDS: &[&str] = &["conv", "batchnorm", "relu", "maxpool", "flatten", "dense"];
const REPS: usize = 9;
/// Training steps before allocations are counted, so that the retained
/// workspace holds a buffer for every shape a step asks for.
const WARM_STEPS: usize = 8;
/// Batch size of every training step in `train_fig5`.
const TRAIN_BATCH: usize = 32;

/// Per-kind medians over repetitions of a per-kind time map.
fn kind_medians(reps: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    KINDS
        .iter()
        .map(|&k| {
            let xs: Vec<f64> = reps
                .iter()
                .map(|r| r.get(k).copied().unwrap_or(0.0))
                .collect();
            (k, median(&xs))
        })
        .collect()
}

fn bitwise_eq(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Workload-independent probes: data generation, clustering and hatching,
/// train-mode steps and nodes on the Table-1 VGGs, the GEMM shape table,
/// and the rayon shim's per-call cost.
pub fn run(seed: u64, tracer: &mut Tracer, out: &mut Outcome) {
    let id = tracer.begin("layers", None);
    let gen: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(mn_data::presets::cifar10_sim(Scale::Small, seed));
            t.elapsed().as_secs_f64()
        })
        .collect();
    out.layer("data.generate_s", median(&gen), "s", Some(gen.len()));

    let task = mn_data::presets::cifar10_sim(Scale::Small, seed);
    let archs = table1(task.train.num_classes());
    let tau = match Strategy::mothernets() {
        Strategy::MotherNets(m) => m.tau,
        _ => unreachable!("Strategy::mothernets() is the MotherNets strategy"),
    };
    let cluster_ms = tracer.span("core.cluster", || {
        median_ms(REPS, || {
            std::hint::black_box(cluster_architectures(&archs, tau).expect("Table-1 clusters"));
            std::hint::black_box(mothernet_of(&archs, "mother").expect("Table-1 has a MotherNet"));
        })
    });
    out.layer("core.cluster_ms", cluster_ms, "ms", Some(REPS));
    let mother = Network::seeded(&mothernet_of(&archs, "mother").expect("MotherNet"), seed);
    let hatch_ms = tracer.span("core.hatch", || {
        median_ms(REPS, || {
            for arch in &archs {
                std::hint::black_box(hatch(&mother, arch).expect("Table-1 hatches"));
            }
        })
    });
    out.layer("core.hatch_ms", hatch_ms, "ms", Some(REPS));

    let idx: Vec<usize> = (0..TRAIN_BATCH).collect();
    let batch = task.train.subset(&idx);
    tracer.span("nn.train", || train_steps(&archs, &batch, seed, out));
    tracer.span("tensor.gemm", || gemm_table(&archs, seed, out));

    let items = [1u64, 2];
    let par_ms = median_ms(200, || {
        let v: Vec<u64> = items.par_iter().map(|x| x * 2).collect();
        std::hint::black_box(v);
    });
    out.layer("rayon.par_call_us", par_ms * 1e3, "us", Some(200));
    tracer.end(id);
}

/// `train_with`-shaped steps at batch 32 on every Table-1 arch: whole
/// phases (`nn.train.*`, `nn.optim.step_ms`), the per-node walk
/// (`nn.node.*`), and allocations per steady-state step.
fn train_steps(
    archs: &[mn_nn::Architecture],
    batch: &mn_data::Dataset,
    seed: u64,
    out: &mut Outcome,
) {
    let (x, y) = (batch.images(), batch.labels());
    let mut phase = [0.0f64; 4];
    let (mut allocs, mut bytes) = (0u64, 0u64);
    let mut fwd: Vec<BTreeMap<&'static str, f64>> = vec![BTreeMap::new(); REPS];
    let mut bwd: Vec<BTreeMap<&'static str, f64>> = vec![BTreeMap::new(); REPS];
    let mut walk_matches = true;
    let mut allocs_repeat = true;
    for (i, arch) in archs.iter().enumerate() {
        let mut net = Network::seeded(arch, seed ^ i as u64);
        let mut ws = Workspace::new();
        let mut opt = Sgd::new(0.05, 0.9, 1e-4);
        let mut step = |net: &mut Network, ws: &mut Workspace, t: &mut [f64; 4]| {
            let t0 = Instant::now();
            let logits = net.forward_with(x, Mode::Train, ws);
            let t1 = Instant::now();
            let (_, grad) = softmax_cross_entropy_ws(&logits, y, ws);
            ws.release(logits);
            let t2 = Instant::now();
            net.backward_with(&grad, ws);
            ws.release(grad);
            let t3 = Instant::now();
            opt.step_network(net);
            let t4 = Instant::now();
            for (acc, (a, b)) in t.iter_mut().zip([(t0, t1), (t1, t2), (t2, t3), (t3, t4)]) {
                *acc = (b - a).as_secs_f64() * 1e3;
            }
        };
        let mut scratch = [0.0; 4];
        for _ in 0..WARM_STEPS {
            step(&mut net, &mut ws, &mut scratch);
        }
        let a = alloc::count(|| step(&mut net, &mut ws, &mut scratch));
        let b = alloc::count(|| step(&mut net, &mut ws, &mut scratch));
        let c = alloc::count(|| step(&mut net, &mut ws, &mut scratch));
        allocs_repeat &= a == b && b == c;
        allocs += a.0;
        bytes += a.1;
        let mut per_rep = Vec::new();
        for _ in 0..REPS {
            let mut t = [0.0; 4];
            step(&mut net, &mut ws, &mut t);
            per_rep.push(t);
        }
        for (p, acc) in phase.iter_mut().enumerate() {
            *acc += median(&per_rep.iter().map(|t| t[p]).collect::<Vec<_>>());
        }

        // The per-node walk: the same nodes, called one at a time.
        for r in 0..REPS {
            let want = net
                .clone()
                .forward_with(x, Mode::Train, &mut Workspace::new());
            let mut h: Option<Tensor> = None;
            for node in net.nodes_mut().iter_mut() {
                let t = Instant::now();
                let next = node.forward_ws(h.as_ref().unwrap_or(x), Mode::Train, &mut ws);
                *fwd[r].entry(node.kind()).or_default() += t.elapsed().as_secs_f64() * 1e3;
                if let Some(prev) = h.take() {
                    ws.release(prev);
                }
                h = Some(next);
            }
            let logits = h.expect("networks have nodes");
            walk_matches &= bitwise_eq(&logits, &want);
            let (_, grad) = softmax_cross_entropy_ws(&logits, y, &mut ws);
            ws.release(logits);
            let mut g: Option<Tensor> = None;
            for node in net.nodes_mut().iter_mut().rev() {
                let t = Instant::now();
                let next = node.backward_ws(g.as_ref().unwrap_or(&grad), &mut ws);
                *bwd[r].entry(node.kind()).or_default() += t.elapsed().as_secs_f64() * 1e3;
                if let Some(prev) = g.take() {
                    ws.release(prev);
                }
                g = Some(next);
            }
            ws.release(grad);
            if let Some(last) = g {
                ws.release(last);
            }
            opt.step_network(&mut net);
        }
    }
    out.layer("nn.train.forward_ms", phase[0], "ms", Some(REPS));
    out.layer("nn.train.loss_ms", phase[1], "ms", Some(REPS));
    out.layer("nn.train.backward_ms", phase[2], "ms", Some(REPS));
    out.layer("nn.optim.step_ms", phase[3], "ms", Some(REPS));
    out.layer("nn.train.step_allocs", allocs as f64, "count", None);
    out.layer("nn.train.step_alloc_bytes", bytes as f64, "bytes", None);
    for (kind, ms) in kind_medians(&fwd) {
        out.layer(&format!("nn.node.{kind}.fwd_ms"), ms, "ms", Some(REPS));
    }
    for (kind, ms) in kind_medians(&bwd) {
        out.layer(&format!("nn.node.{kind}.bwd_ms"), ms, "ms", Some(REPS));
    }
    out.gate(
        "train-mode per-node walk is bitwise Network::forward_with",
        walk_matches,
    );
    out.gate(
        "allocations per training step repeat exactly",
        allocs_repeat,
    );
}

/// One conv layer's GEMM under im2col: `[m, k] x [n, k]ᵀ` with
/// `m = batch·H·W` output positions, `n` filters, `k = C·K·K`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct ConvGeom {
    c: usize,
    h: usize,
    w: usize,
    f: usize,
    k: usize,
}

/// Every conv layer of the Table-1 VGGs (with repeats), read off a
/// batch-1 eval walk.
fn conv_geoms(archs: &[mn_nn::Architecture], seed: u64) -> Vec<(ConvGeom, Tensor)> {
    let mut out = Vec::new();
    for arch in archs {
        let net = Network::seeded(arch, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut h = Tensor::randn([1, 3, 8, 8], 1.0, &mut rng);
        let mut ws = Workspace::new();
        for node in net.nodes() {
            if let LayerNode::Conv(l) = node {
                let d = h.shape().dims();
                let wd = l.weight.value.shape().dims();
                out.push((
                    ConvGeom {
                        c: d[1],
                        h: d[2],
                        w: d[3],
                        f: wd[0],
                        k: wd[2],
                    },
                    l.weight.value.clone(),
                ));
            }
            h = node.forward_eval_ws(&h, &mut ws);
        }
    }
    out
}

/// The kernel shape table: each distinct conv GEMM shape at batch 1, 32
/// and 64, with FLOPs and bytes moved computed from tensor sizes and the
/// GFLOP/s `matmul_nt_into_ws` (the product `conv2d_forward_im2col_ws`
/// runs) achieves on it.
fn gemm_table(archs: &[mn_nn::Architecture], seed: u64, out: &mut Outcome) {
    let geoms = conv_geoms(archs, seed);
    let mut distinct: BTreeMap<ConvGeom, (usize, Tensor)> = BTreeMap::new();
    for (g, w) in geoms {
        distinct.entry(g).or_insert((0, w)).0 += 1;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ws = Workspace::new();
    println!(
        "gemm: {:>5} {:>5} {:>5} {:>3} {:>5} {:>12} {:>12} {:>9} {:>8}",
        "m", "n", "k", "b", "count", "flops", "bytes", "ms", "GFLOP/s"
    );
    for b in [1usize, 32, 64] {
        let (mut flops, mut bytes, mut secs, mut im2col_ms) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for (g, (count, weight)) in &distinct {
            let (m, n, k) = (b * g.h * g.w, g.f, g.c * g.k * g.k);
            let a = Tensor::randn([m, k], 1.0, &mut rng);
            let wmat = weight.reshape([n, k]);
            let mut c = Tensor::zeros([m, n]);
            let ms = median_ms(REPS, || {
                mn_tensor::ops::matmul_nt_into_ws(&a, &wmat, &mut c, &mut ws);
            });
            let f = 2.0 * (m * n * k) as f64;
            let by = 4.0 * (m * k + n * k + m * n) as f64;
            println!(
                "gemm: {m:>5} {n:>5} {k:>5} {b:>3} {count:>5} {f:>12} {by:>12} {ms:>9.4} {:>8.2}",
                f / (ms * 1e6)
            );
            let cnt = *count as f64;
            flops += f * cnt;
            bytes += by * cnt;
            secs += ms / 1e3 * cnt;
            if b == TRAIN_BATCH {
                let input = Tensor::randn([b, g.c, g.h, g.w], 1.0, &mut rng);
                let mut cols = Tensor::zeros([m, k]);
                im2col_ms += cnt
                    * median_ms(REPS, || {
                        mn_tensor::im2col::im2col_into(&input, g.k, g.k / 2, &mut cols);
                    });
            }
        }
        out.layer(
            &format!("tensor.gemm.gflops.b{b}"),
            flops / secs / 1e9,
            "GFLOP/s",
            Some(REPS),
        );
        if b == TRAIN_BATCH {
            out.layer("tensor.gemm.flops", flops, "count", None);
            out.layer("tensor.gemm.bytes", bytes, "bytes", None);
            out.layer("tensor.im2col.ms.b32", im2col_ms, "ms", Some(REPS));
        }
    }
}

/// Measured `predict_scored` time by batch size, for inferring the
/// non-engine part of a request's latency.
pub struct EngineCurve {
    points: Vec<(usize, f64)>,
}

impl EngineCurve {
    /// Engine milliseconds at batch size `b`, linear between measured
    /// points.
    pub fn at(&self, b: usize) -> f64 {
        let p = &self.points;
        let i = p
            .iter()
            .position(|&(n, _)| n >= b)
            .unwrap_or(p.len() - 1)
            .max(1);
        let ((n0, t0), (n1, t1)) = (p[i - 1], p[i]);
        t0 + (t1 - t0) * (b as f64 - n0 as f64) / (n1 as f64 - n0 as f64)
    }
}

/// Probes on a workload's served ensemble under its policy: the eval-mode
/// per-node walk (`nn.eval.*`), `predict_scored` time and allocations by
/// batch size (`engine.*`), and artifact boot (`artifact.*`).
pub fn ensemble(
    plan: &Arc<EnginePlan>,
    policy: ExecPolicy,
    artifact: &[u8],
    pool: &[Tensor],
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> EngineCurve {
    let id = tracer.begin("layers.ensemble", None);
    let batch = |n: usize| crate::serve::stack(&pool[..n]);

    // Eval walk: the shared trunk once (member 0), every member's tail.
    let trunk = plan.trunk_len();
    let mut walk_matches = true;
    for (b, label) in [(1usize, "b1"), (64, "b64")] {
        let x = batch(b);
        let mut ws = Workspace::new();
        let mut reps = vec![BTreeMap::new(); REPS];
        for rep in reps.iter_mut() {
            for (m, member) in plan.members().iter().enumerate() {
                let net = &member.network;
                let from = if m == 0 { 0 } else { trunk };
                let mut h = net.forward_eval_prefix_with(&x, from, &mut ws);
                for node in &net.nodes()[from..] {
                    let t = Instant::now();
                    let next = node.forward_eval_ws(&h, &mut ws);
                    *rep.entry(node.kind()).or_default() += t.elapsed().as_secs_f64() * 1e3;
                    ws.release(std::mem::replace(&mut h, next));
                }
                walk_matches &= bitwise_eq(&h, &net.forward_eval_with(&x, &mut ws));
            }
        }
        for (kind, ms) in kind_medians(&reps) {
            out.layer(&format!("nn.eval.{kind}.{label}_ms"), ms, "ms", Some(REPS));
        }
    }
    out.gate(
        "eval per-node walk (trunk once, tails per member) is bitwise Network::forward_eval_with",
        walk_matches,
    );

    let mut session = plan.session();
    session.set_policy(policy);
    let mut points = Vec::new();
    for b in [1usize, 2, 4, 8, 16, 32, 64] {
        let x = batch(b);
        let ms = median_ms(REPS, || {
            std::hint::black_box(session.predict_scored(&x));
        });
        points.push((b, ms));
        if matches!(b, 1 | 8 | 64) {
            out.layer(&format!("engine.predict_ms.b{b}"), ms, "ms", Some(REPS));
        }
        if matches!(b, 1 | 64) {
            let a = alloc::count(|| {
                std::hint::black_box(session.predict_scored(&x));
            });
            let again = alloc::count(|| {
                std::hint::black_box(session.predict_scored(&x));
            });
            out.gate(
                &format!("allocations per batch-{b} predict_scored repeat exactly"),
                a == again,
            );
            out.layer(
                &format!("engine.predict_allocs.b{b}"),
                a.0 as f64,
                "count",
                None,
            );
            out.layer(
                &format!("engine.predict_alloc_bytes.b{b}"),
                a.1 as f64,
                "bytes",
                None,
            );
        }
    }
    let scored = session.predict_scored(&batch(pool.len()));
    out.layer(
        "engine.early_exit_pct",
        scored.early_exit_rate() * 100.0,
        "%",
        Some(pool.len()),
    );
    out.layer("engine.trunk_len", trunk as f64, "count", None);

    let boot_ms = median_ms(REPS, || {
        std::hint::black_box(
            EnginePlan::from_artifact_bytes(artifact, 64).expect("artifact boots"),
        );
    });
    out.layer("artifact.boot_ms", boot_ms, "ms", Some(REPS));
    out.layer("artifact.bytes", artifact.len() as f64, "bytes", None);
    tracer.end(id);
    EngineCurve { points }
}
