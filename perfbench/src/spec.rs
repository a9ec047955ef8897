//! The benchmark's names and constants: workloads, the end-to-end and
//! per-layer metric lists (which `BENCHMARK.json` at the repository root
//! mirrors), and the workload constants compiled in from `spec.json`.

use serde::Value;

use crate::report::Outcome;

pub const WORKLOADS: &[&str] = &["train_fig5", "serve_flat", "serve_cascade"];

/// End-to-end metrics every untraced run reports, whatever its workload.
/// Each has one meaning per workload family (see [`end_to_end`]).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The value of end-to-end metric `name` on `workload`, taken from the
/// workload's own named metrics:
///
/// | metric | `train_fig5` | `serve_*` |
/// |---|---|---|
/// | `setup_s` | `setup_s` | `setup_s` |
/// | `latency_ms` | `train_step_ms` | `p50_ms_low` |
/// | `throughput_per_s` | `train_examples_per_s` | `max_rate_rps` |
/// | `peak_rss_mb` | `peak_rss_mb` | `peak_rss_mb` |
pub fn end_to_end(workload: &str, name: &str, out: &Outcome) -> Option<f64> {
    let train = workload == "train_fig5";
    match name {
        "setup_s" | "peak_rss_mb" => out.value(name),
        "latency_ms" if train => out.value("train_step_ms"),
        "latency_ms" => out.value("p50_ms_low"),
        "throughput_per_s" if train => out.value("train_examples_per_s"),
        "throughput_per_s" => out.value("max_rate_rps"),
        _ => None,
    }
}

/// Per-layer metrics every traced run reports, whatever its workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_s", "s"),
    ("core.cluster_ms", "ms"),
    ("core.hatch_ms", "ms"),
    ("core.mother_train_s", "s"),
    ("core.member_train_s", "s"),
    ("core.orchestration_s", "s"),
    ("core.mother_epochs", "count"),
    ("core.member_epochs_mean", "count"),
    ("core.gradient_steps", "count"),
    ("nn.train.forward_ms", "ms"),
    ("nn.train.loss_ms", "ms"),
    ("nn.train.backward_ms", "ms"),
    ("nn.optim.step_ms", "ms"),
    ("nn.train.step_allocs", "count"),
    ("nn.train.step_alloc_bytes", "bytes"),
    ("nn.node.conv.fwd_ms", "ms"),
    ("nn.node.conv.bwd_ms", "ms"),
    ("nn.node.batchnorm.fwd_ms", "ms"),
    ("nn.node.batchnorm.bwd_ms", "ms"),
    ("nn.node.relu.fwd_ms", "ms"),
    ("nn.node.relu.bwd_ms", "ms"),
    ("nn.node.maxpool.fwd_ms", "ms"),
    ("nn.node.maxpool.bwd_ms", "ms"),
    ("nn.node.flatten.fwd_ms", "ms"),
    ("nn.node.flatten.bwd_ms", "ms"),
    ("nn.node.dense.fwd_ms", "ms"),
    ("nn.node.dense.bwd_ms", "ms"),
    ("nn.eval.conv.b1_ms", "ms"),
    ("nn.eval.conv.b64_ms", "ms"),
    ("nn.eval.batchnorm.b1_ms", "ms"),
    ("nn.eval.batchnorm.b64_ms", "ms"),
    ("nn.eval.relu.b1_ms", "ms"),
    ("nn.eval.relu.b64_ms", "ms"),
    ("nn.eval.maxpool.b1_ms", "ms"),
    ("nn.eval.maxpool.b64_ms", "ms"),
    ("nn.eval.flatten.b1_ms", "ms"),
    ("nn.eval.flatten.b64_ms", "ms"),
    ("nn.eval.dense.b1_ms", "ms"),
    ("nn.eval.dense.b64_ms", "ms"),
    ("tensor.gemm.gflops.b1", "GFLOP/s"),
    ("tensor.gemm.gflops.b32", "GFLOP/s"),
    ("tensor.gemm.gflops.b64", "GFLOP/s"),
    ("tensor.gemm.flops", "count"),
    ("tensor.gemm.bytes", "bytes"),
    ("tensor.im2col.ms.b32", "ms"),
    ("rayon.par_call_us", "us"),
    ("proc.cpu_user_s", "s"),
    ("proc.cpu_sys_s", "s"),
    ("engine.predict_ms.b1", "ms"),
    ("engine.predict_ms.b8", "ms"),
    ("engine.predict_ms.b64", "ms"),
    ("engine.predict_allocs.b1", "count"),
    ("engine.predict_allocs.b64", "count"),
    ("engine.predict_alloc_bytes.b1", "bytes"),
    ("engine.predict_alloc_bytes.b64", "bytes"),
    ("engine.early_exit_pct", "%"),
    ("engine.trunk_len", "count"),
    ("serve.submit_us", "us"),
    ("serve.batch_mean", "count"),
    ("serve.batch_p99", "count"),
    ("serve.nonengine_ms_p50", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.overloaded", "count"),
    ("serve.deadline_expired", "count"),
    ("serve.worker_gone", "count"),
    ("artifact.boot_ms", "ms"),
    ("artifact.bytes", "bytes"),
    ("gen.sent", "count"),
    ("gen.late_p99_ms", "ms"),
    ("gen.late_max_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The constants of one serving workload (`spec.json`).
#[derive(Clone, Debug)]
pub struct ServeSpec {
    pub shards: usize,
    pub pool: usize,
    pub low_rps: f64,
    pub high_rps: f64,
    pub ladder_rps: Vec<f64>,
    pub p99_limit_ms: f64,
    pub setup_repeats: usize,
    /// Cascade only: calibration agreement and the hard-request period.
    pub calibration_agreement: f64,
    pub hard_every: usize,
}

/// The constants of the training workload (`spec.json`).
#[derive(Clone, Debug)]
pub struct TrainSpec {
    pub max_epochs: usize,
    pub patience: usize,
    pub min_delta: f32,
    pub val_fraction: f64,
    pub setup_repeats: usize,
}

fn workload(name: &str) -> Value {
    let spec = serde_json::parse(include_str!("../spec.json")).expect("spec.json parses");
    spec.get("workloads")
        .and_then(|w| w.get(name))
        .cloned()
        .unwrap_or_else(|| panic!("spec.json has no workload {name}"))
}

fn num(v: &Value, key: &str) -> f64 {
    match v.get(key) {
        Some(Value::Num(x)) => *x,
        _ => panic!("spec.json: {key} must be a number"),
    }
}

pub fn serve_spec(name: &str) -> ServeSpec {
    let w = workload(name);
    let ladder_rps: Vec<f64> = match w.get("ladder_rps") {
        Some(Value::Arr(a)) => a
            .iter()
            .map(|x| match x {
                Value::Num(r) => *r,
                _ => panic!("spec.json: ladder_rps must hold numbers"),
            })
            .collect(),
        _ => panic!("spec.json: ladder_rps must be an array"),
    };
    let opt = |key: &str| w.get(key).map(|_| num(&w, key));
    assert!(
        ladder_rps.windows(2).all(|r| r[0] < r[1]),
        "spec.json: ladder_rps must be increasing"
    );
    let pool = num(&w, "pool") as usize;
    let hard_every = opt("hard_every").unwrap_or(0.0) as usize;
    assert!(
        hard_every == 0 || pool % hard_every == 0,
        "spec.json: pool must be a multiple of hard_every so the hard share holds per request"
    );
    ServeSpec {
        shards: num(&w, "shards") as usize,
        pool,
        low_rps: num(&w, "low_rps"),
        high_rps: num(&w, "high_rps"),
        ladder_rps,
        p99_limit_ms: num(&w, "p99_limit_ms"),
        setup_repeats: num(&w, "setup_repeats") as usize,
        calibration_agreement: opt("calibration_agreement").unwrap_or(1.0),
        hard_every,
    }
}

pub fn train_spec() -> TrainSpec {
    let w = workload("train_fig5");
    TrainSpec {
        max_epochs: num(&w, "max_epochs") as usize,
        patience: num(&w, "patience") as usize,
        min_delta: num(&w, "min_delta") as f32,
        val_fraction: num(&w, "val_fraction"),
        setup_repeats: num(&w, "setup_repeats") as usize,
    }
}
