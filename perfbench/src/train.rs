//! `train_fig5`: the paper's run. `train_ensemble` with
//! `Strategy::mothernets()` trains the five Table-1 VGGs over
//! `cifar10_sim(Scale::Small, seed)`, members one after another; the
//! ensemble-average (EA) error and NLL are then taken on the test split.

use std::time::Instant;

use mn_data::sampler::train_val_split;
use mn_data::{Scale, SyntheticTask};
use mn_ensemble::{combine, MemberPredictions};
use mn_nn::arch::{Architecture, ConvBlockSpec, ConvLayerSpec, InputSpec};
use mn_nn::train::TrainConfig;
use mothernets::{train_ensemble, EnsembleTrainConfig, MemberRecord, Strategy, TrainedEnsemble};

use crate::report::Outcome;
use crate::spec::{self, TrainSpec};
use crate::stats::median;
use crate::trace::Tracer;

fn conv(k: usize, f: usize) -> ConvLayerSpec {
    ConvLayerSpec::new(k, f)
}

/// The five VGG variants of Table 1 (V13, V16, V16A, V16B, V19), scaled to
/// 8×8 inputs exactly as the repository's architecture zoo defines them.
/// The benchmark owns its copy so that its workload cannot change under it.
pub fn table1(num_classes: usize) -> Vec<Architecture> {
    let input = InputSpec::new(3, 8, 8);
    let vgg = |name: &str, blocks: Vec<ConvBlockSpec>| {
        Architecture::plain(name, input, num_classes, blocks, vec![192, 192])
    };
    vec![
        vgg(
            "V13",
            vec![
                ConvBlockSpec::repeated(3, 8, 2),
                ConvBlockSpec::repeated(3, 16, 2),
                ConvBlockSpec::repeated(3, 32, 2),
            ],
        ),
        vgg(
            "V16",
            vec![
                ConvBlockSpec::repeated(3, 8, 2),
                ConvBlockSpec::new(vec![conv(3, 16), conv(3, 16), conv(1, 16)]),
                ConvBlockSpec::new(vec![conv(3, 32), conv(3, 32), conv(1, 32)]),
            ],
        ),
        vgg(
            "V16A",
            vec![
                ConvBlockSpec::repeated(3, 16, 2),
                ConvBlockSpec::new(vec![conv(3, 16), conv(3, 16), conv(1, 16)]),
                ConvBlockSpec::new(vec![conv(3, 16), conv(3, 16), conv(1, 32)]),
            ],
        ),
        vgg(
            "V16B",
            vec![
                ConvBlockSpec::repeated(3, 8, 2),
                ConvBlockSpec::new(vec![conv(3, 16), conv(3, 16), conv(3, 16)]),
                ConvBlockSpec::new(vec![conv(3, 32), conv(3, 32), conv(3, 32)]),
            ],
        ),
        vgg(
            "V19",
            vec![
                ConvBlockSpec::repeated(3, 8, 2),
                ConvBlockSpec::repeated(3, 16, 4),
                ConvBlockSpec::repeated(3, 32, 4),
            ],
        ),
    ]
}

/// `ExpConfig::ensemble_train_config()` at `Scale::Small`, from `spec.json`.
fn train_config(s: &TrainSpec, seed: u64) -> EnsembleTrainConfig {
    EnsembleTrainConfig {
        train: TrainConfig {
            max_epochs: s.max_epochs,
            patience: s.patience,
            min_delta: s.min_delta,
            ..TrainConfig::default()
        },
        val_fraction: s.val_fraction,
        seed,
        parallel: false,
    }
}

/// The records of every network trained: MotherNets, then members.
fn records(trained: &TrainedEnsemble) -> impl Iterator<Item = &MemberRecord> {
    trained.mother_records.iter().chain(&trained.member_records)
}

fn epochs_of(trained: &TrainedEnsemble) -> Vec<usize> {
    records(trained).map(|r| r.epochs).collect()
}

fn gradient_steps(trained: &TrainedEnsemble) -> u64 {
    records(trained).map(|r| r.gradient_steps).sum()
}

/// EA test error (fraction) and mean NLL of the averaged probabilities.
fn ea_quality(trained: &mut TrainedEnsemble, task: &SyntheticTask) -> (f64, f64) {
    let preds = MemberPredictions::collect(&mut trained.members, task.test.images(), 64);
    let avg = combine::ensemble_average(&preds);
    let labels = mn_tensor::ops::argmax_rows(&avg);
    let wrong = labels
        .iter()
        .zip(task.test.labels())
        .filter(|(a, b)| a != b)
        .count();
    let nll = mn_nn::loss::nll_of_probs(&avg, task.test.labels());
    (wrong as f64 / labels.len() as f64, nll as f64)
}

/// The `core.*` per-layer metrics, read from a trained ensemble's records.
pub fn record_layers(trained: &TrainedEnsemble, out: &mut Outcome) {
    let mother_s: f64 = trained.mother_records.iter().map(|r| r.wall_secs).sum();
    let member_s: f64 = trained.member_records.iter().map(|r| r.wall_secs).sum();
    let mother_epochs: usize = trained.mother_records.iter().map(|r| r.epochs).sum();
    out.layer("core.mother_train_s", mother_s, "s", None);
    out.layer("core.member_train_s", member_s, "s", None);
    out.layer(
        "core.orchestration_s",
        trained.wall_clock_secs - mother_s - member_s,
        "s",
        None,
    );
    out.layer("core.mother_epochs", mother_epochs as f64, "count", None);
    out.layer(
        "core.member_epochs_mean",
        trained.mean_member_epochs(),
        "count",
        Some(trained.member_records.len()),
    );
    out.layer(
        "core.gradient_steps",
        gradient_steps(trained) as f64,
        "count",
        None,
    );
}

/// Companion probe for the serving workloads, whose traced runs must
/// report the `core.*` layer too: the same MotherNets run at
/// `Scale::Tiny` (3-epoch cap).
pub fn tiny_records(seed: u64, tracer: &mut Tracer, out: &mut Outcome) {
    let task = mn_data::presets::cifar10_sim(Scale::Tiny, seed);
    let spec = TrainSpec {
        max_epochs: 3,
        ..spec::train_spec()
    };
    let id = tracer.begin("core.train_ensemble.tiny", None);
    let trained = train_ensemble(
        &table1(task.train.num_classes()),
        &task.train,
        &Strategy::mothernets(),
        &train_config(&spec, seed),
    )
    .expect("Table-1 ensemble trains");
    tracer.end(id);
    record_layers(&trained, out);
}

pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer, out: &mut Outcome) {
    let spec = spec::train_spec();

    // Set-up: data generation and architecture construction.
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..spec.setup_repeats.max(1) {
        let t = Instant::now();
        let id = tracer.begin("setup", None);
        let task = tracer.span("data.cifar10_sim", || {
            mn_data::presets::cifar10_sim(Scale::Small, seed)
        });
        let archs = table1(task.train.num_classes());
        tracer.end(id);
        setups.push(t.elapsed().as_secs_f64());
        prepared = Some((task, archs));
    }
    let (task, archs) = prepared.expect("at least one set-up");
    out.metric("setup_s", median(&setups), "s", Some(setups.len()));

    let cfg = train_config(&spec, seed);
    let per_epoch = train_val_split(&task.train, cfg.val_fraction, cfg.seed)
        .0
        .len();

    // Untraced: train at least once, and again while another run fits in
    // `seconds` (one seed trains the same networks, so repeats measure
    // only timing noise). Traced: train twice, the first time outside
    // any span, so the difference is the tracing overhead.
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut step_ms = Vec::new();
    let mut epochs: Vec<Vec<usize>> = Vec::new();
    let mut last: Option<TrainedEnsemble> = None;
    loop {
        // The previous ensemble goes first, so that a repeat does not
        // hold two ensembles resident and raise `peak_rss_mb`.
        drop(last.take());
        let traced = tracer.on() && !walls.is_empty();
        let id = if traced {
            tracer.begin("core.train_ensemble", None)
        } else {
            usize::MAX
        };
        let t = Instant::now();
        let trained = train_ensemble(&archs, &task.train, &Strategy::mothernets(), &cfg)
            .expect("Table-1 ensemble trains");
        let wall = t.elapsed().as_secs_f64();
        if traced {
            tracer.end(id);
        }
        walls.push(wall);
        // Examples stepped through, summed over every network trained.
        let examples = epochs_of(&trained).iter().sum::<usize>() * per_epoch;
        rates.push(examples as f64 / wall);
        // One training step of every network, each at its own cost: how
        // many epochs early stopping ran (which the seed decides) drops out.
        step_ms.push(
            records(&trained)
                .map(|r| r.wall_secs * 1e3 / r.gradient_steps as f64)
                .sum::<f64>(),
        );
        epochs.push(epochs_of(&trained));
        last = Some(trained);
        let done = if tracer.on() {
            walls.len() == 2
        } else {
            started.elapsed().as_secs_f64() + wall > seconds
        };
        if done {
            break;
        }
    }
    let mut trained = last.expect("the loop trains at least once");
    out.attempted += walls.len() as u64;

    println!(
        "train_fig5: epochs per network (mothers, then members) {:?}",
        epochs[0]
    );
    out.gate(
        "repeated train_ensemble runs with one seed train the same epochs",
        epochs.iter().all(|e| *e == epochs[0]),
    );
    out.metric("train_wall_s", median(&walls), "s", Some(walls.len()));
    out.metric(
        "train_examples_per_s",
        median(&rates),
        "1/s",
        Some(rates.len()),
    );
    out.metric("train_step_ms", median(&step_ms), "ms", Some(step_ms.len()));

    let (error, nll) = tracer.span("ensemble.ea_quality", || ea_quality(&mut trained, &task));
    out.metric("test_error_pct", error * 100.0, "%", Some(task.test.len()));
    out.metric("test_nll", nll, "nats", Some(task.test.len()));
    out.gate(
        "EA test error and NLL are finite",
        error.is_finite() && nll.is_finite(),
    );

    if tracer.on() {
        let overhead = (walls[1] - walls[0]) / walls[0] * 100.0;
        out.layer("trace.overhead_pct", overhead, "%", Some(walls.len()));
        record_layers(&trained, out);
        crate::serve::deploy_probe(&trained, seed, tracer, out);
    }
}
