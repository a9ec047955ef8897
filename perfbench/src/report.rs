//! What a run reports: named metrics with units and sample counts,
//! correctness gates, the request tally, and the final JSON line.

use std::process::ExitCode;

use crate::spec;

/// One measured value.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, printed next to it when known.
    pub samples: Option<usize>,
}

/// Everything one run produced.
#[derive(Default)]
pub struct Outcome {
    /// Metrics as the workload names them (such as
    /// `p50_ms_low` or `train_wall_s`); printed, and mapped onto the
    /// benchmark's end-to-end metrics by [`spec::end_to_end`].
    pub metrics: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    gates: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Records a correctness check; any failed one fails the run.
    pub fn gate(&mut self, what: &str, ok: bool) {
        println!("gate {} {what}", if ok { "ok  " } else { "FAIL" });
        self.gates.push((what.to_string(), ok));
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Prints every metric, then the JSON result line; the exit status is
    /// nonzero when a gate failed or a promised metric is missing.
    pub fn finish(mut self, workload: &str, traced: bool) -> ExitCode {
        for m in self.metrics.iter().chain(&self.layers) {
            print_metric(m);
        }
        let reported: Vec<Metric> = if traced {
            let mut layers = std::mem::take(&mut self.layers);
            let mut ordered = Vec::new();
            for &(name, unit) in spec::PER_LAYER {
                match layers.iter().position(|m| m.name == name) {
                    Some(i) => ordered.push(layers.swap_remove(i)),
                    None => self.gate(&format!("per-layer metric {name} ({unit}) measured"), false),
                }
            }
            ordered
        } else {
            let mut e2e = Vec::new();
            for &(name, unit) in spec::END_TO_END {
                match spec::end_to_end(workload, name, &self) {
                    Some(value) => e2e.push(Metric {
                        name: name.to_string(),
                        value,
                        unit,
                        samples: None,
                    }),
                    None => self.gate(&format!("end-to-end metric {name} measured"), false),
                }
            }
            e2e
        };
        for m in &reported {
            if !m.value.is_finite() {
                self.gate(&format!("{} is finite", m.name), false);
            }
        }
        let correct = self.gates.iter().all(|(_, ok)| *ok);
        let metrics: Vec<String> = reported
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            eprintln!("perfbench: a correctness gate failed");
            ExitCode::FAILURE
        }
    }
}

fn print_metric(m: &Metric) {
    match m.samples {
        Some(n) => println!("metric {} = {} {} (n={n})", m.name, m.value, m.unit),
        None => println!("metric {} = {} {}", m.name, m.value, m.unit),
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Peak resident memory (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `(user, system)` CPU seconds this process has used so far, from
/// `/proc/self/stat` (clock ticks of 1/100 s).
pub fn cpu_times() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(f64::NAN)
            / 100.0
    };
    (tick(11), tick(12))
}

/// Prints the machine the numbers were taken on.
pub fn print_machine() {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let target_cpu = if cfg!(target_feature = "avx2") {
        "native (avx2 compiled in)"
    } else {
        "generic (no avx2 compiled in)"
    };
    println!(
        "machine nproc={nproc} target-cpu={target_cpu} simd={} rayon_threads={}",
        mn_tensor::simd::active().label(),
        rayon::current_num_threads()
    );
}
