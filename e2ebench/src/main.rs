//! End-to-end, layer-attributed benchmark of the pricing system.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <quote-ladder|book-tick|cluster-sweep> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! The seed is an argument of this runner only: it generates the
//! inputs, and the program under test receives nothing but those
//! inputs. With `--trace 0` the run measures the named workload for
//! `--seconds` and prints the end-to-end metrics. With `--trace 1` it
//! runs every workload twice, untraced and then traced, splitting
//! `--seconds` between them (a quarter per quote-ladder phase, an
//! eighth per other phase), and prints every per-layer metric plus the
//! tracing overhead. The last line of standard output is the result object;
//! the full record, with provenance, is the line before it and is also
//! written under `e2ebench/out/`.

mod book_tick;
mod clock;
mod cluster_sweep;
mod json;
mod quote_ladder;
mod rng;
mod stats;
mod trace;

use json::J;
use std::collections::BTreeSet;
use std::path::Path;
use trace::Tracer;

/// The end-to-end metrics every untraced run prints, with units.
const E2E: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_ms_per_op", "ms"),
    ("throughput_ops_s", "1/s"),
];

/// The workloads, in the order a traced run visits them.
const WORKLOADS: [&str; 3] = ["quote-ladder", "book-tick", "cluster-sweep"];

/// What one phase of one workload measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations timed.
    pub attempted: u64,
    /// Operations that failed: shed, typed error, degraded, wrong bits.
    pub failed: u64,
    /// Wrong prices or time models, including failed final checks.
    pub wrong: u64,
    /// End-to-end metric values by name.
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer metric values by name (traced phases only).
    pub layer: Vec<(String, f64)>,
    /// Parameters and sample counts for the record.
    pub info: Vec<(String, J)>,
    /// Process CPU milliseconds per operation, for the tracing overhead.
    pub cpu_ms_per_op: f64,
}

impl Report {
    /// An empty report for `attempted` operations.
    pub fn new(attempted: u64, failed: u64, wrong: u64) -> Self {
        Report {
            attempted,
            failed,
            wrong,
            ..Default::default()
        }
    }

    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.push((name, value));
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layer.push((name.to_string(), value));
    }

    /// Adds a record entry.
    pub fn info(&mut self, key: &str, value: J) {
        self.info.push((key.to_string(), value));
    }

    /// Records the latency sample count and every percentile of the
    /// ladder up to the highest one the sample supports, scaled by
    /// `to_ms`.
    pub fn latency_info(&mut self, samples: &[f64], to_ms: f64) {
        let n = samples.len();
        let highest = stats::highest_supported(n).unwrap_or(0.0);
        let pcts = stats::LADDER.iter().filter(|&&q| q <= highest).map(|&q| {
            let v = stats::quantile(samples, q).unwrap_or(f64::NAN) * to_ms;
            (format!("p{}", q * 100.0), J::Num(v))
        });
        self.info("latency_samples", J::Int(n as u64));
        self.info("latency_ms", J::obj(pcts));
    }
}

/// Every per-layer metric a traced run prints, with units.
fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = quote_ladder::LAYER_METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    out.extend(book_tick::layer_metrics());
    out.extend(cluster_sweep::layer_metrics());
    for w in WORKLOADS {
        out.push((format!("trace.overhead_pct.{w}"), "%"));
    }
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; known: {WORKLOADS:?}"));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<Report, String> {
    match name {
        "quote-ladder" => quote_ladder::run(seed, seconds, tracer),
        "book-tick" => book_tick::run(seed, seconds, tracer),
        "cluster-sweep" => cluster_sweep::run(seed, seconds, tracer),
        _ => unreachable!("workload names are checked in parse_args"),
    }
}

/// The repository root: the parent of this package.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits inside the repository")
}

/// The git commit, when the checkout is a git repository.
fn git_commit(root: &Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(root.join(".git/packed-refs")).ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l.split(' ').next().unwrap_or_default().to_string())
            })
            .map(|s| s.trim().to_string()),
    }
}

/// FNV-1a over the sources the benchmark builds (paths and bytes, in
/// sorted order): identifies the code when no git metadata exists.
fn source_fingerprint(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in ["crates", "shims"] {
        walk(&root.join(d), &mut files);
    }
    for f in ["Cargo.toml", "Cargo.lock", ".cargo/config.toml"] {
        files.push(root.join(f));
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in rel.bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(args: &Args) -> J {
    let root = repo_root();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    J::obj([
        ("cores", J::Int(cores as u64)),
        ("cpu", J::str(cpu_model())),
        ("rustc", J::str(env!("E2EBENCH_RUSTC"))),
        ("target_cpu", J::str(env!("E2EBENCH_TARGET_CPU"))),
        (
            "commit",
            J::str(git_commit(root).unwrap_or_else(|| "none".into())),
        ),
        ("source_fnv", J::str(source_fingerprint(root))),
        ("workload", J::str(args.workload.clone())),
        ("seed", J::Int(args.seed)),
        ("seconds", J::Num(args.seconds)),
        ("trace", J::Bool(args.trace)),
    ])
}

/// Writes `value` to `e2ebench/out/<name>`.
fn write_out(name: &str, value: &J) -> Result<(), String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, value.render() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Checks that `values` holds exactly the `declared` metrics, all
/// finite, and renders them as the result's `metrics` object.
fn metrics_object(
    declared: &[(String, &'static str)],
    values: &[(String, f64)],
) -> Result<J, String> {
    let names: BTreeSet<&str> = values.iter().map(|(n, _)| n.as_str()).collect();
    if names.len() != values.len() {
        return Err("a metric was reported twice".into());
    }
    let mut out = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let value = values
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        out.push((
            name.clone(),
            J::obj([("value", J::Num(value)), ("unit", J::str(*unit))]),
        ));
    }
    if values.len() != declared.len() {
        return Err("a metric was reported that is not declared".into());
    }
    Ok(J::Obj(out))
}

fn main() {
    match real_main() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

/// Silences the panics the cluster's fault plan injects on purpose (the
/// drivers catch and recover from them), so that neither stderr nor the
/// measured time depends on `RUST_BACKTRACE`. Every other panic still
/// reaches the default hook.
fn quiet_injected_crashes() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info
            .payload()
            .downcast_ref::<mdp_core::cluster::InjectedCrash>()
            .is_none()
        {
            default_hook(info);
        }
    }));
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    quiet_injected_crashes();
    let mut record = vec![("provenance".to_string(), provenance(&args))];
    let (attempted, failed, wrong, declared, values) = if !args.trace {
        let mut report = run_workload(
            &args.workload,
            args.seed,
            args.seconds,
            &mut Tracer::new(false),
        )?;
        report.e2e("peak_rss_mb", clock::peak_rss_mb()?);
        record.push(("info".into(), J::Obj(report.info)));
        let declared: Vec<(String, &str)> = E2E.iter().map(|&(n, u)| (n.to_string(), u)).collect();
        let values = report
            .e2e
            .iter()
            .map(|&(n, v)| (n.to_string(), v))
            .collect();
        (
            report.attempted,
            report.failed,
            report.wrong,
            declared,
            values,
        )
    } else {
        let (mut attempted, mut failed, mut wrong) = (0, 0, 0);
        let mut values = Vec::new();
        for w in WORKLOADS {
            // Quote-ladder's p99s need about 1 000 quotes per phase.
            let phase = args.seconds * if w == "quote-ladder" { 0.25 } else { 0.125 };
            let plain = run_workload(w, args.seed, phase, &mut Tracer::new(false))?;
            let mut tracer = Tracer::new(true);
            let traced = run_workload(w, args.seed, phase, &mut tracer)?;
            write_out(
                &format!("spans-{w}-seed{}.json", args.seed),
                &tracer.to_json(),
            )?;
            for r in [&plain, &traced] {
                attempted += r.attempted;
                failed += r.failed;
                wrong += r.wrong;
            }
            values.extend(traced.layer);
            values.push((
                format!("trace.overhead_pct.{w}"),
                (traced.cpu_ms_per_op / plain.cpu_ms_per_op - 1.0) * 100.0,
            ));
            record.push((format!("info.{w}"), J::Obj(traced.info)));
        }
        (attempted, failed, wrong, layer_metrics(), values)
    };
    let metrics = metrics_object(&declared, &values)?;
    let result = J::obj([
        ("correct", J::Bool(wrong == 0)),
        ("attempted", J::Int(attempted)),
        ("failed", J::Int(failed)),
        ("metrics", metrics),
    ]);
    record.push(("result".into(), result.clone()));
    let record = J::Obj(record);
    write_out(
        &format!(
            "{}-seed{}-trace{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ),
        &record,
    )?;
    println!("{}", record.render());
    println!("{}", result.render());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics the runner prints,
    /// with the same units, and only workloads the runner knows.
    #[test]
    fn benchmark_json_matches_the_runner() {
        let spec = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
        let listed: BTreeSet<&str> = spec
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().unwrap())
            .collect();
        let metrics: Vec<(String, &str)> = E2E
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(layer_metrics())
            .collect();
        for (n, u) in &metrics {
            let entry = format!("\"name\": \"{n}\", \"unit\": \"{u}\"");
            assert!(spec.contains(&entry), "{n} [{u}] is not declared");
        }
        for name in &listed {
            assert!(
                metrics.iter().any(|(n, _)| n == name) || WORKLOADS.contains(name),
                "{name} is declared but the runner does not know it"
            );
        }
        assert!(layer_metrics().len() <= 128);
    }

    #[test]
    fn metrics_object_rejects_missing_and_extra() {
        let declared = vec![("a".to_string(), "ms")];
        assert!(metrics_object(&declared, &[("a".into(), 1.5)]).is_ok());
        assert!(metrics_object(&declared, &[]).is_err());
        assert!(metrics_object(&declared, &[("a".into(), 1.0), ("b".into(), 2.0)]).is_err());
        assert!(metrics_object(&declared, &[("a".into(), f64::NAN)]).is_err());
    }
}
