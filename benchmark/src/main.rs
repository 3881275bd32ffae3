//! The repository's benchmark: one workload from a seed against a
//! 13-node loopback cluster, every byte checked, every metric printed by
//! name with its unit. See `benchmark/README.md`.
//!
//! `--trace 0` (default) measures the end-to-end metrics; `--trace 1`
//! replays the run's bytes through each layer in isolation and prints the
//! per-layer ledger instead. The last line of standard output is the
//! result as one JSON object.

mod gen;
mod hostref;
mod layers;
mod report;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use cluster::ClusterError;

use gen::Rng;
use hostref::HostRef;
use report::Metric;
use spans::SpanBuffer;
use stats::{median, timed};
use workloads::{Outcome, Tally, Workload, BULK, CODES, FANOUT_THREADS, NODES, SMALL, WORKLOADS};

/// Seconds one run measures unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
/// Seconds `--smoke` measures.
const SMOKE_SECONDS: f64 = 3.0;
/// Fresh clusters a run's budget is split over, so that set-up runs
/// several times and no single slow stretch decides the run.
const SEGMENTS: usize = 3;
/// Fresh clusters of a `--smoke` run and of a traced run's workload pass.
const SHORT_SEGMENTS: usize = 2;

const USAGE: &str = "usage: benchmark/run.sh --workload <ingest|scan|failure|repair|smallreads|\
smallwrites> [--seed N] [--seconds N] [--trace [0|1]] [--smoke]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

impl Args {
    /// Fresh clusters the workload's budget is split over.
    fn segments(&self) -> usize {
        if self.smoke || self.trace {
            SHORT_SEGMENTS
        } else {
            SEGMENTS
        }
    }
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, 1u64, None, false, false);
    let mut pending: Option<String> = None;
    while let Some(flag) = pending.take().or_else(|| argv.next()) {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a name")?;
                let found = WORKLOADS.iter().find(|w| w.name == name);
                workload = Some(*found.ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                let v = value("a number")?;
                seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                let s: f64 = v.parse().map_err(|_| format!("bad seconds {v:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {v}"));
                }
                seconds = Some(s);
            }
            // `--trace` alone turns tracing on; `--trace 0|1` says which.
            "--trace" => match argv.next() {
                None => trace = true,
                Some(v) if v == "0" || v == "1" => trace = v == "1",
                Some(next) => {
                    trace = true;
                    pending = Some(next);
                }
            },
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.unwrap_or(if smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        trace,
        smoke,
    })
}

/// One measured pass: a workload run on several fresh clusters.
struct Pass {
    /// Set-up seconds of each segment.
    setups: Vec<f64>,
    /// What each segment measured.
    segments: Vec<Outcome>,
    /// Operations of the warm-up segment, attempted and failed.
    warm_up: Tally,
}

impl Pass {
    /// Runs `workload` for `seconds` in all, split over `segments` fresh
    /// clusters; with `spans`, every other operation is traced.
    fn run(
        workload: Workload,
        seed: u64,
        seconds: f64,
        segments: usize,
        spans: Option<&SpanBuffer>,
    ) -> Result<Pass, ClusterError> {
        let budget = Duration::from_secs_f64(seconds / segments as f64);
        let geometry = workload.geometry;
        let host = HostRef::start(geometry.block_bytes, geometry.reference_rounds)?;
        let mut pass = Pass {
            setups: Vec::new(),
            segments: Vec::new(),
            warm_up: Tally::default(),
        };
        let mut retired = Vec::new();
        // Segment 0 is a warm-up on a cluster of its own: the fewest
        // operations a pass runs, so that the allocator, the page cache
        // and every lazily built table have settled before anything is
        // reported. Its operations are checked and tallied, not reported.
        for segment in 0..=segments {
            // Each segment draws its own payloads, placement and offsets.
            let segment_seed = Rng::new(seed, 100 + segment as u64).next_u64();
            let (world, setup) = timed(|| workload.setup(segment_seed));
            let mut world = world?;
            if segment == 0 {
                pass.warm_up = workload.run(&mut world, Duration::ZERO, &host, None).tally;
            } else {
                pass.setups.push(setup.as_secs_f64());
                pass.segments
                    .push(workload.run(&mut world, budget, &host, spans));
            }
            retired.push(world.retire());
        }
        // Tear the clusters down only now, and side by side: deleting a
        // cluster's files makes the next fsyncs on this file system slow,
        // and stopping a datanode waits out its heartbeat sleep.
        std::thread::scope(|scope| {
            for cluster in retired {
                scope.spawn(move || drop(cluster));
            }
        });
        Ok(pass)
    }

    fn tally(&self) -> Tally {
        let mut tally = self.warm_up;
        for s in &self.segments {
            tally += s.tally;
        }
        tally
    }

    /// A per-segment statistic of code `c`, for every segment.
    fn each(&self, c: usize, stat: impl Fn(&workloads::OpLog) -> f64) -> Vec<f64> {
        self.segments.iter().map(|s| stat(&s.ops[c])).collect()
    }

    /// A per-operation value of code `c`, for every operation of every
    /// segment.
    fn all(&self, c: usize, values: impl Fn(&workloads::OpLog) -> Vec<f64>) -> Vec<f64> {
        self.segments
            .iter()
            .flat_map(|s| values(&s.ops[c]))
            .collect()
    }

    /// Every segment's traced, or untraced, samples of code `c`, pooled.
    fn pooled(&self, c: usize, traced: bool) -> stats::Samples {
        let mut pooled = stats::Samples::default();
        for s in &self.segments {
            pooled.extend(&s.ops[c].samples_where(traced));
        }
        pooled
    }

    /// Median seconds per reference round trip over the whole pass.
    fn reference_secs(&self) -> f64 {
        let each = |c| self.all(c, |log| log.reference.secs().to_vec());
        median(&[each(0), each(1)].concat())
    }

    /// Wire bytes per logical byte of code `c`, over `amp_ops` operations
    /// of every segment.
    fn wire_amp(&self, c: usize, amp_ops: usize) -> f64 {
        let (logical, wire) = self
            .segments
            .iter()
            .map(|s| s.ops[c].amp_bytes(amp_ops))
            .fold((0, 0), |(l, w), (dl, dw)| (l + dl, w + dw));
        wire as f64 / logical as f64
    }

    /// Hits over lookups of one of the clients' caches, all segments
    /// together.
    fn hit_ratio(&self, cache: impl Fn(&Outcome) -> (u64, u64)) -> f64 {
        let (hits, lookups) = self
            .segments
            .iter()
            .map(cache)
            .fold((0, 0), |(h, l), (dh, dl)| (h + dh, l + dl));
        hits as f64 / lookups.max(1) as f64
    }
}

/// The end-to-end metrics of `BENCHMARK.json`, in its order.
fn end_to_end(pass: &Pass, workload: Workload) -> Vec<Metric> {
    let mut metrics = vec![
        Metric::new("setup_s", median(&pass.setups), "s"),
        Metric::new(
            "peak_rss_MB",
            stats::peak_rss_mb().unwrap_or(f64::NAN),
            "MB",
        ),
    ];
    for (c, code) in CODES.into_iter().enumerate() {
        let tag = code.tag;
        metrics.extend([
            // Medians over every operation of the run, each operation read
            // at nominal host speed.
            Metric::new(
                format!("MBps_{tag}"),
                median(&pass.all(c, |log| log.calibrated_mbps())),
                "MB/s",
            ),
            Metric::new(
                format!("p50_ms_{tag}"),
                median(&pass.all(c, |log| log.calibrated.secs().to_vec())) * 1e3,
                "ms",
            ),
            Metric::new(
                format!("wire_amp_{tag}"),
                pass.wire_amp(c, workload.amp_ops),
                "ratio",
            ),
        ]);
    }
    metrics
}

/// The client-level rows of the per-layer ledger, from the untraced
/// operations of a traced pass.
fn client_metrics(pass: &Pass) -> Vec<Metric> {
    let stripes_hit: f64 = pass.segments.iter().map(|s| s.degraded_stripe_frac).sum();
    let mut metrics = vec![
        Metric::new(
            "client.manifest_hit_ratio",
            pass.hit_ratio(|s| s.manifest_cache),
            "ratio",
        ),
        Metric::new(
            "access.plan_cache_hit_ratio",
            pass.hit_ratio(|s| s.plan_cache),
            "ratio",
        ),
        Metric::new(
            "client.degraded_stripe_frac",
            stripes_hit / pass.segments.len() as f64,
            "ratio",
        ),
        Metric::new("host.ref_us", pass.reference_secs() * 1e6, "us"),
    ];
    for (c, code) in CODES.into_iter().enumerate() {
        let tag = code.tag;
        let pooled = pass.pooled(c, false);
        metrics.extend([
            Metric::new(format!("client.ops_{tag}"), pooled.len() as f64, "count"),
            Metric::new(
                format!("client.raw_p50_ms_{tag}"),
                pooled.percentile_ms(50.0),
                "ms",
            ),
            Metric::new(
                format!("client.first_op_ms_{tag}"),
                median(&pass.each(c, |log| log.samples.first() * 1e3)),
                "ms",
            ),
            Metric::new(
                format!("client.p95_ms_{tag}"),
                pooled.percentile_ms(95.0),
                "ms",
            ),
            Metric::new(
                format!("client.p99_ms_{tag}"),
                pooled.percentile_ms(99.0),
                "ms",
            ),
            Metric::new(
                format!("client.max_ms_{tag}"),
                pooled.percentile_ms(100.0),
                "ms",
            ),
        ]);
    }
    metrics
}

/// The traced run: layer probes, a short put and a short get pass for
/// the ledger's denominators, then the workload with tracing on for
/// every other operation.
fn traced(args: &Args) -> Result<(Vec<Metric>, Tally), ClusterError> {
    let scratch =
        std::env::temp_dir().join(format!("carousel-benchmark-probe-{}", std::process::id()));
    let layer = layers::probe(args.seed, &scratch)?;
    let mut metrics = layer.metrics;
    let mut tally = layer.tally;

    // Which share of a measured put or get the layer probes account for.
    // Above 1, the client overlaps layers the probes ran one after
    // another; below 1, it spends time no probe covers.
    let ledger_seconds = (args.seconds / 4.0).min(2.0);
    for (name, w, layer_secs) in [
        ("put", WORKLOADS[0], layer.put_layer_secs),
        ("get", WORKLOADS[1], layer.get_layer_secs),
    ] {
        let pass = Pass::run(w, args.seed, ledger_seconds, 1, None)?;
        for (c, code) in CODES.into_iter().enumerate() {
            let measured = pass.pooled(c, false).percentile(50.0);
            metrics.push(Metric::new(
                format!("ledger.{name}_accounted_frac_{}", code.tag),
                layer_secs[c] / measured,
                "ratio",
            ));
        }
        tally += pass.tally();
    }

    // The workload itself, its operations taking turns untraced and
    // traced on the same clusters.
    let spans = SpanBuffer::default();
    let pass = Pass::run(
        args.workload,
        args.seed,
        args.seconds,
        args.segments(),
        Some(&spans),
    )?;
    tally += pass.tally();
    metrics.extend(client_metrics(&pass));
    let slowdown = |c: usize| {
        1.0 - pass.pooled(c, false).percentile(50.0) / pass.pooled(c, true).percentile(50.0)
    };
    metrics.push(Metric::new(
        "trace.overhead_frac",
        (slowdown(0) + slowdown(1)) / 2.0,
        "ratio",
    ));
    println!("spans of the traced operations (product trace events, summed by name):");
    for (name, us, count) in spans.totals().iter().take(24) {
        println!(
            "  {name:<32} {count:>8} spans {:>12.3} ms",
            *us as f64 / 1e3
        );
    }
    Ok((metrics, tally))
}

/// File-system type of the mount holding `path`, from `/proc/mounts`.
fn filesystem_of(path: &std::path::Path) -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// `git rev-parse HEAD` when run from a git checkout, else `unknown`.
fn git_head() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".into(),
            |out| String::from_utf8_lossy(&out.stdout).trim().into(),
        )
}

fn config(args: &Args) -> Vec<(&'static str, String)> {
    let features: Vec<String> = gf256::kernel::detected_features()
        .iter()
        .map(|(name, on)| format!("{name}={on}"))
        .collect();
    let geometry = |g: workloads::Geometry| {
        format!(
            "{} B blocks x {} stripes = {} B",
            g.block_bytes,
            g.stripes,
            g.object_bytes()
        )
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let tmp = std::env::temp_dir();
    vec![
        ("workload", args.workload.name.into()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("smoke", args.smoke.to_string()),
        ("segments", args.segments().to_string()),
        ("nproc", nproc.to_string()),
        ("nodes", NODES.to_string()),
        ("fanout_threads", FANOUT_THREADS.to_string()),
        ("codes", CODES.map(|c| c.spec).join(" ")),
        ("kernel", gf256::kernel::kernel().name().into()),
        ("cpu_features", features.join(" ")),
        ("telemetry", telemetry::ENABLED.to_string()),
        ("bulk_geometry", geometry(BULK)),
        ("small_geometry", geometry(SMALL)),
        (
            "flush_policy",
            "BlockStore::put: write, sync_all, rename, per block".into(),
        ),
        ("tmp_dir", tmp.display().to_string()),
        ("tmp_fs", filesystem_of(&tmp)),
        ("git_head", git_head()),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("config {}", report::config_json(&config(&args)));
    let measured = if args.trace {
        traced(&args)
    } else {
        Pass::run(
            args.workload,
            args.seed,
            args.seconds,
            args.segments(),
            None,
        )
        .map(|pass| {
            let victims: Vec<_> = pass.segments.iter().map(|s| s.victim).collect();
            println!("victim of each segment: {victims:?}");
            let nominal = args.workload.geometry.reference_secs;
            println!(
                "host-speed reference: {:.1} us per round trip, nominal {:.1} us",
                pass.reference_secs() * 1e6,
                nominal * 1e6
            );
            for (c, code) in CODES.into_iter().enumerate() {
                let tag = code.tag;
                let refs = pass.each(c, |log| log.reference.percentile(50.0) * 1e6);
                println!("reference us around {tag} of each segment: {refs:.1?}");
                let p50s = pass.each(c, |log| log.calibrated.percentile_ms(50.0));
                println!("p50_ms_{tag} of each segment: {p50s:.3?}");
                let raw = pass.each(c, |log| log.samples.percentile_ms(50.0));
                println!("p50_ms_{tag} of each segment, as the clock read it: {raw:.3?}");
                let mbps = pass.each(c, |log| log.raw_mbps());
                println!(
                    "summed-time MBps_{tag} of each segment, as the clock read it: {mbps:.3?}"
                );
            }
            (end_to_end(&pass, args.workload), pass.tally())
        })
    };
    let (metrics, tally) = match measured {
        Ok(measured) => measured,
        Err(e) => {
            eprintln!("benchmark could not run: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report::table(&metrics));
    println!(
        "{}",
        report::result_json(tally.attempted, tally.failed, &metrics)
    );
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{} of {} operations failed", tally.failed, tally.attempted);
        ExitCode::FAILURE
    }
}
