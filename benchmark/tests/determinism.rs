//! The benchmark's inputs come from `--seed` alone: two `--smoke` runs
//! with one seed agree on every count, and another seed moves the
//! placement and the offsets but not the ratios.

use std::process::Command;

/// Runs the benchmark binary with a scratch `TMPDIR` under the target
/// directory; returns its standard output.
fn run(workload: &str, seed: u64, trace: bool) -> String {
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("determinism");
    std::fs::create_dir_all(&tmp).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_carousel-benchmark"))
        .args([
            "--workload",
            workload,
            "--smoke",
            "--seed",
            &seed.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("TMPDIR", &tmp)
        .env_remove("CAROUSEL_KERNEL")
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The value of metric `name` in the result line (the last line).
fn metric(stdout: &str, name: &str) -> f64 {
    let result = stdout.lines().last().expect("a result line");
    let key = format!("\"{name}\":{{\"value\":");
    let rest = result
        .split(&key)
        .nth(1)
        .unwrap_or_else(|| panic!("no metric {name} in {result}"));
    let number: String = rest.chars().take_while(|c| *c != ',').collect();
    number.parse().expect("a number")
}

/// The line naming the node each segment took down first.
fn victims(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|l| l.starts_with("victim of each segment"))
        .expect("a victims line")
}

#[test]
fn same_seed_same_counts() {
    for workload in ["failure", "repair", "smallwrites"] {
        let (a, b) = (run(workload, 7, false), run(workload, 7, false));
        for name in ["wire_amp_rs", "wire_amp_carousel"] {
            assert_eq!(metric(&a, name), metric(&b, name), "{workload} {name}");
        }
        assert_eq!(victims(&a), victims(&b), "{workload} victims");
        assert!(a
            .lines()
            .last()
            .expect("result")
            .starts_with("{\"correct\":true,"));
    }
}

#[test]
fn other_seed_moves_placement_not_ratios() {
    let (a, b) = (run("failure", 7, false), run("failure", 8, false));
    assert_ne!(victims(&a), victims(&b), "victims follow the seed");
    // After the death is known a degraded read moves hardly more than a
    // healthy one, wherever the blocks sit.
    for name in ["wire_amp_rs", "wire_amp_carousel"] {
        let (x, y) = (metric(&a, name), metric(&b, name));
        assert!((x - y).abs() / x < 0.01, "{name}: {x} vs {y}");
    }
    // A 16 KiB read inside one stripe costs one stripe, wherever it lands.
    let (a, b) = (run("smallreads", 7, false), run("smallreads", 8, false));
    for name in ["wire_amp_rs", "wire_amp_carousel"] {
        assert_eq!(metric(&a, name), metric(&b, name), "smallreads {name}");
    }
}

#[test]
fn traced_counts_repeat_and_show_the_papers_parallelism() {
    let (a, b) = (run("smallreads", 7, true), run("smallreads", 7, true));
    for name in [
        "erasure.encode_mul_ops_rs",
        "erasure.encode_mul_ops_carousel",
        "access.read_parallelism_rs",
        "access.read_parallelism_carousel",
    ] {
        assert_eq!(metric(&a, name), metric(&b, name), "{name}");
    }
    assert_eq!(metric(&a, "access.read_parallelism_rs"), 6.0);
    assert_eq!(metric(&a, "access.read_parallelism_carousel"), 12.0);
}
