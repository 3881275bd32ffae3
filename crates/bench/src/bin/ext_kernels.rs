//! Kernel-engine benchmark: GB/s of every registered GF(2⁸) kernel
//! (scalar reference, 4-bit split tables, 64-bit SWAR, plus whatever
//! SIMD kernels runtime CPU-feature detection registered — SSSE3/AVX2
//! PSHUFB on x86-64, NEON on aarch64) across buffer sizes, plus the
//! fused multi-row `mul_acc_rows` path across code geometries, plus
//! `gf256::crc32` on the path detection chose against the bytewise loop
//! it replaced — the measurements behind `docs/PERFORMANCE.md`.
//!
//! Writes `results/BENCH_kernels.json`. Knobs: `BENCH_MB` (MiB of data
//! per timing rep, default 64), `BENCH_REPS` (best-of reps, default 5).
//! `--smoke` runs tiny buffers in milliseconds, writes the JSON to a
//! temporary file and asserts every kernel produced plausible numbers
//! *and* that the detected-best kernel is no slower than `swar` and the
//! active CRC-32 path no slower than bytewise — the CI-sized sanity pass
//! wired into `scripts/check.sh`.

use std::hint::black_box;
use std::sync::LazyLock;
use std::time::Instant;

use bench_support::{env_knob, render_table};
use gf256::{Gf256, KernelHandle};

/// One measured point: a kernel at a buffer size (raw) or geometry (fused).
struct Sample {
    kernel: &'static str,
    label: String,
    gbps: f64,
}

/// Best-of-`reps` throughput of `f`, which processes `bytes` per call.
fn best_gbps(bytes: usize, reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let secs = t0.elapsed().as_secs_f64().max(1e-9);
        best = best.max((bytes * iters) as f64 / secs / 1e9);
    }
    best
}

/// Raw `mul_acc` throughput for one kernel over one buffer size.
fn measure_mul_acc(kernel: KernelHandle, size: usize, per_rep: usize, reps: usize) -> f64 {
    let src: Vec<u8> = (0..size).map(|i| (i * 131 + 7) as u8).collect();
    let mut dst = vec![0x15u8; size];
    let iters = (per_rep / size).max(1);
    let c = Gf256::new(0xA7);
    best_gbps(size, reps, iters, || kernel.mul_acc(c, &src, &mut dst))
}

/// The bytewise table loop `gf256::crc32` ran before slicing-by-8 and the
/// PCLMULQDQ fold: the baseline the active path is measured against.
fn crc32_bytewise(data: &[u8]) -> u32 {
    const POLY: u32 = 0xEDB8_8320; // IEEE, reflected
    static TABLE: LazyLock<[u32; 256]> = LazyLock::new(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 { (c >> 1) ^ POLY } else { c >> 1 };
            }
            *slot = c;
        }
        t
    });
    let mut c = !0u32;
    for &b in data {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// CRC-32 throughput of `crc` over one buffer size.
fn measure_crc32(crc: fn(&[u8]) -> u32, size: usize, per_rep: usize, reps: usize) -> f64 {
    let data: Vec<u8> = (0..size).map(|i| (i * 131 + 7) as u8).collect();
    let iters = (per_rep / size).max(1);
    best_gbps(size, reps, iters, || {
        black_box(crc(black_box(&data)));
    })
}

/// Fused-encode throughput: `n - k` parity rows, each a `mul_acc_rows`
/// over `k` source blocks of `block` bytes. Reported as data GB/s:
/// `k · block` source bytes divided by the time to produce *all* parity
/// rows, the convention of Fig. 6.
fn measure_fused(
    kernel: KernelHandle,
    n: usize,
    k: usize,
    block: usize,
    per_rep: usize,
    reps: usize,
) -> f64 {
    let data: Vec<Vec<u8>> = (0..k)
        .map(|j| (0..block).map(|i| (i * 29 + j * 17 + 3) as u8).collect())
        .collect();
    let mut parity = vec![0u8; block];
    let mut terms: Vec<(Gf256, &[u8])> = Vec::with_capacity(k);
    let iters = (per_rep / (k * block * (n - k))).max(1);
    best_gbps(k * block, reps, iters, || {
        for r in 0..n - k {
            terms.clear();
            // Vandermonde-style row: coefficients g^(r·j), never 0 or 1.
            let g = Gf256::new(2);
            let mut c = g.pow((r + 1) as u32);
            for row in &data {
                terms.push((c, &row[..]));
                c *= g;
            }
            parity.fill(0);
            kernel.mul_acc_rows(&terms, &mut parity);
        }
    })
}

/// Serializes the samples as a JSON document (no serde in this workspace).
/// The `config` block makes the file self-describing: which kernel the
/// runtime dispatcher picked on this machine, which kernels and CPU
/// features detection registered, and how much data each rep processed,
/// so archived results can be compared apples-to-apples.
fn to_json(
    reps: usize,
    smoke: bool,
    per_rep: usize,
    raw: &[Sample],
    fused: &[Sample],
    crc: &[Sample],
) -> String {
    let rows = |samples: &[Sample]| -> String {
        samples
            .iter()
            .map(|s| {
                format!(
                    "    {{\"kernel\": \"{}\", \"case\": \"{}\", \"gbps\": {:.3}}}",
                    s.kernel, s.label, s.gbps
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let kernel_names = gf256::kernels()
        .iter()
        .map(|k| format!("\"{}\"", k.name()))
        .collect::<Vec<_>>()
        .join(", ");
    let features = gf256::detected_features()
        .iter()
        .map(|(name, on)| format!("\"{name}\": {on}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\n  \"bench\": \"kernels\",\n  \"reps\": {reps},\n  \"smoke\": {smoke},\n  \
         \"config\": {{\"dispatched_kernel\": \"{}\", \"detected_best\": \"{}\", \
         \"bytes_per_rep\": {per_rep}, \"crc32_path\": \"{}\", \
         \"kernels\": [{kernel_names}], \"cpu_features\": {{{features}}}}},\n  \
         \"mul_acc\": [\n{}\n  ],\n  \"fused_encode\": [\n{}\n  ],\n  \
         \"crc32\": [\n{}\n  ]\n}}\n",
        gf256::kernel().name(),
        gf256::detected_best().name(),
        gf256::crc32_path(),
        rows(raw),
        rows(fused),
        rows(crc)
    )
}

fn main() {
    let _metrics = bench_support::init_metrics("ext_kernels");
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = env_knob("BENCH_REPS", if smoke { 3 } else { 5 });
    let per_rep = env_knob("BENCH_MB", if smoke { 1 } else { 64 }) << 20;

    let sizes: &[usize] = if smoke {
        &[1 << 10, 64 << 10]
    } else {
        &[4 << 10, 64 << 10, 1 << 20]
    };
    let geometries: &[(usize, usize)] = if smoke {
        &[(4, 2)]
    } else {
        &[(6, 3), (12, 6), (14, 10)]
    };
    // Fused blocks: the L2-resident size the combine loops usually see,
    // plus a full 1 MiB block in the full run (the acceptance-bar case:
    // detected-best ≥5× swar on 1 MiB `mul_acc_rows`).
    let fused_blocks: &[usize] = if smoke {
        &[4 << 10]
    } else {
        &[256 << 10, 1 << 20]
    };

    let mut raw = Vec::new();
    for kernel in gf256::kernels().iter().copied() {
        for &size in sizes {
            raw.push(Sample {
                kernel: kernel.name(),
                label: format!("{size}B"),
                gbps: measure_mul_acc(kernel, size, per_rep, reps),
            });
        }
    }
    let mut fused = Vec::new();
    for kernel in gf256::kernels().iter().copied() {
        for &fused_block in fused_blocks {
            for &(n, k) in geometries {
                fused.push(Sample {
                    kernel: kernel.name(),
                    label: format!("({n},{k}) x {fused_block}B"),
                    gbps: measure_fused(kernel, n, k, fused_block, per_rep, reps),
                });
            }
        }
    }

    // The block-file chunk and about a bulk block, in smoke runs too: the
    // fold only starts at 128 bytes.
    let crc_sizes = [4 << 10, 1 << 20];
    let mut crc = Vec::new();
    for (path, f) in [
        ("bytewise", crc32_bytewise as fn(&[u8]) -> u32),
        (gf256::crc32_path(), gf256::crc32),
    ] {
        for size in crc_sizes {
            crc.push(Sample {
                kernel: path,
                label: format!("{size}B"),
                gbps: measure_crc32(f, size, per_rep, reps),
            });
        }
    }

    println!("== Kernel engine: raw mul_acc throughput (GB/s, best of {reps}) ==");
    let table = |samples: &[Sample]| -> Vec<Vec<String>> {
        samples
            .iter()
            .map(|s| {
                vec![
                    s.kernel.to_string(),
                    s.label.clone(),
                    format!("{:.2}", s.gbps),
                ]
            })
            .collect()
    };
    println!(
        "{}",
        render_table(&["kernel", "case", "GB/s"], &table(&raw))
    );
    println!("== Fused mul_acc_rows encode (data GB/s, all parity rows) ==");
    println!(
        "{}",
        render_table(&["kernel", "case", "GB/s"], &table(&fused))
    );
    println!("== crc32: active path vs the bytewise loop (GB/s) ==");
    println!("{}", render_table(&["path", "case", "GB/s"], &table(&crc)));

    let biggest = *sizes.last().expect("sizes nonempty");
    let at = |name: &str| -> f64 {
        raw.iter()
            .find(|s| s.kernel == name && s.label == format!("{biggest}B"))
            .map_or(0.0, |s| s.gbps)
    };
    let best = gf256::detected_best();
    let (scalar, swar, best_gbps) = (at("scalar"), at("swar"), at(best.name()));
    println!(
        "swar is {:.2}x scalar on {biggest}-byte buffers ({swar:.2} vs {scalar:.2} GB/s)",
        swar / scalar.max(1e-9)
    );
    println!(
        "detected best ({}) is {:.2}x swar on {biggest}-byte buffers ({best_gbps:.2} vs {swar:.2} GB/s)",
        best.name(),
        best_gbps / swar.max(1e-9)
    );

    let json = to_json(reps, smoke, per_rep, &raw, &fused, &crc);
    let path = if smoke {
        std::env::temp_dir().join("BENCH_kernels.smoke.json")
    } else {
        std::fs::create_dir_all("results").expect("create results/");
        std::path::PathBuf::from("results/BENCH_kernels.json")
    };
    std::fs::write(&path, &json).expect("write bench json");
    println!("wrote {} ({} bytes)", path.display(), json.len());

    if smoke {
        // Sanity gates for CI: every registered kernel measured, numbers
        // are positive and finite, and the document round-trips as JSON
        // structure (balanced, non-empty, mentions each kernel by name).
        let reread = std::fs::read_to_string(&path).expect("re-read bench json");
        assert!(reread.starts_with('{') && reread.trim_end().ends_with('}'));
        assert_eq!(
            reread.matches('{').count(),
            reread.matches('}').count(),
            "unbalanced JSON braces"
        );
        for kernel in gf256::kernels() {
            assert!(
                reread.contains(&format!("\"kernel\": \"{}\"", kernel.name())),
                "kernel {} missing from JSON",
                kernel.name()
            );
        }
        for s in raw.iter().chain(&fused).chain(&crc) {
            assert!(
                s.gbps.is_finite() && s.gbps > 0.0,
                "bogus throughput for {} {}",
                s.kernel,
                s.label
            );
        }
        // Runtime dispatch must have paid off: the detected-best kernel is
        // at least as fast as the portable swar baseline. Only asserted
        // when a SIMD kernel was actually detected — when best *is* swar,
        // the comparison would be the same measurement twice plus noise.
        if best.name() != "swar" {
            assert!(
                best_gbps >= swar,
                "detected best ({}) measured {best_gbps:.2} GB/s, below swar's {swar:.2} GB/s",
                best.name()
            );
        }
        // And the CRC path detection chose beats the loop it replaced.
        let crc_at = |path: &str| -> f64 {
            crc.iter()
                .find(|s| s.kernel == path && s.label == format!("{}B", 1 << 20))
                .map_or(0.0, |s| s.gbps)
        };
        let (bytewise, active) = (crc_at("bytewise"), crc_at(gf256::crc32_path()));
        assert!(
            active >= bytewise,
            "crc32 path {} measured {active:.2} GB/s, below bytewise's {bytewise:.2} GB/s",
            gf256::crc32_path()
        );
        println!(
            "smoke: all {} kernels measured, JSON well-formed, best ({}) >= swar, \
             crc32 ({}) >= bytewise",
            gf256::kernels().len(),
            best.name(),
            gf256::crc32_path()
        );
    } else {
        if swar < 2.0 * scalar {
            eprintln!(
                "warning: swar/scalar ratio {:.2} below the 2x acceptance bar",
                swar / scalar.max(1e-9)
            );
        }
        // The SIMD acceptance bars (full run only): avx2 ≥5× and ssse3 ≥3×
        // over swar on 1 MiB buffers, raw and fused alike.
        let fused_at = |name: &str| -> f64 {
            fused
                .iter()
                .find(|s| s.kernel == name && s.label == format!("(6,3) x {}B", 1 << 20))
                .map_or(0.0, |s| s.gbps)
        };
        for (name, bar) in [("avx2", 5.0), ("ssse3", 3.0)] {
            if gf256::by_name(name).is_none() {
                continue;
            }
            let ratio = at(name) / swar.max(1e-9);
            let fused_ratio = fused_at(name) / fused_at("swar").max(1e-9);
            println!(
                "{name}: {ratio:.2}x swar raw, {fused_ratio:.2}x swar fused \
                 (bar: {bar:.0}x) on 1 MiB"
            );
            if ratio < bar {
                eprintln!("warning: {name}/swar raw ratio {ratio:.2} below the {bar:.0}x bar");
            }
        }
    }
}
