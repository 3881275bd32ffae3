//! End-to-end tests of the `carousel-tool` CLI binary: encode a real file,
//! damage the directory on disk, verify, repair and decode.

use std::path::{Path, PathBuf};
use std::process::Command;

fn tool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_carousel-tool"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("carousel-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn write_input(dir: &Path, len: usize) -> PathBuf {
    let path = dir.join("input.bin");
    let data: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8).collect();
    std::fs::write(&path, data).expect("write input");
    path
}

#[test]
fn encode_damage_repair_decode_round_trip() {
    let dir = temp_dir("roundtrip");
    let input = write_input(&dir, 50_000);
    let enc = dir.join("data.enc");
    let out = dir.join("out.bin");

    let status = tool()
        .args([
            "encode",
            input.to_str().unwrap(),
            enc.to_str().unwrap(),
            "--code",
            "carousel(6,4,4,6)",
        ])
        .status()
        .expect("run encode");
    assert!(status.success());

    // Remove two block files (the code tolerates n - k = 2).
    for (s, b) in [(0, 1), (0, 4)] {
        let status = tool()
            .args([
                "drop",
                enc.to_str().unwrap(),
                &s.to_string(),
                &b.to_string(),
            ])
            .status()
            .expect("run drop");
        assert!(status.success());
    }

    // verify reports the damage but exits successfully (still recoverable).
    let output = tool()
        .args(["verify", enc.to_str().unwrap()])
        .output()
        .expect("run verify");
    assert!(output.status.success());
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("4/6 blocks healthy"), "{text}");

    let status = tool()
        .args(["repair", enc.to_str().unwrap()])
        .status()
        .expect("run repair");
    assert!(status.success());

    let status = tool()
        .args(["decode", enc.to_str().unwrap(), out.to_str().unwrap()])
        .status()
        .expect("run decode");
    assert!(status.success());
    assert_eq!(std::fs::read(&input).unwrap(), std::fs::read(&out).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bitrot_is_quarantined_and_fatal_damage_reported() {
    let dir = temp_dir("bitrot");
    let input = write_input(&dir, 10_000);
    let enc = dir.join("data.enc");
    assert!(tool()
        .args([
            "encode",
            input.to_str().unwrap(),
            enc.to_str().unwrap(),
            "--code",
            "rs(4,2)",
        ])
        .status()
        .unwrap()
        .success());

    // Corrupt one block in place: verify must quarantine it.
    let victim = enc.join("s00000_b001.blk");
    let flip = || {
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes[3] ^= 0x80;
        std::fs::write(&victim, bytes).unwrap();
    };
    flip();
    let verify = || {
        let output = tool()
            .args(["verify", enc.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(output.status.success());
        String::from_utf8_lossy(&output.stdout).into_owned()
    };
    assert!(verify().contains("3/4 blocks healthy"));

    // A block file in the pre-v2 layout (payload ++ CRC-32, no footer) is
    // not trusted and not an error: it loads as missing, and repair
    // rebuilds it along with the bit-rotted one.
    let legacy = enc.join("s00000_b003.blk");
    let stored = std::fs::read(&legacy).unwrap();
    let mut v1 = access::blockfile::read(&legacy).unwrap().unwrap();
    let crc = filestore::checksum::crc32(&v1);
    v1.extend_from_slice(&crc.to_le_bytes());
    std::fs::write(&legacy, v1).unwrap();
    assert!(verify().contains("2/4 blocks healthy"));
    let output = tool()
        .args(["repair", enc.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).contains("repaired 2 block(s)"));
    assert!(verify().contains("fully healthy"));
    assert_eq!(std::fs::read(&legacy).unwrap(), stored, "rewritten as v2");

    flip();
    // Destroy two more blocks: below k, verify must fail loudly.
    std::fs::remove_file(enc.join("s00000_b000.blk")).unwrap();
    std::fs::remove_file(enc.join("s00000_b002.blk")).unwrap();
    let output = tool()
        .args(["verify", enc.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("DATA LOSS"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn range_reads_bytes_to_stdout() {
    let dir = temp_dir("range");
    let input = write_input(&dir, 5_000);
    let enc = dir.join("data.enc");
    assert!(tool()
        .args([
            "encode",
            input.to_str().unwrap(),
            enc.to_str().unwrap(),
            "--code",
            "msr(6,3,4)",
        ])
        .status()
        .unwrap()
        .success());
    let output = tool()
        .args(["range", enc.to_str().unwrap(), "1200", "64"])
        .output()
        .unwrap();
    assert!(output.status.success());
    let expect = &std::fs::read(&input).unwrap()[1200..1264];
    assert_eq!(output.stdout, expect);
    // An offset whose end overflows u64 is a range error, not a panic
    // (or a wrapped-around read).
    let output = tool()
        .args(["range", enc.to_str().unwrap(), "18446744073709551615", "2"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("exceeds file length 5000"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(output.stdout.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `meta` file is outside input: geometry that does not fit the recorded
/// code is refused by name, where it used to divide by zero, index out of
/// bounds, exhaust memory, or silently read the wrong stripe.
#[test]
fn tampered_meta_is_refused_not_trusted() {
    let dir = temp_dir("tamper");
    let input = write_input(&dir, 5_000);
    let enc = dir.join("data.enc");
    let enc_arg = enc.to_str().unwrap();
    let encode = ["encode", input.to_str().unwrap(), enc_arg];
    let geometry = ["--code", "rs(6,4)", "--block-bytes", "256"];
    assert!(tool()
        .args(encode)
        .args(geometry)
        .status()
        .unwrap()
        .success());
    let meta = std::fs::read_to_string(enc.join("meta")).unwrap();
    for (command, field, from, to) in [
        (
            &["range", enc_arg, "0", "10"][..],
            "stripe_data_bytes",
            "stripe_data_bytes=1024",
            "stripe_data_bytes=0",
        ),
        (
            &["range", enc_arg, "0", "10"],
            "stripe_data_bytes",
            "stripe_data_bytes=1024",
            "stripe_data_bytes=7",
        ),
        (
            &["range", enc_arg, "6000", "10"],
            "file_len",
            "file_len=5000",
            "file_len=999999",
        ),
        (
            &["inspect", enc_arg],
            "stripes",
            "stripes=5",
            "stripes=99999999999",
        ),
    ] {
        assert!(meta.contains(from), "fixture records {from}");
        std::fs::write(enc.join("meta"), meta.replace(from, to)).unwrap();
        let output = tool().args(command).output().unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{to}: {stderr}");
        assert!(stderr.contains("bad metadata"), "{to}: {stderr}");
        assert!(stderr.contains(field), "{to}: {stderr}");
        assert!(!stderr.contains("panicked"), "{to}: {stderr}");
        assert!(output.stdout.is_empty(), "{to}");
    }
    // Untouched metadata still serves the range.
    std::fs::write(enc.join("meta"), &meta).unwrap();
    let output = tool()
        .args(["range", enc_arg, "4090", "10"])
        .output()
        .unwrap();
    assert!(output.status.success());
    assert_eq!(output.stdout, &std::fs::read(&input).unwrap()[4090..4100]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn write_updates_in_place() {
    let dir = temp_dir("write");
    let input = write_input(&dir, 8_000);
    let enc = dir.join("data.enc");
    let out = dir.join("out.bin");
    assert!(tool()
        .args([
            "encode",
            input.to_str().unwrap(),
            enc.to_str().unwrap(),
            "--code",
            "carousel(6,3,3,6)",
        ])
        .status()
        .unwrap()
        .success());
    // Patch 500 bytes at offset 1234.
    let patch_path = dir.join("patch.bin");
    let patch: Vec<u8> = (0..500).map(|i| (i * 7 + 99) as u8).collect();
    std::fs::write(&patch_path, &patch).unwrap();
    assert!(tool()
        .args([
            "write",
            enc.to_str().unwrap(),
            "1234",
            patch_path.to_str().unwrap(),
        ])
        .status()
        .unwrap()
        .success());
    // Checksums were refreshed: verify is clean; decode reflects the patch
    // even after losing blocks (parity was updated too).
    assert!(tool()
        .args(["verify", enc.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(tool()
        .args(["drop", enc.to_str().unwrap(), "0", "0"])
        .status()
        .unwrap()
        .success());
    assert!(tool()
        .args(["decode", enc.to_str().unwrap(), out.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let mut expect = std::fs::read(&input).unwrap();
    expect[1234..1734].copy_from_slice(&patch);
    assert_eq!(std::fs::read(&out).unwrap(), expect);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_commands_fail_with_usage() {
    let output = tool().args(["frobnicate"]).output().unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage"));
}

/// `kernels` prints every registered kernel, the CPU features that choose
/// one, the CRC-32 path and the dispatched kernel.
#[test]
fn kernels_subcommand_reports_registry_and_dispatch() {
    let output = tool().args(["kernels"]).output().unwrap();
    assert!(output.status.success());
    let text = String::from_utf8_lossy(&output.stdout).to_string();
    for k in gf256::kernels() {
        assert!(
            text.contains(&format!("  {}", k.name())),
            "kernel {} missing:\n{text}",
            k.name()
        );
    }
    for (feature, _) in gf256::detected_features() {
        assert!(text.contains(feature), "feature {feature} missing:\n{text}");
    }
    assert!(
        text.contains(&format!("crc32: {}\n", gf256::crc32_path())),
        "{text}"
    );
    assert!(
        text.contains(&format!("dispatched kernel: {}\n", gf256::kernel().name())),
        "{text}"
    );
}

/// Full cluster workflow through the CLI: seven `serve` datanode
/// *processes*, then `put` / `get` / kill-a-node / degraded `get` /
/// `repair` / `get` — asserting byte-identical output each time. Seven
/// nodes for 6-wide stripes leaves a spare for the repaired blocks.
#[test]
fn cluster_serve_put_get_repair_round_trip() {
    use std::io::{BufRead, BufReader};

    let dir = temp_dir("cluster");
    let input = write_input(&dir, 20_000);
    let manifest = dir.join("cluster.manifest");

    // Spawn 7 datanodes on ephemeral ports; each prints its address.
    let mut children = Vec::new();
    let mut addrs = Vec::new();
    for id in 0..7 {
        let mut child = tool()
            .args([
                "serve",
                dir.join(format!("node{id}")).to_str().unwrap(),
                "--id",
                &id.to_string(),
            ])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn datanode");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("banner");
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .expect("address in banner")
            .to_string();
        addrs.push(addr);
        children.push(child);
    }

    let status = tool()
        .args([
            "put",
            input.to_str().unwrap(),
            manifest.to_str().unwrap(),
            "--nodes",
            &addrs.join(","),
            "--code",
            "carousel(6,4,4,6)",
            "--threads",
            "2",
        ])
        .status()
        .expect("run put");
    assert!(status.success());

    let out = dir.join("roundtrip.bin");
    assert!(tool()
        .args(["get", manifest.to_str().unwrap(), out.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let expect = std::fs::read(&input).unwrap();
    assert_eq!(std::fs::read(&out).unwrap(), expect);

    // Kill a datanode that actually hosts blocks of stripe 0 (read from
    // `manifest dump`'s placement line — the manifest itself is a binary
    // record log); get must degrade transparently.
    let dump = tool()
        .args(["manifest", "dump", manifest.to_str().unwrap()])
        .output()
        .expect("run manifest dump");
    assert!(dump.status.success());
    let text = String::from_utf8_lossy(&dump.stdout).to_string();
    let victim: usize = text
        .lines()
        .find_map(|l| l.strip_prefix("place_0_0="))
        .expect("placement line")
        .split(',')
        .next()
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    children[victim].kill().expect("kill datanode");
    let _ = children[victim].wait();
    let degraded = dir.join("degraded.bin");
    assert!(tool()
        .args([
            "get",
            manifest.to_str().unwrap(),
            degraded.to_str().unwrap()
        ])
        .status()
        .unwrap()
        .success());
    assert_eq!(std::fs::read(&degraded).unwrap(), expect);

    // Network repair (polymorphic `repair` on a manifest path): rebuilds
    // the dead node's blocks onto the survivors and rewrites the manifest.
    let output = tool()
        .args(["repair", manifest.to_str().unwrap()])
        .output()
        .expect("run repair");
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).contains("repaired"));

    let repaired = dir.join("repaired.bin");
    assert!(tool()
        .args([
            "get",
            manifest.to_str().unwrap(),
            repaired.to_str().unwrap()
        ])
        .status()
        .unwrap()
        .success());
    assert_eq!(std::fs::read(&repaired).unwrap(), expect);

    for mut child in children {
        let _ = child.kill();
        let _ = child.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
