//! `carousel-tool` — encode, inspect, damage, repair and decode real files
//! with Carousel or Reed-Solomon codes, using the on-disk block format of
//! the `carousel-filestore` crate.
//!
//! ```text
//! carousel-tool encode <input> <dir> [--code carousel(n,k,d,p)|rs(n,k)|msr(n,k,d)|mbr(n,k,d)] [--block-bytes N] [--threads N]
//! carousel-tool decode <dir> <output> [--threads N]
//! carousel-tool inspect <dir>
//! carousel-tool drop <dir> <stripe> <block>
//! carousel-tool repair <dir | manifest> [--file NAME]
//! carousel-tool verify <dir>
//! carousel-tool range <dir> <offset> <len>
//! carousel-tool write <dir> <offset> <patch-file>
//! carousel-tool serve <store-dir> [--addr HOST:PORT] [--id N]
//! carousel-tool put <input> <manifest> --nodes addr,addr,... [--code SPEC] [--block-bytes N] [--threads N] [--seed N]
//! carousel-tool get <manifest> <output> [--file NAME]
//! carousel-tool delete <manifest> [--file NAME]
//! carousel-tool manifest dump <manifest>
//! carousel-tool manifest compact <manifest>
//! carousel-tool stats <addr>
//! carousel-tool repair-status <addr>   (the repair.* part of `stats`)
//! carousel-tool kernels
//! ```
//!
//! The cluster commands run against a *live* TCP cluster: `serve`
//! starts a foreground datanode, `put` encodes + places + uploads a file
//! across datanodes while appending every registration and placement to
//! a durable metadata record log (the *manifest*), `get` replays that
//! log and reads the file back (degrading transparently if nodes died),
//! `stats` scrapes one node's telemetry registry over the wire, and
//! `repair-status` reads the process-wide background-repair scoreboard
//! (queue depth, in-flight rebuilds, completion counters) out of that
//! same scrape. `repair` is
//! polymorphic: given a block directory it repairs locally, given a
//! manifest log it rebuilds missing blocks over the network, committing
//! every re-homed block back to the log. `manifest dump` prints the
//! log's surviving records and current placements; `manifest compact`
//! collapses its history into a snapshot.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use access::{AnyCode, CodeSpec};
use access::{ObjectStore, PutOptions};
use cluster::{ClusterClient, Coordinator, DataNodeConfig};
use erasure::ErasureCode;
use filestore::format;
use filestore::{FileCodec, FileError};
use workloads::parallel::ParallelCtx;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("usage:");
            eprintln!("  carousel-tool encode <input> <dir> [--code carousel(n,k,d,p)|rs(n,k)|msr(n,k,d)|mbr(n,k,d)] [--block-bytes N] [--threads N]");
            eprintln!("  carousel-tool decode <dir> <output> [--threads N]");
            eprintln!("  carousel-tool inspect <dir>");
            eprintln!("  carousel-tool drop <dir> <stripe> <block>");
            eprintln!("  carousel-tool repair <dir | manifest> [--file NAME]");
            eprintln!("  carousel-tool verify <dir>");
            eprintln!("  carousel-tool range <dir> <offset> <len>");
            eprintln!("  carousel-tool write <dir> <offset> <patch-file>");
            eprintln!("  carousel-tool serve <store-dir> [--addr HOST:PORT] [--id N]");
            eprintln!("  carousel-tool put <input> <manifest> --nodes addr,addr,... [--code SPEC] [--block-bytes N] [--threads N] [--seed N]");
            eprintln!("  carousel-tool get <manifest> <output> [--file NAME]");
            eprintln!("  carousel-tool delete <manifest> [--file NAME]");
            eprintln!("  carousel-tool manifest dump <manifest>");
            eprintln!("  carousel-tool manifest compact <manifest>");
            eprintln!("  carousel-tool stats <addr>");
            eprintln!("  carousel-tool repair-status <addr>   (the repair.* part of `stats`)");
            eprintln!("  carousel-tool kernels");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().ok_or("missing command")?;
    match cmd.as_str() {
        "encode" => encode(&args[1..]),
        "decode" => decode(&args[1..]),
        "inspect" => inspect(&args[1..]),
        "drop" => drop_block(&args[1..]),
        "repair" => repair(&args[1..]),
        "verify" => verify(&args[1..]),
        "range" => range(&args[1..]),
        "write" => write_cmd(&args[1..]),
        "serve" => serve(&args[1..]),
        "put" => put_cluster(&args[1..]),
        "get" => get_cluster(&args[1..]),
        "delete" => delete_cluster(&args[1..]),
        "manifest" => manifest_cmd(&args[1..]),
        "stats" => stats_cluster(&args[1..]),
        "repair-status" => repair_status_cluster(&args[1..]),
        "kernels" => kernels_cmd(&args[1..]),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn err_str(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn encode(args: &[String]) -> Result<(), String> {
    let input = args.first().ok_or("encode: missing <input>")?;
    let dir = args.get(1).ok_or("encode: missing <dir>")?;
    let mut spec = CodeSpec::Carousel {
        n: 12,
        k: 6,
        d: 10,
        p: 12,
    };
    let mut block_bytes: Option<usize> = None;
    let mut ctx = ParallelCtx::sequential();
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--code" => {
                let v = args.get(i + 1).ok_or("--code needs a value")?;
                spec = CodeSpec::parse(v).map_err(err_str)?;
                i += 2;
            }
            "--block-bytes" => {
                let v = args.get(i + 1).ok_or("--block-bytes needs a value")?;
                block_bytes = Some(v.parse().map_err(|_| "invalid --block-bytes")?);
                i += 2;
            }
            "--threads" => {
                ctx = parse_threads(args.get(i + 1))?;
                i += 2;
            }
            other => return Err(format!("encode: unknown flag {other:?}")),
        }
    }
    let data = std::fs::read(input).map_err(err_str)?;
    let code = spec.build().map_err(err_str)?;
    let block_bytes = block_bytes.unwrap_or_else(|| one_stripe_block_bytes(&code, data.len()));
    let codec = FileCodec::new(code, block_bytes).map_err(err_str)?;
    let encoded = workloads::parallel::encode_file(&codec, &data, &ctx).map_err(err_str)?;
    format::save(Path::new(dir), spec, &encoded).map_err(err_str)?;
    println!(
        "encoded {} bytes with {spec}: {} stripe(s) x {} blocks of {} bytes -> {dir} ({} thread(s))",
        data.len(),
        encoded.stripes(),
        encoded.meta().n,
        block_bytes,
        ctx.threads()
    );
    Ok(())
}

/// The default block size: the smallest that holds `len` bytes in one
/// stripe (`message_units` units of data, `sub` units per block).
fn one_stripe_block_bytes(code: &impl ErasureCode, len: usize) -> usize {
    let linear = code.linear();
    linear.sub() * len.div_ceil(linear.message_units()).max(1)
}

/// Parses a `--threads` value into a parallel context; `0` means "all
/// available cores" (resolved once by the builder).
fn parse_threads(value: Option<&String>) -> Result<ParallelCtx, String> {
    let v: usize = value
        .ok_or("--threads needs a value")?
        .parse()
        .map_err(|_| "invalid --threads")?;
    Ok(ParallelCtx::builder().threads(v).build())
}

fn load_dir(args: &[String]) -> Result<(PathBuf, filestore::EncodedFile<AnyCode>), String> {
    let dir = PathBuf::from(args.first().ok_or("missing <dir>")?);
    let file = format::load(&dir).map_err(err_str)?;
    Ok((dir, file))
}

fn decode(args: &[String]) -> Result<(), String> {
    let (_, file) = load_dir(args)?;
    let output = args.get(1).ok_or("decode: missing <output>")?;
    let mut ctx = ParallelCtx::sequential();
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                ctx = parse_threads(args.get(i + 1))?;
                i += 2;
            }
            other => return Err(format!("decode: unknown flag {other:?}")),
        }
    }
    let data = workloads::parallel::decode_file(&file, &ctx).map_err(err_str)?;
    std::fs::write(output, &data).map_err(err_str)?;
    println!(
        "decoded {} bytes -> {output} ({} thread(s))",
        data.len(),
        ctx.threads()
    );
    Ok(())
}

fn inspect(args: &[String]) -> Result<(), String> {
    let dir = PathBuf::from(args.first().ok_or("inspect: missing <dir>")?);
    let (spec, meta) = format::read_meta(&dir).map_err(err_str)?;
    let file = format::load(&dir).map_err(err_str)?;
    let code = spec.build().map_err(err_str)?;
    println!("code:        {}", code.name());
    println!("file length: {} bytes", meta.file_len);
    println!("block size:  {} bytes", meta.block_bytes);
    println!(
        "stripes:     {} ({} blocks each, {} data)",
        meta.stripes, meta.n, meta.k
    );
    println!(
        "parallelism: {} data-bearing blocks per stripe",
        code.parallelism()
    );
    println!(
        "storage:     {:.2}x overhead, tolerates {} failures per stripe",
        meta.n as f64 / meta.k as f64,
        meta.n - meta.k
    );
    for s in 0..meta.stripes {
        let live = file.live_blocks(s);
        let missing: Vec<usize> = (0..meta.n).filter(|b| !live.contains(b)).collect();
        if missing.is_empty() {
            println!("stripe {s}: all {} blocks present", meta.n);
        } else {
            println!("stripe {s}: missing blocks {missing:?}");
        }
    }
    Ok(())
}

fn drop_block(args: &[String]) -> Result<(), String> {
    let dir = PathBuf::from(args.first().ok_or("drop: missing <dir>")?);
    let stripe: usize = args
        .get(1)
        .ok_or("drop: missing <stripe>")?
        .parse()
        .map_err(|_| "invalid stripe index")?;
    let block: usize = args
        .get(2)
        .ok_or("drop: missing <block>")?
        .parse()
        .map_err(|_| "invalid block index")?;
    let path = dir.join(format::block_file_name(stripe, block));
    std::fs::remove_file(&path).map_err(err_str)?;
    println!("removed {}", path.display());
    Ok(())
}

/// Polymorphic repair: a directory is a local block store (repair in
/// process), a file is a cluster manifest (repair over the network).
fn repair(args: &[String]) -> Result<(), String> {
    let target = Path::new(args.first().ok_or("repair: missing <dir | manifest>")?);
    if target.is_file() {
        return repair_cluster(args);
    }
    let (dir, mut file) = load_dir(args)?;
    let (spec, meta) = format::read_meta(&dir).map_err(err_str)?;
    let mut repaired = 0;
    for s in 0..meta.stripes {
        let live = file.live_blocks(s);
        for b in 0..meta.n {
            if !live.contains(&b) {
                file.repair_block(s, b)
                    .map_err(|e| format!("stripe {s} block {b}: {e}"))?;
                repaired += 1;
            }
        }
    }
    if repaired == 0 {
        println!("nothing to repair");
        return Ok(());
    }
    format::save(&dir, spec, &file).map_err(err_str)?;
    println!("repaired {repaired} block(s) in {}", dir.display());
    Ok(())
}

/// Scrub: verify every block against its own chunk checksums and report the
/// recovery headroom of each stripe. With `--deep`, additionally runs the
/// checksum-free consistency check (subset-vote corruption localization).
fn verify(args: &[String]) -> Result<(), String> {
    let dir = PathBuf::from(args.first().ok_or("verify: missing <dir>")?);
    let deep = args.iter().any(|a| a == "--deep");
    let (_, meta) = format::read_meta(&dir).map_err(err_str)?;
    // `load` quarantines corrupt blocks, so live_blocks reflects integrity.
    let file = format::load(&dir).map_err(err_str)?;
    let mut worst = meta.n;
    let mut damaged = 0usize;
    for s in 0..meta.stripes {
        let live = file.live_blocks(s).len();
        worst = worst.min(live);
        if live < meta.n {
            damaged += 1;
            println!("stripe {s}: {live}/{} blocks healthy", meta.n);
        }
    }
    if damaged == 0 {
        println!("all {} stripe(s) fully healthy", meta.stripes);
    }
    if worst < meta.k {
        return Err(format!(
            "DATA LOSS: a stripe has only {worst} healthy blocks (need {})",
            meta.k
        ));
    }
    println!(
        "recoverable: worst stripe has {worst} healthy blocks (need {}), \
         can lose {} more",
        meta.k,
        worst - meta.k
    );
    if deep {
        for (s, health) in file.scrub().into_iter().enumerate() {
            match health {
                Some(filestore::StripeHealth::Consistent) => {}
                Some(filestore::StripeHealth::Corrupt(blocks)) => {
                    println!("deep scrub: stripe {s} blocks {blocks:?} inconsistent");
                }
                Some(filestore::StripeHealth::Undecidable) => {
                    println!("deep scrub: stripe {s} undecidable");
                }
                None => println!("deep scrub: stripe {s} skipped (missing blocks)"),
            }
        }
        println!("deep scrub complete");
    }
    Ok(())
}

fn range(args: &[String]) -> Result<(), String> {
    let (_, file) = load_dir(args)?;
    let offset: u64 = args
        .get(1)
        .ok_or("range: missing <offset>")?
        .parse()
        .map_err(|_| "invalid offset")?;
    let len: u64 = args
        .get(2)
        .ok_or("range: missing <len>")?
        .parse()
        .map_err(|_| "invalid length")?;
    let bytes = file.read_range(offset, len).map_err(err_str)?;
    use std::io::Write;
    std::io::stdout().write_all(&bytes).map_err(err_str)?;
    Ok(())
}

/// In-place overwrite at an offset: data blocks and parity are updated via
/// delta writes (no re-encode), then saved back with fresh checksums.
fn write_cmd(args: &[String]) -> Result<(), String> {
    let (dir, mut file) = load_dir(args)?;
    let offset: u64 = args
        .get(1)
        .ok_or("write: missing <offset>")?
        .parse()
        .map_err(|_| "invalid offset")?;
    let patch_path = args.get(2).ok_or("write: missing <patch-file>")?;
    let patch = std::fs::read(patch_path).map_err(err_str)?;
    file.write_range(offset, &patch).map_err(err_str)?;
    let (spec, _) = format::read_meta(&dir).map_err(err_str)?;
    format::save(&dir, spec, &file).map_err(err_str)?;
    println!(
        "wrote {} bytes at offset {offset} (parity updated in place)",
        patch.len()
    );
    Ok(())
}

/// Runs one datanode in the foreground, printing its bound address (so
/// wrappers can use `--addr 127.0.0.1:0` for an ephemeral port).
fn serve(args: &[String]) -> Result<(), String> {
    let root = args.first().ok_or("serve: missing <store-dir>")?;
    let mut addr = String::from("127.0.0.1:0");
    let mut id = 0usize;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                addr = args.get(i + 1).ok_or("--addr needs a value")?.clone();
                i += 2;
            }
            "--id" => {
                id = args
                    .get(i + 1)
                    .ok_or("--id needs a value")?
                    .parse()
                    .map_err(|_| "invalid --id")?;
                i += 2;
            }
            other => return Err(format!("serve: unknown flag {other:?}")),
        }
    }
    cluster::serve_forever(&addr, DataNodeConfig::new(id, root)).map_err(err_str)
}

/// Builds a coordinator with a fresh record log at `manifest` and
/// registers the explicitly-listed datanode addresses (each
/// registration is the log's first records).
fn coordinator_for(nodes: &str, manifest: &Path) -> Result<Arc<Coordinator>, String> {
    let coord = Coordinator::create_log(manifest).map_err(err_str)?;
    for (id, addr) in nodes.split(',').enumerate() {
        let addr = addr
            .trim()
            .parse()
            .map_err(|_| format!("invalid node address {addr:?}"))?;
        coord.register(id, addr);
    }
    Ok(Arc::new(coord))
}

/// Replays a record-log manifest and pings the recovered nodes:
/// replayed registrations start *dead*, so a live probe is what
/// separates the nodes still serving from the ones that went away.
fn open_manifest(manifest: &Path) -> Result<Arc<Coordinator>, String> {
    let coord = Coordinator::open_log(manifest).map_err(err_str)?;
    coord.verify_nodes(std::time::Duration::from_secs(2));
    Ok(Arc::new(coord))
}

/// Encodes, places and uploads a file across live datanodes, writing the
/// cluster manifest that `get` and `repair` consume.
fn put_cluster(args: &[String]) -> Result<(), String> {
    let input = args.first().ok_or("put: missing <input>")?;
    let manifest = args.get(1).ok_or("put: missing <manifest>")?;
    let mut nodes: Option<String> = None;
    let mut spec = CodeSpec::Carousel {
        n: 9,
        k: 6,
        d: 6,
        p: 9,
    };
    let mut block_bytes: Option<usize> = None;
    let mut ctx = ParallelCtx::sequential();
    let mut seed = 17u64;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--nodes" => {
                nodes = Some(args.get(i + 1).ok_or("--nodes needs a value")?.clone());
                i += 2;
            }
            "--code" => {
                let v = args.get(i + 1).ok_or("--code needs a value")?;
                spec = CodeSpec::parse(v).map_err(err_str)?;
                i += 2;
            }
            "--block-bytes" => {
                let v = args.get(i + 1).ok_or("--block-bytes needs a value")?;
                block_bytes = Some(v.parse().map_err(|_| "invalid --block-bytes")?);
                i += 2;
            }
            "--threads" => {
                ctx = parse_threads(args.get(i + 1))?;
                i += 2;
            }
            "--seed" => {
                seed = args
                    .get(i + 1)
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "invalid --seed")?;
                i += 2;
            }
            other => return Err(format!("put: unknown flag {other:?}")),
        }
    }
    let nodes = nodes.ok_or("put: --nodes addr,addr,... is required")?;
    let coord = coordinator_for(&nodes, Path::new(manifest))?;
    let data = std::fs::read(input).map_err(err_str)?;
    let code = spec.build().map_err(err_str)?;
    let block_bytes = block_bytes.unwrap_or_else(|| one_stripe_block_bytes(&code, data.len()));
    let name = Path::new(input)
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or("put: input has no usable file name")?;
    let mut client = ClusterClient::new(Arc::clone(&coord))
        .with_fanout(ctx)
        .with_seed(seed);
    let opts = PutOptions::new()
        .code(&spec.to_string())
        .block_bytes(block_bytes);
    client.put_opts(name, &data, &opts).map_err(err_str)?;
    let fp = coord.file(name).ok_or("put: placement vanished")?;
    println!(
        "stored {name:?} ({} bytes) with {spec}: {} stripe(s) over {} node(s) -> {manifest}",
        data.len(),
        fp.stripes,
        coord.nodes().len()
    );
    Ok(())
}

/// Parses the shared `[--file NAME]` flag (starting at `args[start]`)
/// and resolves the default (the manifest's only file, or an explicit
/// name when it has several).
fn manifest_file_arg(
    coord: &Coordinator,
    args: &[String],
    start: usize,
    cmd: &str,
) -> Result<String, String> {
    let mut name: Option<String> = None;
    let mut i = start;
    while i < args.len() {
        match args[i].as_str() {
            "--file" => {
                name = Some(args.get(i + 1).ok_or("--file needs a value")?.clone());
                i += 2;
            }
            other => return Err(format!("{cmd}: unknown flag {other:?}")),
        }
    }
    match name {
        Some(n) => Ok(n),
        None => {
            let files = coord.files();
            match files.as_slice() {
                [only] => Ok(only.clone()),
                [] => Err(format!("{cmd}: manifest lists no files")),
                _ => Err(format!(
                    "{cmd}: manifest lists several files ({files:?}); pass --file NAME"
                )),
            }
        }
    }
}

/// Reads a file back from the cluster described by a manifest log.
fn get_cluster(args: &[String]) -> Result<(), String> {
    let manifest = args.first().ok_or("get: missing <manifest>")?;
    let output = args.get(1).ok_or("get: missing <output>")?;
    let coord = open_manifest(Path::new(manifest))?;
    let name = manifest_file_arg(&coord, args, 2, "get")?;
    let mut client = ClusterClient::new(coord);
    let data = client.get(&name).map_err(err_str)?;
    std::fs::write(output, &data).map_err(err_str)?;
    println!("read {name:?}: {} bytes -> {output}", data.len());
    Ok(())
}

/// Deletes a file from the cluster: blocks are reclaimed best-effort on
/// the reachable datanodes, and the removal is committed to the manifest
/// log (a `FileDeleted` record), so a later `get` refuses the name.
fn delete_cluster(args: &[String]) -> Result<(), String> {
    let manifest = Path::new(args.first().ok_or("delete: missing <manifest>")?);
    let coord = open_manifest(manifest)?;
    let name = manifest_file_arg(&coord, args, 1, "delete")?;
    let mut client = ClusterClient::new(coord);
    if client.delete(&name).map_err(err_str)? {
        println!("deleted {name:?}");
    } else {
        println!("{name:?} does not exist");
    }
    Ok(())
}

/// Rebuilds a manifest-described file's missing blocks over the
/// network; every re-homed block is committed to the manifest log as it
/// happens, so there is nothing to rewrite afterwards.
fn repair_cluster(args: &[String]) -> Result<(), String> {
    let manifest = Path::new(args.first().ok_or("repair: missing <manifest>")?);
    let coord = open_manifest(manifest)?;
    let name = manifest_file_arg(&coord, args, 1, "repair")?;
    let mut client = ClusterClient::new(Arc::clone(&coord));
    let report = client.repair_file(&name).map_err(err_str)?;
    if report.blocks_repaired == 0 {
        println!("nothing to repair in {name:?}");
    } else {
        println!(
            "repaired {} block(s) of {name:?}: {} helper payload bytes ({} on the wire)",
            report.blocks_repaired, report.helper_payload_bytes, report.wire_bytes
        );
    }
    Ok(())
}

/// `manifest dump <log>` / `manifest compact <log>`: offline inspection
/// and maintenance of a metadata record log, no cluster required.
fn manifest_cmd(args: &[String]) -> Result<(), String> {
    let sub = args.first().ok_or("manifest: missing dump|compact")?;
    let path = Path::new(args.get(1).ok_or("manifest: missing <manifest> log path")?);
    match sub.as_str() {
        "dump" => manifest_dump(path),
        "compact" => manifest_compact(path),
        other => Err(format!("manifest: unknown subcommand {other:?}")),
    }
}

/// Prints every surviving record of a metadata log, then the placements
/// they replay to. The `place_<file>_<stripe>=` lines are the stable,
/// machine-parseable part (tests and scripts read node ids off them).
fn manifest_dump(path: &Path) -> Result<(), String> {
    use cluster::metalog;
    use cluster::MetaRecord;
    use std::collections::BTreeMap;

    let (records, valid, total) = metalog::read_records(path).map_err(err_str)?;
    println!(
        "log {}: {} record(s), {valid} of {total} bytes valid",
        path.display(),
        records.len()
    );
    if valid < total {
        println!(
            "(torn tail: the last {} bytes are unreadable)",
            total - valid
        );
    }
    let mut files: BTreeMap<String, cluster::FilePlacement> = BTreeMap::new();
    for rec in &records {
        match rec {
            MetaRecord::NodeRegistered { id, addr } => println!("  node {id} @ {addr}"),
            MetaRecord::FilePlaced(fp) => {
                println!(
                    "  placed {:?} {} ({} bytes, {} stripe(s))",
                    fp.name, fp.spec, fp.file_len, fp.stripes
                );
                files.insert(fp.name.clone(), fp.clone());
            }
            MetaRecord::PlacementCommitted {
                file,
                stripe,
                role,
                node,
            } => {
                println!("  commit {file:?} stripe {stripe} role {role} -> node {node}");
                if let Some(fp) = files.get_mut(file) {
                    if let Some(slot) = fp
                        .nodes
                        .get_mut(*stripe as usize)
                        .and_then(|row| row.get_mut(*role as usize))
                    {
                        *slot = *node as usize;
                    }
                }
            }
            MetaRecord::FileDeleted { file } => {
                println!("  deleted {file:?}");
                files.remove(file);
            }
            MetaRecord::FileExtended {
                file,
                file_len,
                added,
            } => {
                println!(
                    "  extended {file:?} to {file_len} bytes (+{} stripe(s))",
                    added.len()
                );
                if let Some(fp) = files.get_mut(file) {
                    fp.file_len = *file_len;
                    fp.stripes += added.len();
                    fp.nodes.extend(added.iter().cloned());
                }
            }
            MetaRecord::ObjectPacked {
                object,
                pack,
                offset,
                len,
            } => println!("  packed {object:?} -> {pack:?} @{offset}+{len}"),
            MetaRecord::ObjectDeleted { object } => println!("  unpacked {object:?}"),
        }
    }
    for (idx, fp) in files.values().enumerate() {
        println!(
            "file_{idx}={} spec={} len={} block_bytes={} stripes={}",
            fp.name, fp.spec, fp.file_len, fp.block_bytes, fp.stripes
        );
        for (s, row) in fp.nodes.iter().enumerate() {
            let ids: Vec<String> = row.iter().map(|n| n.to_string()).collect();
            println!("place_{idx}_{s}={}", ids.join(","));
        }
    }
    Ok(())
}

/// Collapses a metadata log's history into a snapshot of its current
/// state (same replay result, minimal size).
fn manifest_compact(path: &Path) -> Result<(), String> {
    let before = std::fs::metadata(path).map_err(err_str)?.len();
    let coord = Coordinator::open_log(path).map_err(err_str)?;
    coord.compact_log().map_err(err_str)?;
    let after = std::fs::metadata(path).map_err(err_str)?.len();
    println!("compacted {}: {before} -> {after} bytes", path.display());
    Ok(())
}

/// Scrapes the telemetry registry of the datanode at `args[0]` over the
/// wire ([`cluster::Request::Stats`]); `cmd` names the command in errors.
fn scrape_stats(cmd: &str, args: &[String]) -> Result<cluster::NodeStats, String> {
    use cluster::protocol;
    use cluster::{Request, Response};

    let addr = args
        .first()
        .ok_or_else(|| format!("{cmd}: missing <addr>"))?;
    let addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|_| format!("invalid node address {addr:?}"))?;
    let timeout = std::time::Duration::from_secs(5);
    let mut stream = std::net::TcpStream::connect_timeout(&addr, timeout).map_err(err_str)?;
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    protocol::write_request(&mut stream, &Request::Stats).map_err(err_str)?;
    let reply = protocol::read_response_into(&mut stream, &mut Vec::new())
        .map_err(err_str)?
        .ok_or_else(|| format!("{cmd}: node closed the connection without replying"))?;
    match reply.0 {
        Response::Data(bytes) => protocol::decode_stats(&bytes).map_err(err_str),
        Response::Error(message) => Err(format!("{cmd}: node error: {message}")),
        other => Err(format!("{cmd}: unexpected reply {other:?}")),
    }
}

/// Scrapes one datanode's telemetry registry and prints every metric.
fn stats_cluster(args: &[String]) -> Result<(), String> {
    let snap = scrape_stats("stats", args)?;
    if snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty() {
        println!("{}: no metrics recorded yet", args[0]);
        return Ok(());
    }
    for (name, v) in &snap.counters {
        println!("counter   {name} = {v}");
    }
    for (name, v) in &snap.gauges {
        println!("gauge     {name} = {v}");
    }
    for (name, h) in &snap.histograms {
        if h.is_empty() {
            println!("histogram {name}: empty");
        } else {
            println!(
                "histogram {name}: count={} mean={:.1} p50={} p95={} p99={} min={} max={}",
                h.count,
                h.mean(),
                h.p50(),
                h.p95(),
                h.p99(),
                h.min,
                h.max
            );
        }
    }
    Ok(())
}

/// Reads the background-repair scoreboard — the ten `repair.*` metrics of
/// the node's `stats` scrape — and prints it.
fn repair_status_cluster(args: &[String]) -> Result<(), String> {
    let report = cluster::RepairStatusReport::from_snapshot(&scrape_stats("repair-status", args)?);
    println!("queue depth:     {}", report.queue_depth);
    println!("in flight:       {}", report.in_flight);
    println!("enqueued:        {}", report.enqueued);
    println!("completed:       {}", report.completed);
    println!("requeued:        {}", report.requeued);
    println!("cancelled:       {}", report.cancelled);
    println!("abandoned:       {}", report.abandoned);
    println!("blocks rebuilt:  {}", report.blocks_rebuilt);
    println!("helper bytes:    {}", report.helper_bytes);
    println!("wire bytes:      {}", report.wire_bytes);
    Ok(())
}

/// `kernels` — prints the GF(2⁸) kernel registry: every kernel runtime
/// CPU-feature detection registered on this machine, the probed features,
/// the CRC-32 path detection chose, which kernel is the active process
/// default, and why (detected best vs a `CAROUSEL_KERNEL` override).
fn kernels_cmd(args: &[String]) -> Result<(), String> {
    if let Some(flag) = args.first() {
        return Err(format!("kernels: unknown flag {flag:?}"));
    }
    let active = gf256::kernel();
    let best = gf256::detected_best();
    println!("registered kernels (ascending speed order):");
    for k in gf256::kernels() {
        let mut notes = Vec::new();
        if k.name() == "scalar" {
            notes.push("reference");
        }
        if k.name() == best.name() {
            notes.push("detected best");
        }
        if k.name() == active.name() {
            notes.push("active default");
        }
        let notes = if notes.is_empty() {
            String::new()
        } else {
            format!("  ({})", notes.join(", "))
        };
        println!("  {}{notes}", k.name());
    }
    println!("detected CPU features:");
    for (feature, on) in gf256::detected_features() {
        println!("  {feature}: {}", if on { "yes" } else { "no" });
    }
    println!("crc32: {}", gf256::crc32_path());
    match std::env::var("CAROUSEL_KERNEL") {
        Ok(name) if !name.is_empty() => {
            println!(
                "CAROUSEL_KERNEL={name:?} -> active kernel {:?}",
                active.name()
            );
        }
        _ => println!(
            "CAROUSEL_KERNEL unset -> active kernel {:?} (detected best)",
            active.name()
        ),
    }
    Ok(())
}

// Keep FileError in the public signature path used above.
#[allow(dead_code)]
fn _assert_error_conversion(e: FileError) -> String {
    err_str(e)
}
