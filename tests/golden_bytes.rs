//! Committed wire and log bytes: one frame per request and response op,
//! untraced and traced, and one framed record per `MetaRecord` kind.
//!
//! Round-trip tests cannot see a layout change made to an encoder and its
//! decoder at once; these vectors can. Each one was produced by the
//! encoders before the protocol and metalog refactors that they now pin,
//! and checked against that commit as well as this one.

use access::CodeSpec;
use cluster::metalog::{self, MetaRecord};
use cluster::protocol::{read_response_into, write_request, WireTrace};
use cluster::{BlockId, FilePlacement, Request, Response};

/// The two calls spelled differently before the protocol cut (there
/// `Request::encode_traced` and `read_request_traced`); everything else
/// below is API both sides share.
mod wire {
    use cluster::protocol::{self, WireTrace};
    use cluster::Request;

    pub fn encode(req: &Request, trace: Option<WireTrace>) -> Vec<u8> {
        req.encode(trace)
    }

    pub fn read_request(r: &mut &[u8]) -> (Request, usize, Option<WireTrace>) {
        protocol::read_request(r).unwrap().expect("one frame")
    }
}

const TRACE: WireTrace = WireTrace {
    trace: 0x1122_3344_5566_7788,
    span: 0x99aa_bbcc_ddee_ff00,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn id(file: &str, stripe: u32, block: u32) -> BlockId {
    BlockId {
        file: file.into(),
        stripe,
        block,
    }
}

/// `(request, untraced frame, traced frame)`.
fn requests() -> Vec<(Request, &'static str, &'static str)> {
    vec![
        (
            Request::Ping,
            "4352534c0101000000011bdf05a5",
            "4352534c0201887766554433221100ffeeddccbbaa9901000000011bdf05a5",
        ),
        (
            Request::PutBlock {
                id: id("a.bin", 0, 3),
                data: vec![1, 2, 3, 4, 5],
            },
            "4352534c011b0000000205000000612e62696e000000000300000005000000010203040515b482c3",
            "4352534c0201887766554433221100ffeeddccbbaa991b0000000205000000612e62696e\
             000000000300000005000000010203040515b482c3",
        ),
        (
            Request::GetBlock { id: id("f", 7, 0) },
            "4352534c010e0000000301000000660700000000000000ae74f055",
            "4352534c0201887766554433221100ffeeddccbbaa990e0000000301000000660700000000000000\
             ae74f055",
        ),
        (
            Request::GetUnits {
                id: id("data.enc", 2, 8),
                sub: 6,
                units: vec![0, 2, 5],
            },
            "4352534c01290000000408000000646174612e656e63020000000800000006000000030000000000\
             000002000000050000003e5923a8",
            "4352534c0201887766554433221100ffeeddccbbaa99290000000408000000646174612e656e6302\
             0000000800000006000000030000000000000002000000050000003e5923a8",
        ),
        (
            Request::RepairRead {
                id: id("x", 1, 1),
                rows: 2,
                cols: 3,
                coeffs: vec![1, 2, 3, 4, 5, 6],
            },
            "4352534c012000000005010000007801000000010000000200000003000000060000000102030405\
             065308aba1",
            "4352534c0201887766554433221100ffeeddccbbaa99200000000501000000780100000001000000\
             0200000003000000060000000102030405065308aba1",
        ),
        (
            Request::Stat { id: id("s", 0, 0) },
            "4352534c010e0000000601000000730000000000000000e414c13d",
            "4352534c0201887766554433221100ffeeddccbbaa990e0000000601000000730000000000000000\
             e414c13d",
        ),
        (
            Request::Stats,
            "4352534c0101000000072e7a664c",
            "4352534c0201887766554433221100ffeeddccbbaa9901000000072e7a664c",
        ),
        (
            Request::WriteDelta {
                id: id("mut.bin", 4, 9),
                unit_bytes: 4,
                deltas: vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]],
                rows: vec![(0, vec![3, 1]), (5, vec![0, 7])],
            },
            "4352534c01340000000a070000006d75742e62696e04000000090000000400000002000000010203\
             0405060708020000000000000003010500000000077b6e8455",
            "4352534c0201887766554433221100ffeeddccbbaa99340000000a070000006d75742e62696e0400\
             0000090000000400000002000000010203040506070802000000000000000301050000000007\
             7b6e8455",
        ),
        (
            Request::DeleteBlock {
                id: id("gone", 2, 1),
            },
            "4352534c01110000000b04000000676f6e65020000000100000069def114",
            "4352534c0201887766554433221100ffeeddccbbaa99110000000b04000000676f6e650200000001\
             00000069def114",
        ),
    ]
}

/// `(response, untraced frame, the same frame carrying a trace)`.
/// Responses are always sent untraced; a reader still accepts the v2
/// layout on them.
fn responses() -> Vec<(Response, &'static str, &'static str)> {
    vec![
        (
            Response::Pong,
            "4352534c0101000000813b5cbd48",
            "4352534c0201887766554433221100ffeeddccbbaa9901000000813b5cbd48",
        ),
        (
            Response::Done,
            "4352534c010100000082810db4d1",
            "4352534c0201887766554433221100ffeeddccbbaa990100000082810db4d1",
        ),
        (
            Response::Data(vec![0xde, 0xad, 0xbe, 0xef]),
            "4352534c01090000008304000000deadbeef985a4360",
            "4352534c0201887766554433221100ffeeddccbbaa99090000008304000000deadbeef985a4360",
        ),
        (
            Response::Error("nope".into()),
            "4352534c0109000000ee040000006e6f706521a0221a",
            "4352534c0201887766554433221100ffeeddccbbaa9909000000ee040000006e6f706521a0221a",
        ),
    ]
}

/// `(record, framed record: len ++ payload ++ crc)`, one per kind.
fn records() -> Vec<(MetaRecord, &'static str)> {
    vec![
        (
            MetaRecord::NodeRegistered {
                id: 3,
                addr: "127.0.0.1:9301".into(),
            },
            "190000000103000000000000000e003132372e302e302e313a393330314f23d1e8",
        ),
        (
            MetaRecord::FilePlaced(FilePlacement {
                name: "a.bin".into(),
                spec: CodeSpec::Carousel {
                    n: 4,
                    k: 2,
                    d: 2,
                    p: 4,
                },
                file_len: 1000,
                block_bytes: 256,
                stripes: 2,
                nodes: vec![vec![0, 1, 2, 3], vec![3, 2, 1, 0]],
            }),
            "5b000000020500612e62696e11006361726f7573656c28342c322c322c3429e80300000000000000\
             0100000000000002000000000000000400000000000000010000000200000003000000040000000300\
             00000200000001000000000000006fcce4ea",
        ),
        (
            MetaRecord::PlacementCommitted {
                file: "a.bin".into(),
                stripe: 1,
                role: 2,
                node: 7,
            },
            "18000000030500612e62696e010000000200000007000000000000006b3da0e5",
        ),
        (
            MetaRecord::FileDeleted {
                file: "a.bin".into(),
            },
            "08000000040500612e62696e3bfb8902",
        ),
        (
            MetaRecord::ObjectPacked {
                object: "tiny.json".into(),
                pack: ".pack-0003".into(),
                offset: 4096,
                len: 120,
            },
            "2800000005090074696e792e6a736f6e0a002e7061636b2d3030303300100000000000007800000000\
             000000416b3f73",
        ),
        (
            MetaRecord::ObjectDeleted {
                object: "tiny.json".into(),
            },
            "0c00000006090074696e792e6a736f6ece74584e",
        ),
        (
            MetaRecord::FileExtended {
                file: "a.bin".into(),
                file_len: 2200,
                added: vec![vec![1, 2, 3, 4]],
            },
            "2c000000070500612e62696e98080000000000000100000000000000040000000100000002000000\
             0300000004000000243835ef",
        ),
    ]
}

#[test]
fn request_frames_match_golden_bytes() {
    for (req, plain, traced) in requests() {
        assert_eq!(hex(&wire::encode(&req, None)), plain, "{req:?}");
        let mut written = Vec::new();
        write_request(&mut written, &req).unwrap();
        assert_eq!(hex(&written), plain, "{req:?} via write_request");
        assert_eq!(hex(&wire::encode(&req, Some(TRACE))), traced, "{req:?}");
        for (frame, trace) in [(plain, None), (traced, Some(TRACE))] {
            let bytes = unhex(frame);
            let mut rest = &bytes[..];
            let (got, wire_bytes, got_trace) = wire::read_request(&mut rest);
            assert!(rest.is_empty(), "{req:?}: bytes left after the frame");
            assert_eq!(
                (got, wire_bytes, got_trace),
                (req.clone(), bytes.len(), trace)
            );
        }
    }
}

#[test]
fn response_frames_match_golden_bytes() {
    let mut scratch = Vec::new();
    for (resp, plain, traced) in responses() {
        assert_eq!(hex(&resp.encode()), plain, "{resp:?}");
        for frame in [plain, traced] {
            let bytes = unhex(frame);
            let mut rest = &bytes[..];
            let got = read_response_into(&mut rest, &mut scratch)
                .unwrap()
                .expect("one frame");
            assert!(rest.is_empty(), "{resp:?}: bytes left after the frame");
            assert_eq!((got.0, got.1), (resp.clone(), bytes.len()));
        }
    }
}

#[test]
fn metalog_records_match_golden_bytes() {
    let mut log = Vec::new();
    log.extend_from_slice(&metalog::MAGIC);
    log.extend_from_slice(&metalog::VERSION.to_le_bytes());
    for (rec, framed) in records() {
        assert_eq!(hex(&metalog::encode_record(&rec)), framed, "{rec:?}");
        let bytes = unhex(framed);
        let payload = &bytes[4..bytes.len() - 4];
        assert_eq!(metalog::decode_payload(payload), Some(rec.clone()));
        log.extend_from_slice(&bytes);
    }
    let (replayed, valid) = metalog::recover(&log);
    let expect: Vec<MetaRecord> = records().into_iter().map(|(rec, _)| rec).collect();
    assert_eq!((replayed, valid), (expect, log.len()));
}
