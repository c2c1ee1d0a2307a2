//! Deterministic decoder fuzzing, as promised by `docs/PROTOCOL.md`:
//! every `Request` / `Response` variant is encoded, then every
//! truncation and every single-byte flip at every offset is fed back
//! through the decoder. Corrupt input must come back as a `WireError`
//! (or an I/O error at the frame layer) — never a panic, never an
//! unbounded allocation.
//!
//! A byte flip can land inside free-form content (a string byte, a
//! counter) and yield a *different valid* message; the invariant there
//! is canonicality: whatever decodes must re-encode to the exact bytes
//! it was decoded from, save two named designed aliases (see [`sweep`]).

use mg_isa::wire::{from_bytes, read_frame, to_bytes, write_frame, Wire, WireError, Writer};
use mg_serve::{Request, Response, RunRequest};

/// One exemplar per variant, with every optional field populated in at
/// least one exemplar so all encode paths are swept.
fn requests() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Run(RunRequest::new("fig7")),
        Request::Run(RunRequest {
            quick: Some(true),
            threads: Some(4),
            best: true,
            no_cache: true,
            input: "tiny".into(),
            format: "markdown".into(),
            ..RunRequest::new("fig8-bandwidth")
        }),
        Request::Stats,
        Request::Shutdown { drain: true },
        Request::Shutdown { drain: false },
    ]
}

fn responses() -> Vec<Response> {
    vec![
        Response::Pong { protocol: 3 },
        Response::Queued { position: 7 },
        Response::Cell {
            workload: "gzip".into(),
            label: "mg".into(),
            cycles: 123_456,
            ops: 654_321,
        },
        Response::Done { status: -1, payload: "report body\n".into() },
        Response::Busy { depth: 16, capacity: 16 },
        Response::Error { message: "worker panicked: boom".into() },
        Response::Expired { phase: "queue".into(), waited_ms: 51, budget_ms: 50 },
        Response::Stats { pairs: vec![("served".into(), 2), ("expired".into(), 1)] },
    ]
}

/// Offset of the reserved byte in an encoded `Request::Run` (see
/// `RunRequest`'s wire layout): the byte just before the trailing
/// `format` string.
fn reserved_offset(req: &RunRequest) -> usize {
    let mut format = Writer::new();
    format.str(&req.format);
    to_bytes(&Request::Run(req.clone())).len() - format.len() - 1
}

/// Every strict prefix must fail to decode (the codec is
/// prefix-deterministic and `from_bytes` demands full consumption),
/// and no corruption may panic. `reserved` is the offset of a byte the
/// decoder reads and discards, if `value` has one.
fn sweep<T: Wire + PartialEq + std::fmt::Debug>(value: &T, reserved: Option<usize>) {
    let bytes = to_bytes(value);
    assert_eq!(&from_bytes::<T>(&bytes).expect("round trip"), value);

    for i in 0..bytes.len() {
        match from_bytes::<T>(&bytes[..i]) {
            Err(err) => assert!(
                matches!(
                    err,
                    WireError::Truncated | WireError::BadTag(_) | WireError::BadValue
                ),
                "prefix {i}/{} of {value:?}: unexpected {err:?}",
                bytes.len()
            ),
            // The only prefix allowed to decode is a designed alias
            // (the bare-tag v2 `Shutdown`): its canonical re-encoding
            // must extend the prefix, i.e. the prefix is a legal
            // abbreviation of some message, not a misparse.
            Ok(decoded) => assert!(
                to_bytes(&decoded).starts_with(&bytes[..i]),
                "prefix {i}/{} of {value:?} misparsed as {decoded:?}",
                bytes.len()
            ),
        }
    }

    for i in 0..bytes.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut mutated = bytes.clone();
            mutated[i] ^= flip;
            match from_bytes::<T>(&mutated) {
                Err(_) => {}
                Ok(decoded) => {
                    // Two designed aliases break strict canonicality.
                    // (1) The bare-tag v2 `Shutdown` frame decodes as
                    // `drain: true` and re-encodes with the explicit
                    // flag byte appended: accepted only when the input
                    // is a prefix of the canonical bytes and the
                    // canonical bytes decode back to the same value.
                    let reencoded = to_bytes(&decoded);
                    let canonical_alias = reencoded.starts_with(&mutated)
                        && from_bytes::<T>(&reencoded).as_ref() == Ok(&decoded);
                    // (2) A `Run` frame's reserved byte is read and
                    // discarded: accepted only at that offset, and only
                    // when the flipped frame decodes to the unflipped
                    // value.
                    let reserved_alias = reserved == Some(i) && decoded == *value;
                    assert!(
                        reencoded == mutated || canonical_alias || reserved_alias,
                        "flip {flip:#x} at {i} of {value:?} decoded non-canonically"
                    );
                }
            }
        }
    }
}

#[test]
fn every_request_survives_truncation_and_byte_flips() {
    for req in requests() {
        let reserved = match &req {
            Request::Run(run) => Some(reserved_offset(run)),
            _ => None,
        };
        sweep(&req, reserved);
    }
}

#[test]
fn every_response_survives_truncation_and_byte_flips() {
    for resp in responses() {
        sweep(&resp, None);
    }
}

/// A v2–v4 peer that still sets the retired flag in the reserved byte is
/// served the same run: 1 there decodes to the request 0 does, and any
/// other value is still a bad tag.
#[test]
fn reserved_run_byte_is_read_and_discarded() {
    let run = RunRequest { quick: Some(true), ..RunRequest::new("fig8_regfile") };
    let at = reserved_offset(&run);
    let canonical = to_bytes(&Request::Run(run.clone()));
    assert_eq!(canonical[at], 0, "the reserved byte is written as 0");
    let mut old_peer = canonical.clone();
    old_peer[at] = 1;
    assert_eq!(from_bytes::<Request>(&old_peer).unwrap(), Request::Run(run));
    old_peer[at] = 2;
    assert!(matches!(from_bytes::<Request>(&old_peer), Err(WireError::BadTag(_))));
}

/// The frame layer on top: torn streams and damaged headers must come
/// back as I/O errors from `read_frame`, never a panic.
#[test]
fn frame_layer_rejects_truncations_and_header_damage() {
    let mut framed = Vec::new();
    write_frame(&mut framed, &Request::Run(RunRequest::new("fig7"))).unwrap();

    // Round trip.
    let back: Request = read_frame(&mut framed.as_slice()).unwrap();
    assert_eq!(back, Request::Run(RunRequest::new("fig7")));

    // Every torn stream (any strict prefix) is an error.
    for i in 0..framed.len() {
        assert!(
            read_frame::<Request>(&mut &framed[..i]).is_err(),
            "torn frame at {i} bytes must error"
        );
    }

    // Every single-byte flip in the 8-byte header (magic + length) is
    // an error: the magic no longer matches, or the length no longer
    // covers the payload.
    for i in 0..8 {
        let mut mutated = framed.clone();
        mutated[i] ^= 0xff;
        assert!(
            read_frame::<Request>(&mut mutated.as_slice()).is_err(),
            "header damage at byte {i} must error"
        );
    }

    // A length prefix past MAX_FRAME_LEN is rejected up front rather
    // than allocated: decoding stays bounded on hostile input.
    let mut hostile = Vec::new();
    hostile.extend_from_slice(mg_isa::wire::FRAME_MAGIC);
    hostile.extend_from_slice(&u32::MAX.to_le_bytes());
    hostile.extend_from_slice(&[0u8; 64]);
    assert!(read_frame::<Request>(&mut hostile.as_slice()).is_err());
}
