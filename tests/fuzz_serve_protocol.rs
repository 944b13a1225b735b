//! Fuzz-hardening of the prediction service's wire decoders: whatever bytes
//! arrive — random garbage, or a valid payload that was truncated/spliced
//! in flight — `Request::decode`, `Reply::decode` (for every frame type)
//! and `read_frame` must return `Ok` or a typed error, and never panic.
//! Generated requests and replies must also survive `encode` → `decode`
//! unchanged.
//!
//! The server decodes request payloads straight off a socket
//! (`crates/serve`), and clients decode whatever the server sends back, so
//! both directions see attacker-controlled bytes in normal operation.

use proptest::prelude::*;
use serve::protocol::{read_frame, write_frame, DEFAULT_MAX_PAYLOAD};
use serve::{ErrorCode, FrameType, Reply, Request};

/// Every frame type the wire knows.
fn frame_types() -> Vec<FrameType> {
    (0..=u8::MAX).filter_map(FrameType::from_byte).collect()
}

/// Feeds `bytes` to every decoder. `Ok` or `Err` are both fine; a decoded
/// request must re-encode to the exact bytes it came from (the format has
/// one encoding per request).
fn decoders_are_total(bytes: &[u8]) {
    if let Ok(request) = Request::decode(bytes) {
        assert_eq!(request.encode(), bytes, "decoded request re-encodes");
    }
    for frame_type in frame_types() {
        let _ = Reply::decode(frame_type, bytes);
    }
    let _ = read_frame(&mut &bytes[..], DEFAULT_MAX_PAYLOAD);
}

fn garbage_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..512)
}

/// Short strings over a pool that includes multi-byte characters, so a
/// length prefix can land inside one.
fn text_strategy(max_chars: usize) -> impl Strategy<Value = String> {
    let pool: Vec<char> = "abcxyz_019 =(),#\nINPUTOUT\u{c0}\u{20ac}\u{1f600}"
        .chars()
        .collect();
    let n = pool.len();
    proptest::collection::vec(0usize..n, 0..=max_chars)
        .prop_map(move |picks| picks.into_iter().map(|i| pool[i]).collect())
}

fn request_strategy() -> impl Strategy<Value = Request> {
    (
        text_strategy(12),
        any::<u32>(),
        proptest::collection::vec(text_strategy(8), 0..6),
        text_strategy(200),
    )
        .prop_map(|(model, deadline_ms, mask, bench)| Request {
            model,
            deadline_ms,
            mask,
            bench,
        })
}

fn reply_strategy() -> impl Strategy<Value = Reply> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(bits, infer_ns, wait_ns)| {
            Reply::Prediction {
                // Raw bits: NaN payloads and infinities must survive too.
                value: f64::from_bits(bits),
                infer_ns,
                wait_ns,
            }
        }),
        (1u8..=10, text_strategy(64)).prop_map(|(code, message)| Reply::Error {
            code: ErrorCode::from_code(code).expect("codes 1..=10 exist"),
            message,
        }),
        Just(Reply::Pong),
    ]
}

/// A valid request payload, truncated at an arbitrary byte and spliced with
/// a few arbitrary bytes: the shape of torn frames and bit rot, reaching
/// the decoder's deep states instead of failing at the first length field.
fn mutated_request_strategy() -> impl Strategy<Value = Vec<u8>> {
    (
        request_strategy(),
        any::<usize>(),
        any::<usize>(),
        proptest::collection::vec(any::<u8>(), 0..8),
    )
        .prop_map(|(request, cut, splice_at, splice)| {
            let mut bytes = request.encode();
            bytes.truncate(cut % (bytes.len() + 1));
            let at = splice_at % (bytes.len() + 1);
            bytes.splice(at..at, splice);
            bytes
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_never_panic_any_decoder(bytes in garbage_strategy()) {
        decoders_are_total(&bytes);
    }

    #[test]
    fn mutated_request_payloads_never_panic_any_decoder(bytes in mutated_request_strategy()) {
        decoders_are_total(&bytes);
    }

    #[test]
    fn requests_round_trip(request in request_strategy()) {
        let decoded = Request::decode(&request.encode());
        prop_assert_eq!(decoded, Ok(request));
    }

    #[test]
    fn replies_round_trip(reply in reply_strategy()) {
        let (frame_type, payload) = reply.encode();
        let decoded = Reply::decode(frame_type, &payload).expect("encoded replies decode");
        // Compared by encoding: a NaN prediction is unequal to itself, but
        // its bits must come back unchanged.
        prop_assert_eq!(decoded.encode(), (frame_type, payload));
    }

    #[test]
    fn framed_replies_round_trip_through_read_frame(reply in reply_strategy()) {
        let (frame_type, payload) = reply.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, frame_type, &payload).expect("writing to a Vec");
        let (got_type, got_payload) =
            read_frame(&mut &wire[..], DEFAULT_MAX_PAYLOAD).expect("a whole frame reads back");
        prop_assert_eq!(got_type, frame_type);
        prop_assert_eq!(got_payload, payload);
    }
}

#[test]
fn every_frame_type_is_covered() {
    assert_eq!(frame_types().len(), 5);
    // A server-side frame type is not a request, and a request is not a
    // reply: both directions refuse the other's frames with an error.
    assert!(Reply::decode(FrameType::Predict, &[]).is_err());
    assert!(Reply::decode(FrameType::Ping, &[]).is_err());
}
