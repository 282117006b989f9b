//! Property tests: every protocol message survives encode → decode, and
//! corrupted frames are rejected rather than misparsed.
//!
//! The vendored proptest stand-in has no `prop_oneof`, so message-type
//! choice is an index drawn from a range and dispatched through
//! `prop_flat_map` + `boxed()`.

use emg_server::protocol::{
    read_frame, write_frame, ErrorCode, FrameError, GraphInfo, QueryKind, Request, Response,
    ServerStats, ALL_KINDS,
};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

fn arb_kind() -> impl Strategy<Value = QueryKind> {
    (0usize..ALL_KINDS.len()).prop_map(|i| ALL_KINDS[i])
}

fn arb_name() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..26, 0..20)
        .prop_map(|letters| letters.into_iter().map(|l| (b'a' + l) as char).collect())
}

fn arb_pairs() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((any::<u32>(), any::<u32>()), 0..50)
}

fn arb_request() -> impl Strategy<Value = Request> {
    (0usize..7).prop_flat_map(|variant| -> BoxedStrategy<Request> {
        match variant {
            0 => any::<u16>()
                .prop_map(|version| Request::Hello { version })
                .boxed(),
            1 => Just(Request::ListGraphs).boxed(),
            2 => (arb_name(), any::<u64>(), arb_kind(), arb_pairs())
                .prop_map(|(graph, epoch, kind, pairs)| Request::Query {
                    graph,
                    epoch,
                    kind,
                    pairs,
                })
                .boxed(),
            3 => arb_name().prop_map(|graph| Request::Info { graph }).boxed(),
            4 => Just(Request::Stats).boxed(),
            5 => arb_name()
                .prop_map(|graph| Request::Reload { graph })
                .boxed(),
            _ => Just(Request::Shutdown).boxed(),
        }
    })
}

fn arb_info() -> impl Strategy<Value = GraphInfo> {
    (
        (arb_name(), any::<u64>()),
        (
            any::<u32>(),
            any::<u32>(),
            any::<bool>(),
            any::<u32>(),
            any::<u32>(),
        ),
    )
        .prop_map(
            |((name, epoch), (nodes, edges, is_tree, num_components, num_bridges))| GraphInfo {
                name,
                epoch,
                nodes,
                edges,
                is_tree,
                num_components,
                num_bridges,
            },
        )
}

fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
    (1u16..=12).prop_map(|raw| ErrorCode::from_u16(raw).expect("codes 1..=12 are assigned"))
}

fn arb_stats() -> impl Strategy<Value = ServerStats> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u64>(), 0..24),
        ),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                (queries, batches, max_batch),
                (size_flushes, deadline_flushes, batch_hist),
                (timeouts, overloads, panics_isolated),
            )| {
                ServerStats {
                    queries,
                    batches,
                    max_batch,
                    size_flushes,
                    deadline_flushes,
                    batch_hist,
                    timeouts,
                    overloads,
                    panics_isolated,
                }
            },
        )
}

fn arb_response() -> impl Strategy<Value = Response> {
    (0usize..8).prop_flat_map(|variant| -> BoxedStrategy<Response> {
        match variant {
            0 => any::<u16>()
                .prop_map(|version| Response::HelloOk { version })
                .boxed(),
            1 => proptest::collection::vec(arb_info(), 0..8)
                .prop_map(|graphs| Response::GraphList { graphs })
                .boxed(),
            2 => (
                arb_kind(),
                any::<u64>(),
                proptest::collection::vec(any::<u32>(), 0..50),
            )
                .prop_map(|(kind, epoch, answers)| Response::Answers {
                    kind,
                    epoch,
                    answers,
                })
                .boxed(),
            3 => arb_info()
                .prop_map(|info| Response::InfoOk { info })
                .boxed(),
            4 => arb_stats()
                .prop_map(|stats| Response::StatsOk { stats })
                .boxed(),
            5 => any::<u64>()
                .prop_map(|epoch| Response::ReloadOk { epoch })
                .boxed(),
            6 => Just(Response::ShutdownOk).boxed(),
            _ => (arb_error_code(), arb_name())
                .prop_map(|(code, message)| Response::Error { code, message })
                .boxed(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_request_round_trips(request in arb_request()) {
        let payload = request.encode();
        prop_assert_eq!(Request::decode(&payload).unwrap(), request);
    }

    #[test]
    fn every_response_round_trips(response in arb_response()) {
        let payload = response.encode();
        prop_assert_eq!(Response::decode(&payload).unwrap(), response);
    }

    #[test]
    fn truncated_requests_never_parse(request in arb_request(), cut in any::<usize>()) {
        // Chopping any suffix off a valid payload must fail cleanly —
        // never panic, never yield a different message.
        let payload = request.encode();
        let cut = cut % payload.len().max(1);
        if cut < payload.len() {
            prop_assert!(Request::decode(&payload[..cut]).is_err());
        }
    }

    #[test]
    fn truncated_responses_never_parse(response in arb_response(), cut in any::<usize>()) {
        let payload = response.encode();
        let cut = cut % payload.len().max(1);
        if cut < payload.len() {
            prop_assert!(Response::decode(&payload[..cut]).is_err());
        }
    }

    #[test]
    fn trailing_garbage_is_rejected(request in arb_request(), extra in 1usize..8) {
        let mut payload = request.encode();
        payload.extend(std::iter::repeat_n(0xA5u8, extra));
        prop_assert!(Request::decode(&payload).is_err());
    }

    #[test]
    fn framing_round_trips_multiple_messages(requests in proptest::collection::vec(arb_request(), 1..6)) {
        // A whole conversation's worth of frames survives the stream.
        let mut stream = Vec::new();
        for request in &requests {
            write_frame(&mut stream, &request.encode()).unwrap();
        }
        let mut cursor = std::io::Cursor::new(stream);
        for request in &requests {
            let payload = read_frame(&mut cursor).unwrap();
            prop_assert_eq!(&Request::decode(&payload).unwrap(), request);
        }
        prop_assert!(matches!(read_frame(&mut cursor), Err(FrameError::Eof)));
    }

    #[test]
    fn corrupt_single_byte_never_panics(request in arb_request(), pos in any::<usize>(), flip in 1u8..=255) {
        // Flipping one byte either still decodes (it hit a numeric
        // don't-care position) or errors — the invariant under test is
        // that decode is total: no panic, no allocation blow-up.
        let mut payload = request.encode();
        let pos = pos % payload.len();
        payload[pos] ^= flip;
        let _ = Request::decode(&payload);
    }
}

/// Satellite hardening: the property suite above checks `decode` in
/// isolation; this one drives the same malformed inputs into a *live*
/// session over TCP. The invariant is the DESIGN.md §13 contract — the
/// server never panics on hostile bytes; it answers an error frame
/// (tag 0xFF) or closes the connection cleanly, and it keeps serving
/// well-behaved clients afterwards.
mod live_session {
    use super::*;
    use emg_server::{BatchConfig, Client, Server};
    use std::io::Write;
    use std::net::TcpStream;
    use std::sync::OnceLock;
    use std::time::Duration;

    /// One shared server for every fuzz case, listening over a one-tree
    /// catalog. Leaked at process exit, like any detached test server.
    /// Binding loads the catalog, so its directory is removed right
    /// after; a fuzzed `Reload` then gets an error reply.
    fn fuzz_server_addr() -> &'static str {
        static ADDR: OnceLock<String> = OnceLock::new();
        ADDR.get_or_init(|| {
            let dir = std::env::temp_dir().join(format!("emg-fuzz-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("t.txt"), "0\t1\n0\t2\n1\t3\n").unwrap();
            let server = Server::bind("127.0.0.1:0", &dir, BatchConfig::default()).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            assert!(!dir.exists(), "{} outlives the bind", dir.display());
            let addr = server.local_addr();
            std::thread::spawn(move || {
                let _ = server.run();
            });
            addr
        })
    }

    /// A fresh well-behaved client can still handshake and list — the
    /// whole point of session isolation.
    fn server_still_alive(addr: &str) -> bool {
        Client::connect(addr).and_then(|mut c| c.list()).is_ok()
    }

    fn handshake(addr: &str) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write_frame(&mut stream, &Request::Hello { version: 1 }.encode()).unwrap();
        let hello = read_frame(&mut stream).unwrap();
        assert!(Response::decode(&hello).is_ok());
        stream
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn hostile_frames_never_kill_the_server(
            request in arb_request(),
            mode in 0usize..4,
            pos in any::<usize>(),
            flip in 1u8..=255,
            cut in any::<usize>(),
        ) {
            use emg_server::protocol::MAX_FRAME_LEN;
            let addr = fuzz_server_addr();
            let mut stream = handshake(addr);
            let payload = request.encode();
            let mut disconnected_mid_frame = false;
            match mode {
                0 => {
                    // A bit-flipped payload inside a well-formed frame.
                    let mut p = payload.clone();
                    let i = pos % p.len();
                    p[i] ^= flip;
                    write_frame(&mut stream, &p).unwrap();
                }
                1 => {
                    // A truncated payload inside a well-formed frame.
                    let c = cut % payload.len();
                    write_frame(&mut stream, &payload[..c]).unwrap();
                }
                2 => {
                    // Mid-frame disconnect: promise more than we deliver,
                    // then hang up.
                    let promised = (payload.len() as u32).max(4);
                    stream.write_all(&promised.to_le_bytes()).unwrap();
                    let c = cut % payload.len();
                    stream.write_all(&payload[..c]).unwrap();
                    stream.shutdown(std::net::Shutdown::Both).unwrap();
                    disconnected_mid_frame = true;
                }
                _ => {
                    // A length prefix past the frame cap.
                    let huge = MAX_FRAME_LEN + 1 + (pos as u32 % 1024);
                    stream.write_all(&huge.to_le_bytes()).unwrap();
                }
            }
            if !disconnected_mid_frame {
                // The server answers a decodable frame — an error (0xFF)
                // for hostile bytes, or a valid response when the flip
                // landed on a don't-care byte — or closes cleanly. Never
                // garbage, never an oversized frame.
                match read_frame(&mut stream) {
                    Ok(frame) => prop_assert!(Response::decode(&frame).is_ok()),
                    Err(FrameError::Eof) | Err(FrameError::Io(_)) => {}
                    Err(FrameError::TooLarge(n)) => {
                        prop_assert!(false, "server sent an oversized frame ({n})")
                    }
                }
            }
            prop_assert!(server_still_alive(addr), "server died after mode {}", mode);
        }
    }
}

#[test]
fn mid_frame_eof_is_an_io_error_not_a_frame() {
    let mut stream = Vec::new();
    write_frame(&mut stream, b"hello").unwrap();
    stream.truncate(stream.len() - 2);
    let mut cursor = std::io::Cursor::new(stream);
    assert!(matches!(read_frame(&mut cursor), Err(FrameError::Io(_))));
}

#[test]
fn eof_inside_length_prefix_is_an_io_error() {
    let mut cursor = std::io::Cursor::new(vec![0x05u8, 0x00]);
    assert!(matches!(read_frame(&mut cursor), Err(FrameError::Io(_))));
}
