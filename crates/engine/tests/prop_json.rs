//! Property tests hardening [`fd_engine::Json`] against untrusted wire
//! input: arbitrary valid documents round-trip; mangled documents
//! (truncated, byte-spliced, bit-flipped) parse or fail with a
//! structured [`fd_engine::JsonError`] — never a panic, never a stack
//! overflow, and always within the configured limits.

use fd_engine::{Json, JsonLimits};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// An arbitrary JSON value of bounded depth and width, written directly
/// against the vendored `Strategy` trait (which has no `BoxedStrategy`
/// for recursive combinators).
#[derive(Clone, Copy)]
struct ArbJson {
    depth: u32,
}

fn gen_json(rng: &mut StdRng, depth: u32) -> Json {
    let kind = if depth == 0 {
        rng.gen_range(0..5u8)
    } else {
        rng.gen_range(0..7u8)
    };
    match kind {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_range(0..2u8) == 0),
        2 => Json::Num(rng.gen_range(-1000..1000i64) as f64),
        3 => Json::Num(rng.gen_range(-1000..1000i64) as f64 / 8.0),
        4 => {
            let len = rng.gen_range(0..12usize);
            // Printable ASCII including quotes and backslashes, so the
            // writer's escaping paths are exercised too.
            let s: String = (0..len)
                .map(|_| rng.gen_range(0x20u8..0x7f) as char)
                .collect();
            Json::str(s)
        }
        5 => {
            let len = rng.gen_range(0..4usize);
            Json::Arr((0..len).map(|_| gen_json(rng, depth - 1)).collect())
        }
        _ => {
            let len = rng.gen_range(0..4usize);
            Json::Obj(
                (0..len)
                    .map(|i| (format!("k{i}"), gen_json(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

impl Strategy for ArbJson {
    type Value = Json;

    fn new_value(&self, rng: &mut StdRng) -> Json {
        gen_json(rng, self.depth)
    }
}

fn arb_json(depth: u32) -> ArbJson {
    ArbJson { depth }
}

proptest! {
    /// Writer → parser is the identity on arbitrary value trees.
    #[test]
    fn round_trips_arbitrary_documents(v in arb_json(3)) {
        let text = v.to_string();
        let back = Json::parse(&text).expect("writer output parses");
        prop_assert_eq!(back, v);
    }

    /// Truncating a valid document at any byte boundary never panics:
    /// the parser returns Ok (a prefix can still be a full document) or
    /// a structured error.
    #[test]
    fn truncation_never_panics(v in arb_json(3), cut in 0..512usize) {
        let text = v.to_string();
        let cut = cut.min(text.len());
        // Truncate on a char boundary; the wire layer hands the parser
        // &str, so mid-UTF-8 cuts are rejected before parsing.
        let mut end = cut;
        while !text.is_char_boundary(end) {
            end -= 1;
        }
        let _ = Json::parse(&text[..end]);
    }

    /// Splicing arbitrary bytes into a valid document never panics.
    #[test]
    fn splicing_never_panics(
        v in arb_json(2),
        at in 0..512usize,
        junk in "[ -~]{0,16}",
    ) {
        let mut text = v.to_string();
        let mut at = at.min(text.len());
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        text.insert_str(at, &junk);
        let _ = Json::parse(&text);
    }

    /// Fully random printable garbage never panics.
    #[test]
    fn random_garbage_never_panics(text in "[ -~]{0,64}") {
        let _ = Json::parse(&text);
    }

    /// The byte limit holds for every document and every cap.
    #[test]
    fn byte_limit_is_enforced(v in arb_json(2), max_bytes in 0..64usize) {
        let text = v.to_string();
        let limits = JsonLimits { max_bytes, max_depth: 32 };
        let result = Json::parse_with_limits(&text, &limits);
        if text.len() > max_bytes {
            prop_assert!(result.is_err());
        } else {
            prop_assert!(result.is_ok());
        }
    }
}

/// Hostile depth bombs (beyond what proptest generates) stay errors.
#[test]
fn depth_bombs_are_rejected() {
    for bomb in [
        "[".repeat(1_000_000),
        "{\"x\":".repeat(1_000_000),
        format!("{}true{}", "[".repeat(200), "]".repeat(200)),
    ] {
        assert!(Json::parse(&bomb).is_err());
    }
}

/// Multi-megabyte documents round-trip. String parsing copies unescaped
/// runs in bulk, so these finish in linear time; a parser that rescans
/// the rest of the document per character would not finish at all.
#[test]
fn multi_megabyte_documents_round_trip() {
    // One 4 MB string mixing ASCII, multi-byte UTF-8, and every escape
    // the writer emits, so runs of each kind alternate throughout.
    let chunk = "plain ascii text, ünïcødé ✓ 𝄞, \"quoted\", back\\slash, tab\t, nl\n, ctl\u{1};";
    let big = chunk.repeat((4 << 20) / chunk.len() + 1);
    let doc = Json::Arr(vec![Json::str(big.as_str()), Json::Num(1.0)]);
    let text = doc.to_string();
    assert!(text.len() > 4 << 20);
    assert_eq!(Json::parse(&text).expect("writer output parses"), doc);

    // A string-heavy table document of 100k rows, shaped like a
    // `PUT /tables/{id}` body.
    let rows: Vec<Json> = (0..100_000u32)
        .map(|i| {
            Json::obj([
                ("weight", Json::Num(1.0 + f64::from(i % 7) / 4.0)),
                (
                    "values",
                    Json::Arr(vec![
                        Json::str(format!("facility-{i}")),
                        Json::Num(f64::from(i % 997)),
                        Json::str(format!("city \"{}\" ✓", i % 31)),
                    ]),
                ),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("relation", Json::str("Office")),
        (
            "attrs",
            Json::Arr(vec![
                Json::str("facility"),
                Json::str("room"),
                Json::str("city"),
            ]),
        ),
        ("rows", Json::Arr(rows)),
    ]);
    let text = doc.to_string();
    assert!(text.len() > 4 << 20);
    assert_eq!(Json::parse(&text).expect("writer output parses"), doc);
}
