//! Fuzzing of the JSON reader, plus the writer → reader round trip.
//!
//! `Json::parse` decodes every request body `dvf serve` receives, shard
//! replies and the files a sweep resumes from. These properties feed it
//! raw byte soup, mutated well-formed documents and nesting far past its
//! depth cap: every input must parse or fail with an error, never panic,
//! and nesting deeper than the cap is always refused. Documents built by
//! `JsonWriter` must parse back to the values written, to the bit.

use dvf_obs::{Json, JsonWriter};
use proptest::prelude::*;

/// The deepest value the reader accepts ("nesting too deep" past it):
/// the top-level value is at depth 0, and a container's contents sit one
/// deeper than the container.
const MAX_DEPTH: usize = 64;

/// Characters a string may hold: the ones the writer escapes, control
/// characters, multi-byte UTF-8 and plain ASCII.
const CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}',
    'ä', '€', '\u{2028}', '😀',
];

/// A well-formed document touching every value kind, escapes included.
const SEED_DOCUMENT: &str = r#"{"schema":"dvf-serve/1","ok":true,"n":[1,-2.5e-3,1e308,0],"s":"a\"b\\c\n\u0001😀","o":{"k":null,"k":false},"e":[],"f":{}}"#;

/// A number at `depth`: inside `depth` containers, alternating arrays
/// and objects.
fn nested(depth: usize) -> String {
    let mut text = String::new();
    for level in 0..depth {
        text.push_str(if level % 2 == 0 { "[" } else { "{\"k\":" });
    }
    text.push('1');
    for level in (0..depth).rev() {
        text.push(if level % 2 == 0 { ']' } else { '}' });
    }
    text
}

/// Container under construction: its expected contents.
enum Frame {
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Add `value` to the innermost frame; an object keeps the first value
/// of a repeated key, as the reader does.
fn push(stack: &mut [(String, Frame)], key: String, value: Json) {
    match &mut stack.last_mut().expect("the root array stays open").1 {
        Frame::Arr(items) => items.push(value),
        Frame::Obj(members) => {
            if !members.iter().any(|(k, _)| *k == key) {
                members.push((key, value));
            }
        }
    }
}

/// Close the innermost container in both the writer and the expected
/// value.
fn close(stack: &mut Vec<(String, Frame)>, w: &mut JsonWriter) {
    let (key, frame) = stack.pop().expect("a container to close");
    let value = match frame {
        Frame::Arr(items) => {
            w.end_array();
            Json::Arr(items)
        }
        Frame::Obj(members) => {
            w.end_object();
            Json::Obj(members)
        }
    };
    push(stack, key, value);
}

/// Write the document `steps` describe and build the value the reader
/// must return for it: kinds 0 and 1 open an array or object, 2 closes
/// the innermost container, 3–7 write a null, bool, integer, float (from
/// raw bits) or string. Inside an object each value is keyed by its
/// step's string. The root is an array; nesting stays within the cap.
fn build(steps: &[(u8, u64, Vec<usize>)]) -> (String, Json) {
    let mut w = JsonWriter::new();
    w.begin_array();
    // Each open container with the key it will be stored under.
    let mut stack = vec![(String::new(), Frame::Arr(Vec::new()))];
    for (kind, word, chars) in steps {
        let text: String = chars.iter().map(|&i| CHARS[i % CHARS.len()]).collect();
        if *kind == 2 {
            if stack.len() > 1 {
                close(&mut stack, &mut w);
            }
            continue;
        }
        // A container opened now sits at depth `stack.len()`; keep its
        // contents within the cap.
        if *kind <= 1 && stack.len() == MAX_DEPTH {
            continue;
        }
        if matches!(stack.last(), Some((_, Frame::Obj(_)))) {
            w.key(&text);
        }
        let value = match kind {
            0 | 1 => {
                if *kind == 0 {
                    w.begin_array();
                    stack.push((text, Frame::Arr(Vec::new())));
                } else {
                    w.begin_object();
                    stack.push((text, Frame::Obj(Vec::new())));
                }
                continue;
            }
            3 => {
                w.null();
                Json::Null
            }
            4 => {
                w.bool(word % 2 == 1);
                Json::Bool(word % 2 == 1)
            }
            5 => {
                w.u64(*word);
                Json::Num(*word as f64)
            }
            6 => {
                let v = f64::from_bits(*word);
                w.f64(v);
                if v.is_finite() {
                    Json::Num(v)
                } else {
                    Json::Null
                }
            }
            _ => {
                w.string(&text);
                Json::Str(text.clone())
            }
        };
        push(&mut stack, text, value);
    }
    while stack.len() > 1 {
        close(&mut stack, &mut w);
    }
    w.end_array();
    let Some((_, Frame::Arr(root))) = stack.pop() else {
        unreachable!("the root is an array")
    };
    (w.finish(), Json::Arr(root))
}

/// Serialize a parsed value; equal text means equal values, bit for bit.
fn write(value: &Json, w: &mut JsonWriter) {
    match value {
        Json::Null => {
            w.null();
        }
        Json::Bool(b) => {
            w.bool(*b);
        }
        Json::Num(n) => {
            w.f64(*n);
        }
        Json::Str(s) => {
            w.string(s);
        }
        Json::Arr(items) => {
            w.begin_array();
            for item in items {
                write(item, w);
            }
            w.end_array();
        }
        Json::Obj(members) => {
            w.begin_object();
            for (k, v) in members {
                w.key(k);
                write(v, w);
            }
            w.end_object();
        }
    }
}

fn render(value: &Json) -> String {
    let mut w = JsonWriter::new();
    write(value, &mut w);
    w.finish()
}

#[test]
fn nesting_cap_is_exact_and_deep_input_is_refused_without_recursion() {
    assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
    for depth in [MAX_DEPTH + 1, 1_000, 1_000_000] {
        let err = Json::parse(&nested(depth)).unwrap_err();
        assert!(err.message.contains("deep"), "depth {depth}: {err}");
        // Unclosed too: the refusal comes before the input runs out.
        let err = Json::parse(&"[".repeat(depth)).unwrap_err();
        assert!(err.message.contains("deep"), "depth {depth}: {err}");
    }
}

proptest! {
    /// Raw byte soup (lossily decoded, as the server decodes bodies)
    /// never panics the reader.
    #[test]
    fn reader_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255u8, 0..512),
    ) {
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }

    /// Byte soup over JSON's own alphabet reaches deep into the grammar.
    #[test]
    fn reader_never_panics_on_json_alphabet_soup(
        picks in prop::collection::vec(0usize..24, 0..256),
    ) {
        const ALPHABET: &[&str] = &[
            "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "d83d", "dc00", "0", "-", ".",
            "e", "+", "1e400", "true", "fals", "null", " ", "\n", "ä", "😀",
        ];
        let text: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        let _ = Json::parse(&text);
    }

    /// Mutations of a well-formed document (overwrites, truncations,
    /// insertions, deletions) parse or error; unmutated, it parses.
    #[test]
    fn reader_never_panics_on_mutated_documents(
        ops in prop::collection::vec((0u8..4, 0u16..4096, 0u8..=255u8), 0..8),
    ) {
        let mut bytes = SEED_DOCUMENT.as_bytes().to_vec();
        for &(kind, pos, byte) in &ops {
            if bytes.is_empty() {
                break;
            }
            let i = pos as usize % bytes.len();
            match kind {
                0 => bytes[i] = byte,
                1 => bytes.truncate(i),
                2 => bytes.insert(i, byte),
                _ => {
                    bytes.remove(i);
                }
            }
        }
        let result = Json::parse(&String::from_utf8_lossy(&bytes));
        if ops.is_empty() {
            prop_assert!(result.is_ok(), "{result:?}");
        }
    }

    /// Nesting at any depth: accepted up to the cap, refused past it.
    #[test]
    fn reader_enforces_the_nesting_cap(depth in 0usize..200) {
        let result = Json::parse(&nested(depth));
        prop_assert_eq!(result.is_ok(), depth <= MAX_DEPTH, "depth {}", depth);
    }

    /// What `JsonWriter` writes, `Json::parse` reads back: the values
    /// written (non-finite floats as `null`, repeated keys keeping the
    /// first), with every float's bits intact.
    #[test]
    fn writer_output_parses_back_to_the_written_values(
        steps in prop::collection::vec(
            (0u8..8, 0u64..=u64::MAX, prop::collection::vec(0usize..64, 0..6)),
            0..48,
        ),
    ) {
        let (text, expected) = build(&steps);
        let parsed = Json::parse(&text);
        prop_assert!(parsed.is_ok(), "{text}: {parsed:?}");
        let parsed = parsed.unwrap();
        prop_assert_eq!(render(&parsed), render(&expected), "{}", text);
    }
}
