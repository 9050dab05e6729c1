//! Round-trip property of the cache/wire JSON reader: for arbitrary
//! value trees, `parse_json` inverts both renderings of
//! `fearless_trace::Json` exactly — non-ASCII text, `"` and `\`, every
//! control character below 0x20, empty containers and `u64::MAX`
//! included.

use fearless_trace::{parse_json, Json};
use proptest::prelude::*;
use rand::Rng;

/// Characters that exercise every branch of the escaper and the
/// reader's run copying: plain ASCII, the two quoted delimiters, the
/// short escapes, `\u00XX` controls, and 2-, 3- and 4-byte UTF-8.
const ALPHABET: &[char] = &[
    'a', 'Z', '0', ' ', '/', ':', ',', '{', ']', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}',
    '\u{8}', '\u{b}', '\u{c}', '\u{1f}', '\u{7f}', 'é', 'ß', '→', '中', '😀',
];

fn text(rng: &mut TestRng) -> String {
    let len = rng.gen_range(0..12usize);
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

fn number(rng: &mut TestRng) -> u64 {
    match rng.gen_range(0..4u32) {
        0 => 0,
        1 => u64::MAX,
        2 => rng.gen_range(0..1000u64),
        _ => rng.gen(),
    }
}

/// Arbitrary `Json` trees up to `depth` container levels.
struct Tree {
    depth: u32,
}

impl Tree {
    fn value(&self, rng: &mut TestRng, depth: u32) -> Json {
        let kinds = if depth == 0 { 4 } else { 6 };
        match rng.gen_range(0..kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen()),
            2 => Json::U64(number(rng)),
            3 => Json::Str(text(rng)),
            4 => {
                let n = rng.gen_range(0..4usize);
                Json::Arr((0..n).map(|_| self.value(rng, depth - 1)).collect())
            }
            _ => {
                let n = rng.gen_range(0..4usize);
                Json::Obj(
                    (0..n)
                        .map(|_| (text(rng), self.value(rng, depth - 1)))
                        .collect(),
                )
            }
        }
    }
}

impl Strategy for Tree {
    type Value = Json;
    fn generate(&self, rng: &mut TestRng) -> Json {
        self.value(rng, self.depth)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_inverts_both_renderings(v in Tree { depth: 4 }) {
        prop_assert_eq!(parse_json(&v.render()), Some(v.clone()));
        prop_assert_eq!(parse_json(&v.render_compact()), Some(v.clone()));
    }
}

#[test]
fn edge_values_round_trip() {
    let all_controls: String = (0u8..0x20).map(char::from).collect();
    for v in [
        Json::Arr(Vec::new()),
        Json::Obj(Vec::new()),
        Json::U64(u64::MAX),
        Json::str(""),
        Json::str(all_controls.clone()),
        Json::obj([(all_controls, Json::Arr(vec![Json::Obj(Vec::new())]))]),
        Json::str("\"\\\"\\\\"),
        Json::str("naïve → 中文 😀"),
    ] {
        assert_eq!(parse_json(&v.render()), Some(v.clone()));
        assert_eq!(parse_json(&v.render_compact()), Some(v.clone()));
    }
}
