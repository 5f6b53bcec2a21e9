//! Offline stand-in for `serde_json` over the serde shim. Provides the
//! entry points the WATTER workspace uses: [`to_string`] (the shim's
//! streaming writer, no tree), [`to_string_pretty`], [`from_str`] and
//! [`parse_value`] (both through the [`Value`] tree).

pub use serde::{Error, Value};

/// Render `value` as compact JSON.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.write_json(&mut out);
    Ok(out)
}

/// Render `value` as pretty JSON with two-space indentation.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_json_value().render_pretty())
}

/// Parse JSON text into any [`serde::Deserialize`] type.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    T::from_json_value(&parse_value(s)?)
}

/// Parse JSON text into a raw [`Value`] tree.
pub fn parse_value(s: &str) -> Result<Value, Error> {
    serde::parse_json(s)
}

#[cfg(test)]
mod tests {
    use super::{from_str, parse_value, to_string, to_string_pretty};
    use proptest::prelude::*;
    use serde::{Deserialize, Serialize};
    use std::collections::{BTreeMap, HashMap};
    use std::sync::Arc;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Point {
        x: f64,
        y: i64,
        label: String,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Event {
        Ping,
        Move { dx: i32, dy: i32 },
        Tag(String),
        Span(u8, bool, String),
        Idle {},
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Wrapper(u32);

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Pair(i8, String);

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Marker;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Empty {}

    fn json<T: Serialize + ?Sized>(value: &T) -> String {
        to_string(value).unwrap()
    }

    #[test]
    fn struct_roundtrip() {
        let p = Point {
            x: 1.5,
            y: -3,
            label: "a \"b\"\n".to_string(),
        };
        let s = json(&p);
        assert_eq!(s, r#"{"x":1.5,"y":-3,"label":"a \"b\"\n"}"#);
        assert_eq!(from_str::<Point>(&s).unwrap(), p);
        let pretty = to_string_pretty(&p).unwrap();
        assert_eq!(
            pretty,
            "{\n  \"x\": 1.5,\n  \"y\": -3,\n  \"label\": \"a \\\"b\\\"\\n\"\n}"
        );
        assert_eq!(from_str::<Point>(&pretty).unwrap(), p);
    }

    /// Every shape `#[derive(Serialize)]` supports, as the exact text it
    /// must produce: checkpoints and order lines are this format.
    #[test]
    fn derive_shapes_have_a_pinned_wire_format() {
        assert_eq!(json(&Marker), "null");
        assert_eq!(json(&Wrapper(7)), "7");
        assert_eq!(json(&Pair(-1, "p".into())), r#"[-1,"p"]"#);
        assert_eq!(json(&Empty {}), "{}");
        assert_eq!(json(&Event::Ping), r#""Ping""#);
        assert_eq!(json(&Event::Tag("x".into())), r#"{"Tag":"x"}"#);
        assert_eq!(
            json(&Event::Span(3, true, "s".into())),
            r#"{"Span":[3,true,"s"]}"#
        );
        assert_eq!(
            json(&Event::Move { dx: -1, dy: 9 }),
            r#"{"Move":{"dx":-1,"dy":9}}"#
        );
        assert_eq!(json(&Event::Idle {}), r#"{"Idle":{}}"#);
        assert_eq!(json(&Vec::<Event>::new()), "[]");
    }

    #[test]
    fn enum_roundtrip() {
        for e in [
            Event::Ping,
            Event::Move { dx: -1, dy: 9 },
            Event::Tag("x".into()),
            Event::Span(0, false, String::new()),
            Event::Idle {},
        ] {
            assert_eq!(from_str::<Event>(&json(&e)).unwrap(), e);
        }
    }

    #[test]
    fn newtype_is_transparent() {
        assert_eq!(from_str::<Wrapper>("7").unwrap(), Wrapper(7));
    }

    #[test]
    fn vec_and_option() {
        let v: Vec<Option<u8>> = vec![Some(1), None, Some(3)];
        assert_eq!(json(&v), "[1,null,3]");
        assert_eq!(from_str::<Vec<Option<u8>>>("[1,null,3]").unwrap(), v);
    }

    #[test]
    fn containers_have_a_pinned_wire_format() {
        assert_eq!(json(&Arc::new(Wrapper(4))), "4");
        assert_eq!(json(&Box::new(Event::Ping)), r#""Ping""#);
        assert_eq!(json(&[1u8, 2]), "[1,2]");
        assert_eq!(json(&(1u8, "t", false)), r#"[1,"t",false]"#);
        assert_eq!(json("bare str"), r#""bare str""#);
        assert_eq!(json(&'"'), r#""\"""#);

        let pairs = [("b", 2), ("a", 1), ("c", 3)].map(|(k, v)| (k.to_string(), v));
        let sorted = r#"{"a":1,"b":2,"c":3}"#;
        assert_eq!(json(&BTreeMap::from(pairs.clone())), sorted);
        assert_eq!(json(&HashMap::from(pairs)), sorted);
        assert_eq!(json(&BTreeMap::<String, u8>::new()), "{}");
    }

    #[test]
    fn string_escapes_have_a_pinned_wire_format() {
        assert_eq!(json("q\"b\\n\nt\tr\r"), r#""q\"b\\n\nt\tr\r""#);
        assert_eq!(json("\u{1}\u{1f}"), r#""\u0001\u001f""#);
        assert_eq!(json("é–😀\u{7f}"), "\"é–😀\u{7f}\"");
        // A key goes through the same escaping as a value.
        let map = BTreeMap::from([("k\"\n".to_string(), 0u8)]);
        assert_eq!(json(&map), r#"{"k\"\n":0}"#);
    }

    #[test]
    fn numbers_have_a_pinned_wire_format() {
        assert_eq!(json(&i64::MIN), "-9223372036854775808");
        assert_eq!(json(&u64::MAX), "18446744073709551615");
        assert_eq!(json(&0u8), "0");
        assert_eq!(json(&-128i8), "-128");
        assert_eq!(json(&u128::from(u64::MAX)), "18446744073709551615");
        assert_eq!(
            json(&(u128::from(u64::MAX) + 1)),
            r#""18446744073709551616""#
        );
        assert_eq!(
            json(&(i128::from(i64::MIN) - 1)),
            r#""-9223372036854775809""#
        );
        assert_eq!(json(&1.0f64), "1.0");
        assert_eq!(json(&-0.0f64), "-0.0");
        assert_eq!(json(&0.1f64), "0.1");
        assert_eq!(json(&1e16f64), "10000000000000000");
        assert_eq!(json(&1.5e-7f64), "0.00000015");
        assert_eq!(json(&0.5f32), "0.5");
        assert_eq!(json(&f64::NAN), "null");
        assert_eq!(json(&f64::NEG_INFINITY), "null");
    }

    /// What the writer emits and what the tree renders are one format.
    #[test]
    fn tree_and_writer_agree() {
        let e = Event::Move { dx: -1, dy: 9 };
        assert_eq!(e.to_json_value().render(), json(&e));
        let doc = parse_value(r#"{"a":[1,-2,3.5,true,null],"b":{"c":"x\ny"}}"#).unwrap();
        assert_eq!(json(&doc), doc.render());
    }

    /// A 4 MB document — 10⁵ small objects and one 1 MB string — parses in
    /// the suite's normal budget. With a parser that re-validates the rest
    /// of the input per character this takes minutes.
    #[test]
    fn parsing_is_linear_in_document_size() {
        let mut doc = String::from("{\"rows\":[");
        for i in 0..100_000 {
            doc.push_str(&format!(
                "{{\"id\":{i},\"a\":{},\"ok\":true,\"w\":null}},",
                i % 7
            ));
        }
        doc.push_str("{}],\"blob\":\"");
        doc.push_str(&"wait to be faster é ".repeat(50_000));
        doc.push_str("\"}");
        assert!(doc.len() > 4_000_000);

        let started = std::time::Instant::now();
        let value = parse_value(&doc).unwrap();
        let elapsed = started.elapsed();
        let super::Value::Object(fields) = &value else {
            panic!("not an object")
        };
        assert!(matches!(&fields[0].1, super::Value::Array(rows) if rows.len() == 100_001));
        assert!(matches!(&fields[1].1, super::Value::Str(s) if s.len() > 1_000_000));
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "4 MB took {elapsed:?}"
        );
    }

    #[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
    enum Leaf {
        Unit,
        One(i64),
        Pair(u32, String),
        Named { flag: bool, score: f64 },
    }

    #[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
    struct Tree {
        id: u64,
        label: String,
        leaves: Vec<Leaf>,
        next: Option<Box<Tree>>,
        tags: BTreeMap<String, i32>,
        at: (i16, f32),
    }

    /// Strings over quotes, backslashes, control characters, Latin-1 and
    /// a few astral code points.
    fn any_string() -> impl Strategy<Value = String> {
        prop::collection::vec(0u32..0x120, 0..10).prop_map(|codes| {
            codes
                .into_iter()
                .map(|c| char::from_u32(if c < 0x100 { c } else { 0x1F5FF + c }).unwrap())
                .collect()
        })
    }

    fn any_leaf() -> impl Strategy<Value = Leaf> {
        (0u8..4, i64::MIN..=i64::MAX, any_string(), -1.0e9f64..1.0e9).prop_map(|(kind, n, s, f)| {
            match kind {
                0 => Leaf::Unit,
                1 => Leaf::One(n),
                2 => Leaf::Pair(n as u32, s),
                _ => Leaf::Named {
                    flag: n % 2 == 0,
                    score: if n % 3 == 0 { f.trunc() } else { f },
                },
            }
        })
    }

    fn any_tree() -> impl Strategy<Value = Tree> {
        let node = (
            0u64..=u64::MAX,
            any_string(),
            prop::collection::vec(any_leaf(), 0..5),
            prop::collection::vec((any_string(), -9i32..9), 0..4),
            (i16::MIN..=i16::MAX, -1.0e3f32..1.0e3),
        );
        // A chain of 1–3 nodes through `next`.
        prop::collection::vec(node, 1..4).prop_map(|nodes| {
            let mut tree = None;
            for (id, label, leaves, tags, at) in nodes {
                tree = Some(Box::new(Tree {
                    id,
                    label,
                    leaves,
                    next: tree,
                    tags: tags.into_iter().collect(),
                    at,
                }));
            }
            *tree.expect("at least one node")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn derived_types_round_trip(tree in any_tree()) {
            let text = json(&tree);
            prop_assert_eq!(from_str::<Tree>(&text).unwrap(), tree.clone());
            prop_assert_eq!(tree.to_json_value().render(), text);
            prop_assert_eq!(from_str::<Tree>(&to_string_pretty(&tree).unwrap()).unwrap(), tree);
        }
    }
}
