//! Offline stand-in for `serde`.
//!
//! The build environment has no crates.io access, so this shim provides the
//! slice of serde used by the WATTER workspace: `#[derive(Serialize,
//! Deserialize)]` plus JSON round-tripping through `serde_json`, without
//! serde's visitor machinery.
//!
//! **Serialisation is a writer.** [`Serialize::write_json`] appends the
//! value's compact JSON text to a `String`; the derive macro (re-exported
//! from `serde_derive`) generates it for plain structs, tuple structs and
//! enums with unit/tuple/struct variants, using serde's externally-tagged
//! representation so the JSON shape matches real serde, and
//! `serde_json::to_string` is one call of it. No intermediate tree is
//! built on the way out.
//!
//! **The [`Value`] tree is for parsing and pretty output.**
//! [`Deserialize::from_json_value`] reads one (so a caller can inspect a
//! document — a version field, say — before committing to a typed parse),
//! and [`Serialize::to_json_value`], a provided method that parses what the
//! writer wrote, serves the callers that want a tree of a typed value
//! (`serde_json::to_string_pretty`).

pub use serde_derive::{Deserialize, Serialize};

mod value;

use value::{write_bool, write_escaped, write_f64, write_i64, write_u64};
pub use value::{Error, Value};

/// Parse JSON text into a [`Value`] tree (used by the `serde_json` shim).
pub fn parse_json(s: &str) -> Result<Value, Error> {
    value::parse(s)
}

/// A type that can be written as JSON text.
pub trait Serialize {
    /// Append `self` as compact JSON to `out`.
    fn write_json(&self, out: &mut String);

    /// `self` as a JSON [`Value`] tree: what [`Serialize::write_json`]
    /// writes, parsed back.
    fn to_json_value(&self) -> Value {
        let mut text = String::new();
        self.write_json(&mut text);
        value::parse(&text).expect("write_json emits valid JSON")
    }
}

/// `[a,b,…]` from anything iterable.
fn write_seq<'a, T: Serialize + 'a>(out: &mut String, items: impl IntoIterator<Item = &'a T>) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

/// `{"k":v,…}` in the iterator's order.
fn write_map<'a, V: Serialize + 'a>(
    out: &mut String,
    entries: impl IntoIterator<Item = (&'a String, &'a V)>,
) {
    out.push('{');
    for (i, (k, v)) in entries.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(out, k);
        out.push(':');
        v.write_json(out);
    }
    out.push('}');
}

/// A type that can be reconstructed from a JSON [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuild `Self` from a JSON value.
    fn from_json_value(v: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

impl Serialize for bool {
    fn write_json(&self, out: &mut String) {
        write_bool(out, *self);
    }
}

impl Deserialize for bool {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::expected("bool", other)),
        }
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                write_i64(out, *self as i64);
            }
        }
        impl Deserialize for $t {
            fn from_json_value(v: &Value) -> Result<Self, Error> {
                let n = v.as_i64().ok_or_else(|| Error::expected("integer", v))?;
                <$t>::try_from(n).map_err(|_| Error::msg(format!(
                    "integer {n} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                write_u64(out, *self as u64);
            }
        }
        impl Deserialize for $t {
            fn from_json_value(v: &Value) -> Result<Self, Error> {
                let n = v.as_u64().ok_or_else(|| Error::expected("unsigned integer", v))?;
                <$t>::try_from(n).map_err(|_| Error::msg(format!(
                    "integer {n} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                write_f64(out, *self as f64);
            }
        }
        impl Deserialize for $t {
            fn from_json_value(v: &Value) -> Result<Self, Error> {
                v.as_f64()
                    .map(|f| f as $t)
                    .ok_or_else(|| Error::expected("number", v))
            }
        }
    )*};
}
impl_float!(f32, f64);

// 128-bit integers render as u64/i64 when in range and as decimal strings
// otherwise (real serde_json needs arbitrary-precision for these too).
impl Serialize for u128 {
    fn write_json(&self, out: &mut String) {
        match u64::try_from(*self) {
            Ok(n) => write_u64(out, n),
            Err(_) => write_escaped(out, &self.to_string()),
        }
    }
}

impl Deserialize for u128 {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => s
                .parse()
                .map_err(|_| Error::msg(format!("invalid u128 `{s}`"))),
            other => other
                .as_u64()
                .map(u128::from)
                .ok_or_else(|| Error::expected("unsigned integer", other)),
        }
    }
}

impl Serialize for i128 {
    fn write_json(&self, out: &mut String) {
        match i64::try_from(*self) {
            Ok(n) => write_i64(out, n),
            Err(_) => write_escaped(out, &self.to_string()),
        }
    }
}

impl Deserialize for i128 {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => s
                .parse()
                .map_err(|_| Error::msg(format!("invalid i128 `{s}`"))),
            other => other
                .as_i64()
                .map(i128::from)
                .ok_or_else(|| Error::expected("integer", other)),
        }
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut String) {
        write_escaped(out, self);
    }
}

impl Deserialize for String {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::expected("string", other)),
        }
    }
}

impl Serialize for str {
    fn write_json(&self, out: &mut String) {
        write_escaped(out, self);
    }
}

impl Serialize for char {
    fn write_json(&self, out: &mut String) {
        write_escaped(out, self.encode_utf8(&mut [0; 4]));
    }
}

impl Deserialize for char {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(Error::expected("single-character string", other)),
        }
    }
}

// ---------------------------------------------------------------------------
// Composite impls
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(x) => x.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_json_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_json_value).collect(),
            other => Err(Error::expected("array", other)),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn write_json(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        T::from_json_value(v).map(Box::new)
    }
}

// Shared-ownership pointers serialize transparently, like real serde with
// the `rc` feature. Deserialization always produces a fresh allocation (no
// sharing is reconstructed), which matches serde's documented behaviour.
impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        T::from_json_value(v).map(std::sync::Arc::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::rc::Rc<T> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Deserialize> Deserialize for std::rc::Rc<T> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        T::from_json_value(v).map(std::rc::Rc::new)
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn write_json(&self, out: &mut String) {
                out.push('[');
                $(
                    self.$idx.write_json(out);
                    out.push(',');
                )+
                // A tuple has at least one element: the last comma closes it.
                out.pop();
                out.push(']');
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_json_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Array(items) => {
                        let expected = [$($idx),+].len();
                        if items.len() != expected {
                            return Err(Error::msg(format!(
                                "expected array of length {expected}, got {}",
                                items.len()
                            )));
                        }
                        Ok(($($name::from_json_value(&items[$idx])?,)+))
                    }
                    other => Err(Error::expected("array", other)),
                }
            }
        }
    )*};
}
impl_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn write_json(&self, out: &mut String) {
        write_map(out, self);
    }
}

impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(fields) => fields
                .iter()
                .map(|(k, fv)| Ok((k.clone(), V::from_json_value(fv)?)))
                .collect(),
            other => Err(Error::expected("object", other)),
        }
    }
}

impl<V: Serialize> Serialize for std::collections::HashMap<String, V> {
    fn write_json(&self, out: &mut String) {
        // Sorted, so the text does not depend on the hasher's order.
        let mut entries: Vec<(&String, &V)> = self.iter().collect();
        entries.sort_by_key(|&(k, _)| k);
        write_map(out, entries);
    }
}

impl<V: Deserialize> Deserialize for std::collections::HashMap<String, V> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(fields) => fields
                .iter()
                .map(|(k, fv)| Ok((k.clone(), V::from_json_value(fv)?)))
                .collect(),
            other => Err(Error::expected("object", other)),
        }
    }
}

impl Serialize for Value {
    fn write_json(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    fn to_json_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

// ---------------------------------------------------------------------------
// Derive support helpers (used by serde_derive-generated code)
// ---------------------------------------------------------------------------

/// Look up and deserialize a named struct field. Missing keys only succeed
/// for types that accept `null` (i.e. `Option`).
pub fn de_field<T: Deserialize>(v: &Value, name: &str) -> Result<T, Error> {
    match v {
        Value::Object(fields) => match fields.iter().find(|(k, _)| k == name) {
            Some((_, fv)) => {
                T::from_json_value(fv).map_err(|e| Error::msg(format!("field `{name}`: {e}")))
            }
            None => T::from_json_value(&Value::Null)
                .map_err(|_| Error::msg(format!("missing field `{name}`"))),
        },
        other => Err(Error::expected("object", other)),
    }
}

/// Deserialize the `idx`-th element of a tuple-struct / tuple-variant array.
pub fn de_element<T: Deserialize>(v: &Value, idx: usize, len: usize) -> Result<T, Error> {
    match v {
        Value::Array(items) if items.len() == len => {
            T::from_json_value(&items[idx]).map_err(|e| Error::msg(format!("element {idx}: {e}")))
        }
        Value::Array(items) => Err(Error::msg(format!(
            "expected array of length {len}, got {}",
            items.len()
        ))),
        other => Err(Error::expected("array", other)),
    }
}
