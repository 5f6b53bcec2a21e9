//! Offline stand-in for `serde_derive`.
//!
//! With no crates.io access there is no `syn`/`quote`, so this crate parses
//! the deriving item's token stream by hand and emits the impl source as
//! text. Supported shapes — which cover every derive in the WATTER
//! workspace — are:
//!
//! * structs with named fields,
//! * tuple structs (single-field newtypes serialize transparently, larger
//!   tuples as arrays),
//! * unit structs,
//! * enums with any mix of unit / tuple / struct variants, using serde's
//!   externally-tagged representation (`"Variant"` for unit variants,
//!   `{"Variant": ...}` otherwise).
//!
//! Generics and `#[serde(...)]` attributes are not supported and produce a
//! compile error naming this shim.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive the serde shim's `Serialize` trait.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

/// Derive the serde shim's `Deserialize` trait.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, generate: fn(&Item) -> String) -> TokenStream {
    match parse_item(input) {
        Ok(item) => generate(&item)
            .parse()
            .expect("serde_derive shim generated invalid Rust"),
        Err(msg) => format!("::std::compile_error!({msg:?});").parse().unwrap(),
    }
}

// ---------------------------------------------------------------------------
// Item model + token-stream parsing
// ---------------------------------------------------------------------------

enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

enum Body {
    Struct(Shape),
    Enum(Vec<(String, Shape)>),
}

struct Item {
    name: String,
    body: Body,
}

struct Cursor {
    tokens: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(stream: TokenStream) -> Self {
        Self {
            tokens: stream.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    /// Skip `#[...]` (and `#![...]`) attributes.
    fn skip_attributes(&mut self) {
        loop {
            match self.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    self.pos += 1;
                    if let Some(TokenTree::Punct(p)) = self.peek() {
                        if p.as_char() == '!' {
                            self.pos += 1;
                        }
                    }
                    if matches!(self.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket)
                    {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    /// Skip `pub`, `pub(crate)`, `pub(in ...)`.
    fn skip_visibility(&mut self) {
        if matches!(self.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
            self.pos += 1;
            if matches!(self.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
            {
                self.pos += 1;
            }
        }
    }

    /// Consume tokens until a `,` at angle-bracket depth zero (the comma is
    /// consumed too). Returns false when the cursor was already at the end.
    ///
    /// The `>` of a joint `->` pair (fn-pointer return types) is not a
    /// closing angle bracket and must not affect the depth.
    fn skip_until_comma(&mut self) -> bool {
        if self.at_end() {
            return false;
        }
        let mut depth = 0i32;
        let mut prev_joint_minus = false;
        while let Some(t) = self.next() {
            if let TokenTree::Punct(p) = &t {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' if !prev_joint_minus => depth -= 1,
                    ',' if depth == 0 => return true,
                    _ => {}
                }
                prev_joint_minus = p.as_char() == '-' && p.spacing() == proc_macro::Spacing::Joint;
            } else {
                prev_joint_minus = false;
            }
        }
        true
    }
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut c = Cursor::new(input);
    c.skip_attributes();
    c.skip_visibility();

    let kind = match c.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => {
            return Err(format!(
                "serde_derive shim: expected `struct`/`enum`, got {other:?}"
            ))
        }
    };
    let name = match c.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => {
            return Err(format!(
                "serde_derive shim: expected item name, got {other:?}"
            ))
        }
    };
    if matches!(c.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde_derive shim: generic type `{name}` is not supported"
        ));
    }

    let body = match kind.as_str() {
        "struct" => Body::Struct(parse_struct_shape(&mut c)?),
        "enum" => {
            let group = match c.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g,
                other => {
                    return Err(format!(
                        "serde_derive shim: expected enum body for `{name}`, got {other:?}"
                    ))
                }
            };
            Body::Enum(parse_variants(Cursor::new(group.stream()))?)
        }
        other => {
            return Err(format!(
                "serde_derive shim: cannot derive for `{other} {name}`"
            ))
        }
    };
    Ok(Item { name, body })
}

fn parse_struct_shape(c: &mut Cursor) -> Result<Shape, String> {
    match c.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            Ok(Shape::Named(parse_named_fields(Cursor::new(g.stream()))?))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Ok(Shape::Tuple(count_tuple_fields(Cursor::new(g.stream()))))
        }
        Some(TokenTree::Punct(p)) if p.as_char() == ';' => Ok(Shape::Unit),
        None => Ok(Shape::Unit),
        other => Err(format!(
            "serde_derive shim: unexpected struct body token {other:?}"
        )),
    }
}

fn parse_named_fields(mut c: Cursor) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    loop {
        c.skip_attributes();
        if c.at_end() {
            return Ok(fields);
        }
        c.skip_visibility();
        let field = match c.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => {
                return Err(format!(
                    "serde_derive shim: expected field name, got {other:?}"
                ))
            }
        };
        match c.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => return Err(format!("serde_derive shim: expected `:`, got {other:?}")),
        }
        fields.push(field);
        c.skip_until_comma();
    }
}

fn count_tuple_fields(mut c: Cursor) -> usize {
    let mut count = 0;
    loop {
        c.skip_attributes();
        if c.at_end() {
            return count;
        }
        c.skip_visibility();
        count += 1;
        c.skip_until_comma();
    }
}

fn parse_variants(mut c: Cursor) -> Result<Vec<(String, Shape)>, String> {
    let mut variants = Vec::new();
    loop {
        c.skip_attributes();
        if c.at_end() {
            return Ok(variants);
        }
        let name = match c.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => {
                return Err(format!(
                    "serde_derive shim: expected variant name, got {other:?}"
                ))
            }
        };
        let shape = match c.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(Cursor::new(g.stream()))?;
                c.pos += 1;
                Shape::Named(fields)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(Cursor::new(g.stream()));
                c.pos += 1;
                Shape::Tuple(n)
            }
            _ => Shape::Unit,
        };
        variants.push((name, shape));
        // Skip a possible `= discriminant` and the trailing comma.
        c.skip_until_comma();
    }
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

/// `"name":` as it appears in the output. Rust identifiers hold no quote,
/// backslash or control character, so the JSON-escaped form of a field or
/// variant name is the name itself and the key is final at expansion time.
fn json_key(name: &str) -> String {
    format!("\"{name}\":")
}

/// Statements that append `open`, then each item — its key text (empty in
/// an array) followed by the value of its expression — comma-separated,
/// then `close`. All punctuation between two values is one literal.
fn write_items(open: &str, items: &[(String, String)], close: &str) -> String {
    let mut code = String::new();
    let mut literal = open.to_string();
    for (i, (key, expr)) in items.iter().enumerate() {
        if i > 0 {
            literal.push(',');
        }
        literal.push_str(key);
        code.push_str(&format!(
            "out.push_str({literal:?}); ::serde::Serialize::write_json({expr}, out);"
        ));
        literal.clear();
    }
    literal.push_str(close);
    code.push_str(&format!("out.push_str({literal:?});"));
    code
}

/// [`write_items`] for a struct or variant body: `{…}` for named fields,
/// `[…]` for a tuple, the bare value for a newtype. `expr_of` turns a field
/// name or tuple index into the expression that borrows it.
fn write_shape(open: &str, shape: &Shape, close: &str, expr_of: impl Fn(&str) -> String) -> String {
    match shape {
        Shape::Unit => unreachable!("unit shapes have no body"),
        Shape::Tuple(n) => {
            let items: Vec<(String, String)> = (0..*n)
                .map(|i| (String::new(), expr_of(&i.to_string())))
                .collect();
            if *n == 1 {
                write_items(open, &items, close)
            } else {
                write_items(&format!("{open}["), &items, &format!("]{close}"))
            }
        }
        Shape::Named(fields) => {
            let items: Vec<(String, String)> =
                fields.iter().map(|f| (json_key(f), expr_of(f))).collect();
            write_items(&format!("{open}{{"), &items, &format!("}}{close}"))
        }
    }
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(Shape::Unit) => "out.push_str(\"null\");".to_string(),
        Body::Struct(shape) => write_shape("", shape, "", |f| format!("&self.{f}")),
        Body::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|(v, shape)| {
                    let open = format!("{{{}", json_key(v));
                    match shape {
                        Shape::Unit => {
                            let tag = format!("\"{v}\"");
                            format!("{name}::{v} => {{ out.push_str({tag:?}); }}")
                        }
                        Shape::Tuple(n) => {
                            let binders: Vec<String> = (0..*n).map(|i| format!("x{i}")).collect();
                            format!(
                                "{name}::{v}({binds}) => {{ {body} }}",
                                binds = binders.join(", "),
                                body = write_shape(&open, shape, "}", |i| format!("x{i}"))
                            )
                        }
                        Shape::Named(fields) => format!(
                            "{name}::{v} {{ {binds} }} => {{ {body} }}",
                            binds = fields.join(", "),
                            body = write_shape(&open, shape, "}", str::to_string)
                        ),
                    }
                })
                .collect();
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "#[automatically_derived] impl ::serde::Serialize for {name} {{ \
         fn write_json(&self, out: &mut ::std::string::String) {{ {body} }} }}"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(Shape::Unit) => {
            format!("::std::result::Result::Ok({name})")
        }
        Body::Struct(Shape::Tuple(1)) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_json_value(v)?))")
        }
        Body::Struct(Shape::Tuple(n)) => {
            let elems: String = (0..*n)
                .map(|i| format!("::serde::de_element(v, {i}, {n})?,"))
                .collect();
            format!("::std::result::Result::Ok({name}({elems}))")
        }
        Body::Struct(Shape::Named(fields)) => {
            let inits: String = fields
                .iter()
                .map(|f| format!("{f}: ::serde::de_field(v, {f:?})?,"))
                .collect();
            format!("::std::result::Result::Ok({name} {{ {inits} }})")
        }
        Body::Enum(variants) => {
            let unit_arms: String = variants
                .iter()
                .filter(|(_, s)| matches!(s, Shape::Unit))
                .map(|(v, _)| format!("{v:?} => ::std::result::Result::Ok({name}::{v}),"))
                .collect();
            let payload_arms: String = variants
                .iter()
                .map(|(v, shape)| match shape {
                    Shape::Unit => String::new(),
                    Shape::Tuple(1) => format!(
                        "{v:?} => ::std::result::Result::Ok({name}::{v}(\
                         ::serde::Deserialize::from_json_value(inner)?)),"
                    ),
                    Shape::Tuple(n) => {
                        let elems: String = (0..*n)
                            .map(|i| format!("::serde::de_element(inner, {i}, {n})?,"))
                            .collect();
                        format!("{v:?} => ::std::result::Result::Ok({name}::{v}({elems})),")
                    }
                    Shape::Named(fields) => {
                        let inits: String = fields
                            .iter()
                            .map(|f| format!("{f}: ::serde::de_field(inner, {f:?})?,"))
                            .collect();
                        format!("{v:?} => ::std::result::Result::Ok({name}::{v} {{ {inits} }}),")
                    }
                })
                .collect();
            let has_unit = !unit_arms.is_empty();
            let has_payload = !payload_arms.is_empty();
            let mut arms = String::new();
            if has_unit {
                arms.push_str(&format!(
                    "::serde::Value::Str(tag) => match tag.as_str() {{ {unit_arms} \
                     other => ::std::result::Result::Err(\
                     ::serde::Error::unknown_variant(other, {name:?})), }},"
                ));
            }
            if has_payload {
                arms.push_str(&format!(
                    "::serde::Value::Object(fields) if fields.len() == 1 => {{ \
                     let (tag, inner) = &fields[0]; \
                     match tag.as_str() {{ {payload_arms} \
                     other => ::std::result::Result::Err(\
                     ::serde::Error::unknown_variant(other, {name:?})), }} }},"
                ));
            }
            format!(
                "match v {{ {arms} other => ::std::result::Result::Err(\
                 ::serde::Error::expected(\"externally tagged enum\", other)), }}"
            )
        }
    };
    format!(
        "#[automatically_derived] impl ::serde::Deserialize for {name} {{ \
         fn from_json_value(v: &::serde::Value) \
         -> ::std::result::Result<Self, ::serde::Error> {{ {body} }} }}"
    )
}
