//! The one text codec behind every record secbench stores or sends:
//! telemetry event lines, campaignd's protocol, manifest and terminal
//! marker, checkpoint files and their [`crate::checkpoint::Record`]
//! payloads, and oracle repro files.
//!
//! Each value type has exactly one writer and one reader, its [`Field`]
//! impl. Three grammars place the values on a line:
//!
//! - **canonical JSON objects** (`JsonWriter`, `JsonReader`):
//!   `{"key":value,…}` in a fixed field order, no whitespace, numbers
//!   bare, everything else a string escaped minimally (`\"`, `\\`, and
//!   `\u00XX` for control characters);
//! - **positional words** ([`Words`]): `tag f1 f2 …`, one space apart. A
//!   `String` field takes the rest of the line, so it comes last;
//! - **`key=value` words** (`kv_record!`): `k1=v1 k2=v2 …` in a fixed
//!   order, with an optional trailing pair.
//!
//! A record is described once, as a table with one row per variant: its
//! tag and its fields in wire order (`json_enum!`, `word_enum!`,
//! `word_struct!`, `kv_record!`). Each table generates both the
//! encoder and the parser, so the two can never disagree about field
//! order, tag spelling or number form. A field whose wire form differs
//! from its type's names a codec type after a colon (`fingerprint: Hex`,
//! `Load(address: Addr)`). Word enums ([`Word`], `words!`) are one
//! `ALL` list and one name function; their parser is derived.

use std::fmt::Write as _;

/// A value with exactly one text writer and one reader.
pub trait Field: Sized {
    /// Whether JSON quotes the value (strings, hex) or writes it bare
    /// (unsigned numbers).
    const QUOTED: bool = true;
    /// Whether a positional line gives this field the rest of the line
    /// rather than one word (free text).
    const REST: bool = false;
    /// Appends the value's text.
    fn put(&self, out: &mut String);
    /// Parses the value's text.
    fn take(text: &str) -> Result<Self, String>;
}

macro_rules! decimal_fields {
    ($($t:ty),*) => {$(
        impl Field for $t {
            const QUOTED: bool = false;
            fn put(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn take(text: &str) -> Result<Self, String> {
                text.parse().map_err(|_| format!("bad number {text:?}"))
            }
        }
    )*};
}
decimal_fields!(u8, u16, u32, u64, usize, i32);

impl Field for String {
    const REST: bool = true;
    fn put(&self, out: &mut String) {
        out.push_str(self);
    }
    fn take(text: &str) -> Result<Self, String> {
        Ok(text.to_owned())
    }
}

/// `-` when absent.
impl<T: Field> Field for Option<T> {
    fn put(&self, out: &mut String) {
        match self {
            Some(v) => v.put(out),
            None => out.push('-'),
        }
    }
    fn take(text: &str) -> Result<Self, String> {
        match text {
            "-" => Ok(None),
            _ => T::take(text).map(Some),
        }
    }
}

/// Declares fixed-width hex types: one row per type, its integer and its
/// format. Any hex digits read back.
macro_rules! hex_fields {
    ($( $(#[$doc:meta])* $name:ident($int:ty) = $format:literal ),*) => {$(
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) struct $name(pub $int);

        impl Field for $name {
            fn put(&self, out: &mut String) {
                let _ = write!(out, $format, self.0);
            }
            fn take(text: &str) -> Result<Self, String> {
                <$int>::from_str_radix(text, 16)
                    .map($name)
                    .map_err(|_| format!("bad hex number {text:?}"))
            }
        }
    )*};
}

hex_fields!(
    /// A `u64` as 16 lowercase hex digits (fingerprints).
    Hex(u64) = "{:016x}",
    /// A CRC-32 as 8 lowercase hex digits.
    Crc(u32) = "{:08x}"
);

/// Bit-exact: the IEEE-754 bit pattern as `Hex`, because the resume
/// contract is bitwise identity, which a decimal round trip cannot give
/// every value.
impl Field for f64 {
    fn put(&self, out: &mut String) {
        Hex(self.to_bits()).put(out);
    }
    fn take(text: &str) -> Result<Self, String> {
        Hex::take(text).map(|h| f64::from_bits(h.0))
    }
}

/// A `u64` written as `0x`-prefixed hex (addresses, page numbers, RFE
/// seeds); reads `0x` hex or decimal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Addr(pub u64);

impl Field for Addr {
    fn put(&self, out: &mut String) {
        let _ = write!(out, "{:#x}", self.0);
    }
    fn take(text: &str) -> Result<Self, String> {
        match text.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => text.parse(),
        }
        .map(Addr)
        .map_err(|_| format!("bad number {text:?}"))
    }
}

impl Field for sectlb_tlb::types::Asid {
    fn put(&self, out: &mut String) {
        self.0.put(out);
    }
    fn take(text: &str) -> Result<Self, String> {
        u16::take(text).map(sectlb_tlb::types::Asid)
    }
}

/// A closed set of words: one `ALL` list and one name function, with the
/// parser derived from them.
pub trait Word: Copy + 'static {
    /// Every value, in declaration order.
    const ALL: &'static [Self];
    /// The value's word.
    fn name(self) -> &'static str;
    /// Inverse of [`Word::name`].
    fn from_name(word: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|w| w.name() == word)
    }
}

impl<T: Word> Field for T {
    fn put(&self, out: &mut String) {
        out.push_str(self.name());
    }
    fn take(text: &str) -> Result<Self, String> {
        T::from_name(text).ok_or_else(|| format!("unknown word {text:?}"))
    }
}

/// `0` or `1`.
impl Word for bool {
    const ALL: &'static [bool] = &[false, true];
    fn name(self) -> &'static str {
        if self {
            "1"
        } else {
            "0"
        }
    }
}

/// Declares word enums: one row per enum, listing each variant with its
/// word. Generates the [`Word`] impl.
macro_rules! words {
    ($( $ty:ty { $( $v:ident = $word:literal ),* $(,)? } )*) => {$(
        impl $crate::codec::Word for $ty {
            const ALL: &'static [Self] = &[$( Self::$v ),*];
            fn name(self) -> &'static str {
                match self {
                    $( Self::$v => $word, )*
                }
            }
        }
    )*};
}
pub(crate) use words;

words! {
    sectlb_sim::os::FlushPolicy { None = "none", FlushOnSwitch = "flush-on-switch" }
    sectlb_tlb::RandomFillEviction { RandomWay = "random-way", LruWay = "lru-way" }
    sectlb_tlb::InvalidationPolicy { Precise = "precise", RegionFlush = "region-flush" }
    sectlb_tlb::types::PageSize { Base = "base", Mega = "mega", Giga = "giga" }
}

/// Word enums whose name table lives in their own crate.
macro_rules! named {
    ($( $ty:ty = $all:expr ),*) => {$(
        impl Word for $ty {
            const ALL: &'static [Self] = &$all;
            fn name(self) -> &'static str {
                <$ty>::name(self)
            }
        }
    )*};
}
named!(
    sectlb_sim::machine::TlbDesign = sectlb_sim::machine::TlbDesign::EXTENDED,
    sectlb_sim::Invariant = sectlb_sim::Invariant::ALL,
    sectlb_tlb::check::CorruptionKind = sectlb_tlb::check::CorruptionKind::ALL
);

/// A strict cursor over the space-separated words of one line.
#[derive(Debug)]
pub struct Cursor<'a> {
    rest: Option<&'a str>,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `line`.
    pub fn new(line: &'a str) -> Cursor<'a> {
        Cursor { rest: Some(line) }
    }

    /// The next word.
    pub fn word(&mut self) -> Result<&'a str, String> {
        let rest = self.rest.take().ok_or("missing field")?;
        let (word, tail) = rest
            .split_once(' ')
            .map_or((rest, None), |(w, t)| (w, Some(t)));
        self.rest = tail;
        Ok(word)
    }

    /// Everything left on the line.
    pub fn rest(&mut self) -> Result<&'a str, String> {
        self.rest.take().ok_or_else(|| "missing field".to_owned())
    }

    /// Errors unless the whole line was consumed.
    pub fn end(&self) -> Result<(), String> {
        match self.rest {
            None => Ok(()),
            Some(tail) => Err(format!("unexpected trailing text {tail:?}")),
        }
    }
}

/// A record written as a run of positional words.
pub trait Words: Sized {
    /// Appends the words, one space apart.
    fn put_words(&self, out: &mut String);
    /// Reads the words from the cursor.
    fn take_words(words: &mut Cursor<'_>) -> Result<Self, String>;
}

impl<T: Field> Words for T {
    fn put_words(&self, out: &mut String) {
        self.put(out);
    }
    fn take_words(words: &mut Cursor<'_>) -> Result<Self, String> {
        T::take(if T::REST {
            words.rest()?
        } else {
            words.word()?
        })
    }
}

macro_rules! tuple_words {
    ($( ($a0:ident $t0:ident $(, $a:ident $t:ident)*) )*) => {$(
        impl<$t0: Words $(, $t: Words)*> Words for ($t0, $($t),*) {
            fn put_words(&self, out: &mut String) {
                let ($a0, $($a),*) = self;
                $a0.put_words(out);
                $( out.push(' '); $a.put_words(out); )*
            }
            fn take_words(words: &mut Cursor<'_>) -> Result<Self, String> {
                Ok(($t0::take_words(words)?, $($t::take_words(words)?),*))
            }
        }
    )*};
}
tuple_words!((a A, b B) (a A, b B, c C) (a A, b B, c C, d D));

/// Encodes a positional record as one line (no newline).
pub(crate) fn encode<T: Words>(value: &T) -> String {
    let mut out = String::new();
    value.put_words(&mut out);
    out
}

/// Encodes a text file: its header line, then one positional record per
/// line.
pub(crate) fn encode_lines<T: Words>(header: &str, lines: impl IntoIterator<Item = T>) -> String {
    let mut out = format!("{header}\n");
    for line in lines {
        line.put_words(&mut out);
        out.push('\n');
    }
    out
}

/// Decodes a whole line as one positional record; trailing text is an
/// error.
pub(crate) fn decode<T: Words>(line: &str) -> Result<T, String> {
    let mut words = Cursor::new(line);
    let value = T::take_words(&mut words)?;
    words.end()?;
    Ok(value)
}

/// A field's value as written: itself, or wrapped in its codec type.
macro_rules! put_as {
    ($v:expr) => {
        $v
    };
    ($v:expr, $as:ident) => {
        &$crate::codec::$as(*$v)
    };
}
pub(crate) use put_as;

/// A field's value as read: itself, or unwrapped from its codec type.
macro_rules! take_as {
    ($v:expr) => {
        $v
    };
    ($v:expr, $as:ident) => {{
        let wrapped: $crate::codec::$as = $v;
        wrapped.0
    }};
}
pub(crate) use take_as;

/// Describes an enum written as positional words: one row per variant,
/// `Variant(fields) = tag`, `Variant { fields } = tag` or `Variant =
/// tag`, the fields in wire order. Generates its [`Words`] impl. Prefixed
/// with `enum`, the rows give each field's type (`Variant(name: Type)`)
/// and the enum is declared too.
macro_rules! word_enum {
    ($(#[$meta:meta])* enum $ty:ident {
        $( $v:ident ( $( $f:ident: $t:ty ),* ) = $tag:expr ),* $(,)?
    }) => {
        $(#[$meta])*
        enum $ty { $( $v( $($t),* ) ),* }
        $crate::codec::word_enum!($ty { $( $v( $($f),* ) = $tag ),* });
    };
    ($ty:ty {
        $( $v:ident
            $( ( $( $tf:ident $(: $tas:ident)? ),* ) )?
            $( { $( $sf:ident $(: $sas:ident)? ),* } )?
            = $tag:expr ),* $(,)?
    }) => {
        impl $crate::codec::Words for $ty {
            fn put_words(&self, out: &mut String) {
                match self {$(
                    Self::$v $( ( $($tf),* ) )? $( { $($sf),* } )? => {
                        out.push_str($tag);
                        $($( out.push(' ');
                            $crate::codec::Words::put_words(
                                $crate::codec::put_as!($tf $(, $tas)?), out); )*)?
                        $($( out.push(' ');
                            $crate::codec::Words::put_words(
                                $crate::codec::put_as!($sf $(, $sas)?), out); )*)?
                    }
                )*}
            }
            fn take_words(words: &mut $crate::codec::Cursor<'_>) -> Result<Self, String> {
                let tag = words.word()?;
                $( if tag == $tag {
                    return Ok(Self::$v
                        $( ( $( $crate::codec::take_as!(
                            $crate::codec::Words::take_words(words)? $(, $tas)?) ),* ) )?
                        $( { $( $sf: $crate::codec::take_as!(
                            $crate::codec::Words::take_words(words)? $(, $sas)?) ),* } )?);
                } )*
                Err(format!("unknown tag {tag:?}"))
            }
        }
    };
}
pub(crate) use word_enum;

/// Describes a struct written as positional words, its fields in wire
/// order. Generates its [`Words`] impl.
macro_rules! word_struct {
    ($ty:ty { $f0:ident $(, $f:ident)* $(,)? }) => {
        impl $crate::codec::Words for $ty {
            fn put_words(&self, out: &mut String) {
                $crate::codec::Words::put_words(&self.$f0, out);
                $( out.push(' '); $crate::codec::Words::put_words(&self.$f, out); )*
            }
            fn take_words(words: &mut $crate::codec::Cursor<'_>) -> Result<Self, String> {
                Ok(Self {
                    $f0: $crate::codec::Words::take_words(words)?,
                    $( $f: $crate::codec::Words::take_words(words)?, )*
                })
            }
        }
    };
}
pub(crate) use word_struct;

/// Reads `key=<value>` from the next word.
pub(crate) fn take_kv<T: Field>(words: &mut Cursor<'_>, key: &str) -> Result<T, String> {
    let word = words
        .word()
        .map_err(|_| format!("missing field {key}=..."))?;
    let value = word
        .strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| format!("expected {key}=..., found {word:?}"))?;
    T::take(value).map_err(|e| format!("{key}: {e}"))
}

/// Describes a struct written as `key=value` words: its fields in wire
/// order, then optionally one `Option` field written only when present,
/// and a check every decoded value must pass. Generates its [`Words`]
/// impl; the keys are the field names.
macro_rules! kv_record {
    ($ty:ty { $f0:ident $(, $f:ident)* } $(optional $opt:ident)? $(check $check:path)?) => {
        impl $crate::codec::Words for $ty {
            fn put_words(&self, out: &mut String) {
                out.push_str(concat!(stringify!($f0), "="));
                $crate::codec::Field::put(&self.$f0, out);
                $( out.push_str(concat!(" ", stringify!($f), "="));
                    $crate::codec::Field::put(&self.$f, out); )*
                $( if let Some(v) = &self.$opt {
                    out.push_str(concat!(" ", stringify!($opt), "="));
                    $crate::codec::Field::put(v, out);
                } )?
            }
            fn take_words(words: &mut $crate::codec::Cursor<'_>) -> Result<Self, String> {
                let value = Self {
                    $f0: $crate::codec::take_kv(words, stringify!($f0))?,
                    $( $f: $crate::codec::take_kv(words, stringify!($f))?, )*
                    $( $opt: match words.end() {
                        Ok(()) => None,
                        Err(_) => Some($crate::codec::take_kv(words, stringify!($opt))?),
                    }, )?
                };
                $( $check(&value)?; )?
                Ok(value)
            }
        }
    };
}
pub(crate) use kv_record;

/// Escapes `out[start..]` in place as a JSON string body: `\"`, `\\` and
/// `\u00XX` for control characters; everything else stays raw.
pub(crate) fn escape_tail(out: &mut String, start: usize) {
    let needs = |c: char| c == '"' || c == '\\' || c < ' ';
    if out[start..].contains(needs) {
        for c in out.split_off(start).chars() {
            match c {
                '"' | '\\' => out.extend(['\\', c]),
                c if needs(c) => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
    }
}

/// Writes one canonical JSON object straight into one `String`.
#[derive(Debug)]
pub(crate) struct JsonWriter(String);

impl Default for JsonWriter {
    fn default() -> JsonWriter {
        JsonWriter(String::from("{"))
    }
}

impl JsonWriter {
    /// Appends `"key":value`, the value quoted and escaped unless it is a
    /// number.
    pub fn field<T: Field>(&mut self, key: &str, value: &T) {
        self.put(key, T::QUOTED, |out| value.put(out));
    }

    /// Appends `"key":"text"`.
    pub fn str(&mut self, key: &str, text: &str) {
        self.put(key, true, |out| out.push_str(text));
    }

    fn put(&mut self, key: &str, quoted: bool, value: impl FnOnce(&mut String)) {
        let out = &mut self.0;
        if out.len() > 1 {
            out.push(',');
        }
        out.push('"');
        out.push_str(key);
        out.push_str("\":");
        if quoted {
            out.push('"');
        }
        let start = out.len();
        value(out);
        if quoted {
            escape_tail(out, start);
            out.push('"');
        }
    }

    /// Closes the object and returns the line.
    pub fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// Reads one JSON object whose fields come in a known order. It only
/// tokenizes: callers accept a line only if it re-renders to itself, so
/// the writer alone decides what canonical means.
#[derive(Debug)]
pub(crate) struct JsonReader<'a> {
    rest: &'a str,
    sep: &'static str,
}

impl<'a> JsonReader<'a> {
    /// A reader positioned after the object's `{`.
    pub fn new(line: &'a str) -> Result<JsonReader<'a>, String> {
        let rest = line.strip_prefix('{').ok_or("expected '{'")?;
        Ok(JsonReader { rest, sep: "" })
    }

    /// Reads the next field, which must be `key`.
    pub fn field<T: Field>(&mut self, key: &str) -> Result<T, String> {
        self.rest = (self.rest.strip_prefix(self.sep))
            .and_then(|r| r.strip_prefix('"')?.strip_prefix(key)?.strip_prefix("\":"))
            .ok_or_else(|| format!("expected field {key:?}"))?;
        self.sep = ",";
        let text = if T::QUOTED {
            self.string()?
        } else {
            let digits = self.rest.bytes().take_while(u8::is_ascii_digit).count();
            let (number, rest) = self.rest.split_at(digits);
            self.rest = rest;
            number.to_owned()
        };
        T::take(&text).map_err(|e| format!("field {key:?}: {e}"))
    }

    /// Reads one string, undoing the writer's escapes.
    fn string(&mut self) -> Result<String, String> {
        let body = self.rest.strip_prefix('"').ok_or("expected a string")?;
        let mut text = String::new();
        let mut chars = body.char_indices();
        loop {
            match chars.next().ok_or("unterminated string")? {
                (i, '"') => {
                    self.rest = &body[i + 1..];
                    return Ok(text);
                }
                (i, '\\') => match chars.next() {
                    Some((_, e @ ('"' | '\\'))) => text.push(e),
                    Some((_, 'u')) => {
                        let code = body
                            .get(i + 2..i + 6)
                            .and_then(|hex| char::from_u32(u32::from_str_radix(hex, 16).ok()?));
                        text.push(code.ok_or("bad \\u escape")?);
                        chars.nth(3);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                (_, c) => text.push(c),
            }
        }
    }

    /// Errors unless the object closes here and the line ends.
    pub fn finish(self) -> Result<(), String> {
        match self.rest {
            "}" => Ok(()),
            rest => Err(format!("expected the closing brace, found {rest:?}")),
        }
    }
}

/// Describes an enum written as the tail of a JSON object: one row per
/// variant, `Variant { fields } = tag`, the fields in wire order. The tag
/// goes under `$key`, each field under its own name. Generates
/// `put_json` and `take_json`.
macro_rules! json_enum {
    ($ty:ident, $key:expr; $( $v:ident { $( $f:ident $(: $as:ident)? ),* } = $tag:expr ),* $(,)?) => {
        impl $ty {
            fn put_json(&self, json: &mut $crate::codec::JsonWriter) {
                match self {$(
                    Self::$v { $($f),* } => {
                        json.str($key, $tag);
                        $( json.field(stringify!($f), $crate::codec::put_as!($f $(, $as)?)); )*
                    }
                )*}
            }
            fn take_json(json: &mut $crate::codec::JsonReader<'_>) -> Result<Self, String> {
                let tag: String = json.field($key)?;
                $( if tag == $tag {
                    return Ok(Self::$v {
                        $( $f: $crate::codec::take_as!(json.field(stringify!($f))? $(, $as)?), )*
                    });
                } )*
                Err(format!("unknown {} type {tag:?}", $key))
            }
        }
    };
}
pub(crate) use json_enum;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_round_trip_and_reject_garbage() {
        assert_eq!(decode::<(u64, Option<i32>)>("7 -"), Ok((7, None)));
        assert_eq!(encode(&(7u64, Some(-3i32))), "7 -3");
        assert_eq!(
            decode::<(bool, String)>("1 free text"),
            Ok((true, "free text".into()))
        );
        assert!(decode::<(u64, u64)>("1 2 3").is_err(), "trailing word");
        assert!(decode::<(u64, u64)>("1").is_err(), "missing word");
        assert!(decode::<(u64, u64)>("1  2").is_err(), "double space");
        assert_eq!(Hex::take("ff"), Ok(Hex(0xff)));
        assert!(Hex::take("").is_err() && Hex::take("fg").is_err());
        assert_eq!(Addr::take("0x1f"), Ok(Addr(0x1f)));
        assert_eq!(Addr::take("31"), Ok(Addr(31)));
        let mut out = String::new();
        Addr(0x1f).put(&mut out);
        assert_eq!(out, "0x1f");
    }

    #[test]
    fn json_strings_escape_and_unescape_exactly() {
        let text = "q\"b\\s\nn\u{1}c é漢";
        let mut json = JsonWriter::default();
        json.field("s", &text.to_owned());
        json.field("n", &u64::MAX);
        let line = json.finish();
        assert_eq!(
            line,
            r#"{"s":"q\"b\\s\u000an\u0001c é漢","n":18446744073709551615}"#
        );
        let mut reader = JsonReader::new(&line).expect("opens");
        assert_eq!(reader.field::<String>("s").as_deref(), Ok(text));
        assert_eq!(reader.field::<u64>("n"), Ok(u64::MAX));
        reader.finish().expect("closes");
        for bad in [r#"{"s":"\n"}"#, r#"{"s":"x"#, r#"{"t":"x"}"#, r#"{"s":1}"#] {
            let mut reader = JsonReader::new(bad).expect("opens");
            assert!(reader.field::<String>("s").is_err(), "accepted {bad}");
        }
    }
}
