//! Plain-text and JSON rendering of tables and figure data series.
//!
//! The experiment harness in `mbfi-bench` uses these helpers to print the
//! rows and series the paper reports, in a form that is easy to diff between
//! runs and against EXPERIMENTS.md.  Machine-readable emission goes through
//! the dependency-free [`json`] writer (the build must work fully offline,
//! so there is no serde here).

use std::fmt::Write as _;

pub mod json {
    //! A minimal hand-rolled JSON writer **and reader**.
    //!
    //! Values are built as a [`Json`] tree and rendered with [`Json::render`].
    //! Only what report emission needs is implemented: objects keep their
    //! insertion order, floats are emitted with enough precision to
    //! round-trip, and non-finite floats become `null` (JSON has no NaN).
    //!
    //! [`Json::parse`] is the matching minimal reader: it accepts exactly the
    //! grammar the writer produces (plus insignificant whitespace), so any
    //! rendered value round-trips.  The telemetry JSONL stream and
    //! `mbfi-monitor --headless` are built on this pair — no serde, fully
    //! offline.

    use std::fmt::Write as _;

    /// A JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Integer (kept exact; JSON numbers are not limited to f64 here).
        Int(i64),
        /// Unsigned integer (kept exact).
        UInt(u64),
        /// Floating point; NaN and infinities render as `null`.
        Num(f64),
        /// String (escaped on render).
        Str(String),
        /// Array.
        Arr(Vec<Json>),
        /// Object with insertion-ordered keys.
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        /// An empty object.
        pub fn object() -> Json {
            Json::Obj(Vec::new())
        }

        /// Insert a key into an object (panics on non-objects).
        pub fn set(&mut self, key: impl Into<String>, value: impl Into<Json>) -> &mut Json {
            match self {
                Json::Obj(entries) => entries.push((key.into(), value.into())),
                other => panic!("Json::set on non-object {other:?}"),
            }
            self
        }

        /// Render to a compact JSON string.
        pub fn render(&self) -> String {
            let mut out = String::new();
            self.write(&mut out);
            out
        }

        fn write(&self, out: &mut String) {
            match self {
                Json::Null => out.push_str("null"),
                Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Json::Int(v) => {
                    let _ = write!(out, "{v}");
                }
                Json::UInt(v) => {
                    let _ = write!(out, "{v}");
                }
                Json::Num(v) => {
                    if v.is_finite() {
                        // `{:?}` prints round-trippable f64 (always with a
                        // decimal point or exponent, so it stays a float).
                        let _ = write!(out, "{v:?}");
                    } else {
                        out.push_str("null");
                    }
                }
                Json::Str(s) => write_escaped(out, s),
                Json::Arr(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        item.write(out);
                    }
                    out.push(']');
                }
                Json::Obj(entries) => {
                    out.push('{');
                    for (i, (k, v)) in entries.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        write_escaped(out, k);
                        out.push(':');
                        v.write(out);
                    }
                    out.push('}');
                }
            }
        }
    }

    /// Hard cap on the size of a [`Json::parse`] input, in bytes.  The
    /// daemon feeds untrusted wire bytes through this parser; anything
    /// larger than this is rejected up front instead of being tokenised.
    pub const MAX_PARSE_BYTES: usize = 16 * 1024 * 1024;

    /// Hard cap on container nesting in [`Json::parse`].  The parser
    /// recurses per `[`/`{`, so without a limit a few kilobytes of `[[[[…`
    /// overflow the stack; 128 levels is far beyond anything the writer
    /// emits.
    pub const MAX_PARSE_DEPTH: usize = 128;

    /// Error from [`Json::parse`]: byte offset of the failure plus a short
    /// message.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct JsonParseError {
        /// Byte offset into the input where parsing failed.
        pub offset: usize,
        /// Human-readable description of the failure.
        pub message: String,
    }

    impl std::fmt::Display for JsonParseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(
                f,
                "json parse error at byte {}: {}",
                self.offset, self.message
            )
        }
    }

    impl Json {
        /// Parse a JSON document (one value, optionally surrounded by
        /// whitespace).  Integral numbers without fraction/exponent parse as
        /// [`Json::UInt`] when non-negative and [`Json::Int`] when negative;
        /// anything with a `.`, `e` or `E` parses as [`Json::Num`].
        ///
        /// Safe on untrusted input: inputs over [`MAX_PARSE_BYTES`] and
        /// nesting over [`MAX_PARSE_DEPTH`] are rejected with an error, and
        /// every malformed document returns a [`JsonParseError`] carrying
        /// the byte offset of the failure — never a panic.
        pub fn parse(input: &str) -> Result<Json, JsonParseError> {
            if input.len() > MAX_PARSE_BYTES {
                return Err(JsonParseError {
                    offset: MAX_PARSE_BYTES,
                    message: format!(
                        "input is {} bytes; the limit is {MAX_PARSE_BYTES}",
                        input.len()
                    ),
                });
            }
            let mut p = Parser {
                bytes: input.as_bytes(),
                pos: 0,
                depth: 0,
            };
            p.skip_ws();
            let value = p.value()?;
            p.skip_ws();
            if p.pos != p.bytes.len() {
                return Err(p.error("trailing characters after value"));
            }
            Ok(value)
        }

        /// Object field lookup (`None` on non-objects and missing keys).
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// Unsigned integer view (`Int`/`UInt` only; negatives are `None`).
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Json::UInt(v) => Some(*v),
                Json::Int(v) => u64::try_from(*v).ok(),
                _ => None,
            }
        }

        /// Float view of any numeric value.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(v) => Some(*v),
                Json::Int(v) => Some(*v as f64),
                Json::UInt(v) => Some(*v as f64),
                _ => None,
            }
        }

        /// String view.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        /// Bool view.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Json::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// Array view.
        pub fn as_array(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(items) => Some(items),
                _ => None,
            }
        }
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        /// Current container nesting, bounded by [`MAX_PARSE_DEPTH`].
        depth: usize,
    }

    impl Parser<'_> {
        fn error(&self, message: &str) -> JsonParseError {
            JsonParseError {
                offset: self.pos,
                message: message.to_string(),
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn eat(&mut self, lit: &str) -> bool {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                true
            } else {
                false
            }
        }

        fn value(&mut self) -> Result<Json, JsonParseError> {
            match self.peek() {
                None => Err(self.error("unexpected end of input")),
                Some(b'n') if self.eat("null") => Ok(Json::Null),
                Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
                Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
                Some(b'"') => self.string().map(Json::Str),
                Some(b'[') => self.array(),
                Some(b'{') => self.object(),
                Some(b'-' | b'0'..=b'9') => self.number(),
                Some(_) => Err(self.error("unexpected character")),
            }
        }

        fn enter(&mut self) -> Result<(), JsonParseError> {
            if self.depth >= MAX_PARSE_DEPTH {
                return Err(self.error("containers nested deeper than the limit"));
            }
            self.depth += 1;
            Ok(())
        }

        fn array(&mut self) -> Result<Json, JsonParseError> {
            self.enter()?;
            self.pos += 1; // consume '['
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                self.depth -= 1;
                return Ok(Json::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        self.depth -= 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(self.error("expected ',' or ']' in array")),
                }
            }
        }

        fn object(&mut self) -> Result<Json, JsonParseError> {
            self.enter()?;
            self.pos += 1; // consume '{'
            let mut entries = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                self.depth -= 1;
                return Ok(Json::Obj(entries));
            }
            loop {
                self.skip_ws();
                if self.peek() != Some(b'"') {
                    return Err(self.error("expected string key in object"));
                }
                let key = self.string()?;
                self.skip_ws();
                if self.peek() != Some(b':') {
                    return Err(self.error("expected ':' after object key"));
                }
                self.pos += 1;
                self.skip_ws();
                let value = self.value()?;
                entries.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        self.depth -= 1;
                        return Ok(Json::Obj(entries));
                    }
                    _ => return Err(self.error("expected ',' or '}' in object")),
                }
            }
        }

        fn string(&mut self) -> Result<String, JsonParseError> {
            self.pos += 1; // consume opening quote
            let mut out = String::new();
            loop {
                let start = self.pos;
                // Fast path: copy a run of plain bytes verbatim.
                while let Some(b) = self.peek() {
                    if b == b'"' || b == b'\\' || b < 0x20 {
                        break;
                    }
                    self.pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("invalid utf-8 in string"))?,
                );
                match self.peek() {
                    None => return Err(self.error("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let esc = self.peek().ok_or_else(|| self.error("bad escape"))?;
                        self.pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let hi = self.hex4()?;
                                let c = if (0xD800..0xDC00).contains(&hi) {
                                    // Surrogate pair: expect \uXXXX low half.
                                    if !self.eat("\\u") {
                                        return Err(self.error("lone high surrogate"));
                                    }
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    char::from_u32(hi)
                                };
                                out.push(c.ok_or_else(|| self.error("invalid \\u escape"))?);
                            }
                            _ => return Err(self.error("unknown escape character")),
                        }
                    }
                    Some(_) => return Err(self.error("raw control character in string")),
                }
            }
        }

        fn hex4(&mut self) -> Result<u32, JsonParseError> {
            let end = self.pos + 4;
            if end > self.bytes.len() {
                return Err(self.error("truncated \\u escape"));
            }
            let s = std::str::from_utf8(&self.bytes[self.pos..end])
                .map_err(|_| self.error("bad \\u escape"))?;
            let v = u32::from_str_radix(s, 16).map_err(|_| self.error("bad \\u escape"))?;
            self.pos = end;
            Ok(v)
        }

        fn number(&mut self) -> Result<Json, JsonParseError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            let mut float = false;
            while let Some(b) = self.peek() {
                match b {
                    b'0'..=b'9' => self.pos += 1,
                    b'.' | b'e' | b'E' | b'+' | b'-' => {
                        float = true;
                        self.pos += 1;
                    }
                    _ => break,
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| self.error("bad number"))?;
            if !float {
                // Mirror the builder's `From` impls: unsigned values are
                // `UInt`, so a rendered document parses back variant-for-
                // variant (negatives are the only `Int`s the writer emits
                // from its integer conversions).
                if let Ok(v) = text.parse::<u64>() {
                    return Ok(Json::UInt(v));
                }
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Json::Int(v));
                }
            }
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| self.error("bad number"))
        }
    }

    fn write_escaped(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    impl From<bool> for Json {
        fn from(v: bool) -> Json {
            Json::Bool(v)
        }
    }

    impl From<i64> for Json {
        fn from(v: i64) -> Json {
            Json::Int(v)
        }
    }

    impl From<u32> for Json {
        fn from(v: u32) -> Json {
            Json::UInt(v as u64)
        }
    }

    impl From<u64> for Json {
        fn from(v: u64) -> Json {
            Json::UInt(v)
        }
    }

    impl From<usize> for Json {
        fn from(v: usize) -> Json {
            Json::UInt(v as u64)
        }
    }

    impl From<f64> for Json {
        fn from(v: f64) -> Json {
            Json::Num(v)
        }
    }

    impl From<&str> for Json {
        fn from(v: &str) -> Json {
            Json::Str(v.to_string())
        }
    }

    impl From<String> for Json {
        fn from(v: String) -> Json {
            Json::Str(v)
        }
    }

    impl<T: Into<Json>> From<Vec<T>> for Json {
        fn from(v: Vec<T>) -> Json {
            Json::Arr(v.into_iter().map(Into::into).collect())
        }
    }
}

pub use json::{Json, JsonParseError};

/// A simple aligned text table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TextTable {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (each row should have `headers.len()` cells).
    pub rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with the given title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> TextTable {
        TextTable {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn add_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                if cell.len() > widths[i] {
                    widths[i] = cell.len();
                }
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "{}", self.title);
        }
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:<width$}", h, width = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header_line.join("  "));
        let total_width = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total_width));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .take(ncols)
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Render as a JSON object `{title, headers, rows}`.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("title", self.title.clone());
        obj.set("headers", self.headers.clone());
        obj.set(
            "rows",
            Json::Arr(self.rows.iter().cloned().map(Json::from).collect()),
        );
        obj
    }
}

/// A named data series (one line / bar group of a figure).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series {
    /// Series label (e.g. a win-size configuration).
    pub label: String,
    /// `(x label, y value)` points.
    pub points: Vec<(String, f64)>,
}

impl Series {
    /// Create an empty series.
    pub fn new(label: impl Into<String>) -> Series {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: impl Into<String>, y: f64) {
        self.points.push((x.into(), y));
    }

    /// Render as a JSON object `{label, points: [{x, y}]}`.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("label", self.label.clone());
        obj.set(
            "points",
            Json::Arr(
                self.points
                    .iter()
                    .map(|(x, y)| {
                        let mut p = Json::object();
                        p.set("x", x.clone());
                        p.set("y", *y);
                        p
                    })
                    .collect(),
            ),
        );
        obj
    }
}

/// Figure data: a collection of series, renderable as a per-x text block.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FigureData {
    /// Figure title.
    pub title: String,
    /// Data series.
    pub series: Vec<Series>,
}

impl FigureData {
    /// Create an empty figure.
    pub fn new(title: impl Into<String>) -> FigureData {
        FigureData {
            title: title.into(),
            series: Vec::new(),
        }
    }

    /// Render as an aligned table with one column per series.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(self.title.clone(), &[""]);
        table.headers = std::iter::once("x".to_string())
            .chain(self.series.iter().map(|s| s.label.clone()))
            .collect();
        // Collect x labels in the order of the first series.
        let xs: Vec<String> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|(x, _)| x.clone()).collect())
            .unwrap_or_default();
        for x in xs {
            let mut row = vec![x.clone()];
            for s in &self.series {
                let y = s
                    .points
                    .iter()
                    .find(|(px, _)| *px == x)
                    .map(|(_, y)| format!("{y:.2}"))
                    .unwrap_or_else(|| "-".to_string());
                row.push(y);
            }
            table.add_row(row);
        }
        table.render()
    }

    /// Render as a JSON object `{title, series}`.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("title", self.title.clone());
        obj.set(
            "series",
            Json::Arr(self.series.iter().map(Series::to_json).collect()),
        );
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = TextTable::new("Demo", &["program", "sdc%"]);
        t.add_row(vec!["basicmath".into(), "12.50".into()]);
        t.add_row(vec!["qsort".into(), "7.00".into()]);
        let out = t.render();
        assert!(out.contains("Demo"));
        assert!(out.contains("program"));
        assert!(out.contains("basicmath  12.50"));
    }

    #[test]
    fn json_writer_escapes_and_renders_all_value_kinds() {
        let mut obj = Json::object();
        obj.set("name", "qu\"ote\\and\nnewline");
        obj.set("int", -3i64);
        obj.set("uint", u64::MAX);
        obj.set("pi", 3.5f64);
        obj.set("nan", f64::NAN);
        obj.set("flag", true);
        obj.set("list", vec![1u64, 2, 3]);
        obj.set("nil", Json::Null);
        assert_eq!(
            obj.render(),
            "{\"name\":\"qu\\\"ote\\\\and\\nnewline\",\"int\":-3,\
             \"uint\":18446744073709551615,\"pi\":3.5,\"nan\":null,\
             \"flag\":true,\"list\":[1,2,3],\"nil\":null}"
        );
        // Control characters use the \u escape.
        assert_eq!(Json::from("a\u{1}b").render(), "\"a\\u0001b\"");
    }

    /// Every control character below 0x20 must leave the writer as an
    /// escape sequence — either one of the short forms (`\n`, `\r`, `\t`) or
    /// a `\u00XX` escape — never as a raw byte, which would be invalid JSON.
    #[test]
    fn all_control_characters_are_escaped() {
        for c in (0u32..0x20).map(|c| char::from_u32(c).unwrap()) {
            let rendered = Json::from(format!("x{c}y")).render();
            let expected = match c {
                '\n' => "\"x\\ny\"".to_string(),
                '\r' => "\"x\\ry\"".to_string(),
                '\t' => "\"x\\ty\"".to_string(),
                c => format!("\"x\\u{:04x}y\"", c as u32),
            };
            assert_eq!(rendered, expected, "control char U+{:04X}", c as u32);
            // The rendered string must contain no raw control bytes at all.
            assert!(
                rendered.bytes().all(|b| b >= 0x20),
                "raw control byte leaked for U+{:04X}: {rendered:?}",
                c as u32
            );
        }
        // Boundary cases: 0x20 (space) and DEL pass through unescaped,
        // quotes and backslashes keep their dedicated escapes.
        assert_eq!(Json::from(" ").render(), "\" \"");
        assert_eq!(Json::from("\u{7f}").render(), "\"\u{7f}\"");
        assert_eq!(Json::from("\"\\").render(), "\"\\\"\\\\\"");
    }

    /// Writer→parser round trip over every value kind, including the string
    /// escapes the writer can produce and non-ASCII text.
    #[test]
    fn json_parse_round_trips_rendered_values() {
        let mut obj = Json::object();
        obj.set("name", "qu\"ote\\and\nnewline\ttab\rcr");
        obj.set("control", "a\u{1}b\u{1f}c");
        obj.set("non_ascii", "héllo → wörld ∑ 日本語 🦀");
        obj.set("int", -3i64);
        obj.set("uint", u64::MAX);
        obj.set("pi", 3.25f64);
        obj.set("tiny", 1.0e-10f64);
        obj.set("flag", true);
        obj.set("list", vec![1u64, 2, 3]);
        obj.set("nil", Json::Null);
        obj.set("nested", {
            let mut n = Json::object();
            n.set("empty_arr", Json::Arr(vec![]));
            n.set("empty_obj", Json::object());
            n
        });
        let rendered = obj.render();
        let parsed = Json::parse(&rendered).expect("rendered JSON must parse");
        assert_eq!(parsed, obj, "parse(render(v)) == v");
        // And the re-render is byte-identical (canonical form is stable).
        assert_eq!(parsed.render(), rendered);
    }

    #[test]
    fn json_parse_accepts_whitespace_and_escapes() {
        let v =
            Json::parse(" { \"a\" : [ 1 , -2.5 , \"\\u0041\\u00e9\" ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(-2.5)
        );
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_str(),
            Some("Aé")
        );
        assert_eq!(v.get("b"), Some(&Json::Null));
        // Surrogate pair: U+1F980 (crab) as \ud83e\udd80.
        let crab = Json::parse("\"\\ud83e\\udd80\"").unwrap();
        assert_eq!(crab.as_str(), Some("🦀"));
        // Integers beyond i64 become UInt; floats keep their value.
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::UInt(u64::MAX)
        );
        assert_eq!(Json::parse("-9").unwrap(), Json::Int(-9));
        assert_eq!(Json::parse("2.5e3").unwrap(), Json::Num(2500.0));
    }

    #[test]
    fn json_parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "\"unterminated",
            "{\"a\" 1}",
            "nul",
            "[1] trailing",
            "\"bad \\q escape\"",
            "\"\\ud83e\"", // lone high surrogate
            "\"raw\u{1}control\"",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
        // Errors carry a byte offset pointing into the input.
        let err = Json::parse("[1, }").unwrap_err();
        assert!(err.offset <= 5);
        assert!(err.to_string().contains("byte"));
    }

    /// Deep nesting is rejected with an error instead of overflowing the
    /// stack — `Json::parse` recurses per container, and the daemon feeds it
    /// untrusted wire bytes.
    #[test]
    fn json_parse_bounds_recursion_depth() {
        // Pathological: a few hundred KiB of unclosed '[' (would previously
        // recurse ~300k frames deep before even failing on EOF).
        let bomb = "[".repeat(300_000);
        let err = Json::parse(&bomb).expect_err("nesting bomb must error");
        assert!(err.message.contains("nested deeper"), "{err}");
        assert_eq!(err.offset, json::MAX_PARSE_DEPTH);
        // Same for objects.
        let obomb = "{\"k\":".repeat(300_000);
        assert!(Json::parse(&obomb).is_err());
        // Nesting at the limit parses; one past it does not.
        let deep = |n: usize| format!("{}0{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&deep(json::MAX_PARSE_DEPTH)).is_ok());
        assert!(Json::parse(&deep(json::MAX_PARSE_DEPTH + 1)).is_err());
        // The depth counter resets between siblings: many shallow containers
        // in sequence are fine.
        let wide = format!("[{}0]", "[0],".repeat(10_000));
        assert!(Json::parse(&wide).is_ok());
    }

    /// Inputs over the size cap are rejected before tokenisation.
    #[test]
    fn json_parse_bounds_input_size() {
        let huge = format!("\"{}\"", "x".repeat(json::MAX_PARSE_BYTES));
        let err = Json::parse(&huge).expect_err("oversized input must error");
        assert_eq!(err.offset, json::MAX_PARSE_BYTES);
        assert!(err.message.contains("limit"), "{err}");
    }

    /// Every proper prefix of a rendered document is malformed (a truncated
    /// TCP line must produce an error, never a panic or a bogus value).
    #[test]
    fn json_parse_rejects_every_truncation() {
        let mut obj = Json::object();
        obj.set("name", "qu\"ote\\and\nnewline");
        obj.set("crab", "🦀\u{1}");
        obj.set("nums", vec![Json::Int(-3), Json::Num(2.5), Json::UInt(9)]);
        obj.set("nested", {
            let mut n = Json::object();
            n.set("flag", true);
            n.set("nil", Json::Null);
            n
        });
        let rendered = obj.render();
        assert!(Json::parse(&rendered).is_ok());
        for cut in 0..rendered.len() {
            if !rendered.is_char_boundary(cut) {
                continue;
            }
            assert!(
                Json::parse(&rendered[..cut]).is_err(),
                "truncation at byte {cut} must fail: {:?}",
                &rendered[..cut]
            );
        }
    }

    /// Seeded fuzz: random single-byte corruptions of a valid document must
    /// parse to `Ok` or `Err`, never panic, and errors must point inside
    /// the input.
    #[test]
    fn json_parse_survives_seeded_corruption() {
        use crate::rng::{Rng, SmallRng};
        let mut obj = Json::object();
        obj.set("s", "escape\\me \"now\" \u{1f}");
        obj.set("f", -1.25e-3f64);
        obj.set("a", vec![0u64, 1, 2]);
        obj.set("u", "\u{1F980}\u{00e9}");
        let rendered = rendered_bytes(&obj);
        let mut rng = SmallRng::seed_from_u64(0x5EED_F00D);
        for _ in 0..5_000 {
            let mut bytes = rendered.clone();
            let at = rng.gen_range(0..bytes.len() as u64) as usize;
            bytes[at] = rng.gen_range(0u32..=255) as u8;
            // Corruption may break UTF-8; only valid strings reach parse.
            let Ok(text) = std::str::from_utf8(&bytes) else {
                continue;
            };
            if let Err(err) = Json::parse(text) {
                assert!(err.offset <= text.len(), "offset out of range: {err}");
            }
        }
    }

    fn rendered_bytes(v: &Json) -> Vec<u8> {
        v.render().into_bytes()
    }

    #[test]
    fn table_and_figure_emit_json() {
        let mut t = TextTable::new("Demo", &["program", "sdc%"]);
        t.add_row(vec!["qsort".into(), "7.00".into()]);
        assert_eq!(
            t.to_json().render(),
            "{\"title\":\"Demo\",\"headers\":[\"program\",\"sdc%\"],\
             \"rows\":[[\"qsort\",\"7.00\"]]}"
        );

        let mut fig = FigureData::new("Fig");
        let mut s = Series::new("w=1");
        s.push("m=2", 10.25);
        fig.series.push(s);
        assert_eq!(
            fig.to_json().render(),
            "{\"title\":\"Fig\",\"series\":[{\"label\":\"w=1\",\
             \"points\":[{\"x\":\"m=2\",\"y\":10.25}]}]}"
        );
    }

    #[test]
    fn figure_renders_series_by_x() {
        let mut fig = FigureData::new("Fig X");
        let mut a = Series::new("w=1");
        a.push("m=2", 10.0);
        a.push("m=3", 8.0);
        let mut b = Series::new("w=10");
        b.push("m=2", 11.5);
        b.push("m=3", 7.25);
        fig.series.push(a);
        fig.series.push(b);
        let out = fig.render();
        assert!(out.contains("Fig X"));
        assert!(out.contains("w=1"));
        assert!(out.contains("m=2"));
        assert!(out.contains("11.50"));
    }

    #[test]
    fn missing_points_render_as_dash() {
        let mut fig = FigureData::new("F");
        let mut a = Series::new("a");
        a.push("x1", 1.0);
        a.push("x2", 2.0);
        let mut b = Series::new("b");
        b.push("x1", 3.0);
        fig.series.push(a);
        fig.series.push(b);
        let out = fig.render();
        assert!(out.lines().any(|l| l.contains("x2") && l.contains('-')));
    }

    #[test]
    fn empty_figure_and_table_are_safe() {
        let fig = FigureData::new("empty");
        assert!(fig.render().contains("empty"));
        let t = TextTable::new("", &["a"]);
        assert!(t.render().contains('a'));
    }
}
