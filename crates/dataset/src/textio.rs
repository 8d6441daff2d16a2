//! Minimal line-oriented text (de)serialization substrate.
//!
//! One record per line, `tag value value …`, human-inspectable and
//! dependency-free. Floats are written with `{:?}` (shortest round-trip
//! representation), so a round trip is bit-exact. The run journal writes
//! this form, and the v1–v4 model files were written in it; both sides
//! implement the [`crate::codec`] record traits, so every persisted type
//! parses from text and from the binary model body through one parser.

use crate::codec::{RecordRead, RecordWrite};
use std::fmt::Write as _;

/// Writer side: push tagged lines into a growing buffer.
#[derive(Debug, Default)]
pub struct TextWriter {
    buf: String,
}

impl TextWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write a line: the tag followed by space-separated fields.
    pub fn line<I, S>(&mut self, tag: &str, fields: I)
    where
        I: IntoIterator<Item = S>,
        S: std::fmt::Display,
    {
        self.buf.push_str(tag);
        for f in fields {
            self.buf.push(' ');
            self.buf.push_str(&f.to_string());
        }
        self.buf.push('\n');
    }

    /// Finish, returning the buffer.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Reader side: consume tagged lines with typed field extraction.
#[derive(Debug)]
pub struct TextReader<'a> {
    /// Input not yet consumed, starting at the line after the current one.
    rest: &'a str,
    /// 1-based line number of the last line read (for error messages).
    line_no: usize,
    /// Tag and unread fields of the record opened by `RecordRead::begin`.
    tag: &'a str,
    fields: std::str::SplitWhitespace<'a>,
    /// 0-based index of the next field of the open record.
    field_no: usize,
}

/// Structured parse error: what went wrong and where.
///
/// `line` is 1-based (0 when the failure is not tied to a specific line,
/// e.g. a semantic check after parsing); `column` is the 0-based field index
/// within the line, when known. Producers that only have a message can use
/// the `From<String>` / `From<&str>` shims.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextError {
    /// 1-based line number; 0 when unknown.
    pub line: usize,
    /// 0-based field index within the line, when known.
    pub column: Option<usize>,
    /// Description of the problem.
    pub message: String,
}

impl TextError {
    /// Error anchored to a line.
    pub fn at(line: usize, message: impl Into<String>) -> Self {
        TextError { line, column: None, message: message.into() }
    }

    /// Error anchored to a field within a line.
    pub fn at_field(line: usize, column: usize, message: impl Into<String>) -> Self {
        TextError { line, column: Some(column), message: message.into() }
    }
}

impl std::fmt::Display for TextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.line, self.column) {
            (0, _) => write!(f, "{}", self.message),
            (line, None) => write!(f, "line {line}: {}", self.message),
            (line, Some(col)) => write!(f, "line {line}, field {col}: {}", self.message),
        }
    }
}

impl std::error::Error for TextError {}

impl From<String> for TextError {
    fn from(message: String) -> Self {
        TextError { line: 0, column: None, message }
    }
}

impl From<&str> for TextError {
    fn from(message: &str) -> Self {
        TextError { line: 0, column: None, message: message.to_string() }
    }
}

impl<'a> TextReader<'a> {
    /// Read from a text buffer.
    pub fn new(text: &'a str) -> Self {
        TextReader { rest: text, line_no: 0, tag: "", fields: "".split_whitespace(), field_no: 0 }
    }

    /// Split the next line (without its `\n` or `\r\n`) off `rest`.
    fn split_line(rest: &'a str) -> Option<(&'a str, &'a str)> {
        if rest.is_empty() {
            return None;
        }
        let (line, tail) = rest.split_once('\n').unwrap_or((rest, ""));
        Some((line.strip_suffix('\r').unwrap_or(line), tail))
    }

    /// Next non-empty line's fields; errors at end of input.
    fn next_fields(&mut self) -> Result<std::str::SplitWhitespace<'a>, TextError> {
        loop {
            self.line_no += 1;
            match Self::split_line(self.rest) {
                None => return Err(TextError::at(self.line_no, "unexpected end of input")),
                Some((line, tail)) => {
                    self.rest = tail;
                    if !line.trim().is_empty() {
                        return Ok(line.split_whitespace());
                    }
                }
            }
        }
    }

    /// Consume a line that must start with `tag`; returns its fields.
    pub fn expect(&mut self, tag: &str) -> Result<Vec<&'a str>, TextError> {
        RecordRead::begin(self, tag)?;
        Ok(self.fields.by_ref().collect())
    }

    /// Consume a `tag`-line that must carry exactly one field, parsed as `T`.
    pub fn parse_one<T: std::str::FromStr>(&mut self, tag: &str) -> Result<T, TextError> {
        let fields = self.expect(tag)?;
        match fields[..] {
            [f] => f.parse::<T>().map_err(|_| {
                TextError::at_field(self.line_no, 0, format!("bad field `{f}` for `{tag}`"))
            }),
            _ => Err(TextError::at(
                self.line_no,
                format!("tag `{tag}` expects exactly one field, found {}", fields.len()),
            )),
        }
    }

    /// Next field of the open record, parsed as `T`.
    fn next_field<T: std::str::FromStr>(&mut self) -> Result<T, TextError> {
        let (tag, col) = (self.tag, self.field_no);
        self.field_no += 1;
        let f = self.fields.next().ok_or_else(|| {
            TextError::at_field(self.line_no, col, format!("`{tag}` is missing field {col}"))
        })?;
        f.parse::<T>().map_err(|_| {
            TextError::at_field(self.line_no, col, format!("bad field `{f}` for `{tag}`"))
        })
    }
}

impl RecordWrite for TextWriter {
    fn begin(&mut self, tag: &str) {
        self.buf.push_str(tag);
    }

    fn put_uint(&mut self, v: u64) {
        let _ = write!(self.buf, " {v}");
    }

    fn put_float(&mut self, v: f64) {
        let _ = write!(self.buf, " {v:?}");
    }

    fn end(&mut self) {
        self.buf.push('\n');
    }

    fn floats(&mut self, tag: &str, values: &[f64]) {
        self.begin(tag);
        for &v in values {
            self.put_float(v);
        }
        self.end();
    }

    fn uints(&mut self, tag: &str, values: impl ExactSizeIterator<Item = u64>) {
        self.begin(tag);
        for v in values {
            self.put_uint(v);
        }
        self.end();
    }
}

impl RecordRead for TextReader<'_> {
    fn peek_is(&self, tag: &str) -> bool {
        let mut rest = self.rest;
        while let Some((line, tail)) = Self::split_line(rest) {
            if !line.trim().is_empty() {
                return line.split_whitespace().next() == Some(tag);
            }
            rest = tail;
        }
        false
    }

    fn begin(&mut self, tag: &str) -> Result<(), TextError> {
        let mut fields = self.next_fields()?;
        let found = fields.next().unwrap_or("");
        if found != tag {
            return Err(TextError::at(
                self.line_no,
                format!("expected tag `{tag}`, found `{found}`"),
            ));
        }
        (self.tag, self.fields, self.field_no) = (found, fields, 0);
        Ok(())
    }

    fn get_u64(&mut self) -> Result<u64, TextError> {
        self.next_field()
    }

    fn get_float(&mut self) -> Result<f64, TextError> {
        self.next_field()
    }

    fn end(&mut self) -> Result<(), TextError> {
        match self.fields.next() {
            None => Ok(()),
            Some(f) => Err(TextError::at_field(
                self.line_no,
                self.field_no,
                format!("unexpected extra field `{f}` for `{}`", self.tag),
            )),
        }
    }

    fn floats(&mut self, tag: &str) -> Result<Vec<f64>, TextError> {
        self.begin(tag)?;
        let mut out = Vec::new();
        while self.fields.clone().next().is_some() {
            out.push(self.next_field()?);
        }
        Ok(out)
    }

    fn uints<T: TryFrom<u64>>(&mut self, tag: &str) -> Result<Vec<T>, TextError> {
        self.begin(tag)?;
        let mut out = Vec::new();
        while self.fields.clone().next().is_some() {
            out.push(self.get_uint()?);
        }
        Ok(out)
    }

    fn remaining(&self) -> usize {
        self.rest.len()
    }

    fn error(&self, message: String) -> TextError {
        TextError::at(self.line_no, message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_tagged_lines() {
        let mut w = TextWriter::new();
        w.line("header", ["v1"]);
        w.floats("weights", &[1.5, -0.25, 1e-300, f64::MAX]);
        w.line("count", [42u32]);
        w.tag("end");
        let text = w.finish();

        let mut r = TextReader::new(&text);
        assert_eq!(r.expect("header").unwrap(), vec!["v1"]);
        let ws = r.floats("weights").unwrap();
        assert_eq!(ws, vec![1.5, -0.25, 1e-300, f64::MAX]);
        assert_eq!(r.parse_one::<u32>("count").unwrap(), 42);
        assert!(r.expect("end").unwrap().is_empty());
    }

    #[test]
    fn float_roundtrip_is_bit_exact() {
        let values = [0.1, 1.0 / 3.0, std::f64::consts::PI, -2.2250738585072014e-308];
        let mut w = TextWriter::new();
        w.floats("v", &values);
        let text = w.finish();
        let mut r = TextReader::new(&text);
        let back = r.floats("v").unwrap();
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn wrong_tag_is_an_error_with_location() {
        let mut r = TextReader::new("alpha 1\nbeta 2\n");
        assert!(r.expect("alpha").is_ok());
        let err = r.expect("gamma").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.to_string().contains("gamma"), "{err}");
    }

    #[test]
    fn eof_and_bad_fields_error() {
        let mut r = TextReader::new("x 1\n");
        assert!(r.uints::<u32>("x").is_ok());
        assert!(r.expect("y").unwrap_err().to_string().contains("end of input"));
        let mut r = TextReader::new("x one two\n");
        let err = r.uints::<u32>("x").unwrap_err();
        assert!(err.to_string().contains("bad field"), "{err}");
        assert_eq!((err.line, err.column), (1, Some(0)));
        let mut r = TextReader::new("x 1 2\n");
        let err = r.parse_one::<i32>("x").unwrap_err();
        assert!(err.to_string().contains("exactly one"), "{err}");
        let mut r = TextReader::new("x 1 2\n");
        let err = r.uint::<u32>("x").unwrap_err();
        assert!(err.to_string().contains("extra field `2`"), "{err}");
        assert_eq!((err.line, err.column), (1, Some(1)));
    }

    #[test]
    fn message_only_errors_display_bare() {
        let e: TextError = "semantic problem".into();
        assert_eq!(e.to_string(), "semantic problem");
        let e = TextError::at_field(3, 1, "bad cell");
        assert_eq!(e.to_string(), "line 3, field 1: bad cell");
    }

    #[test]
    fn empty_lines_are_skipped_and_peek_works() {
        let mut r = TextReader::new("\n\na 1\n\nb 2\n");
        assert!(r.peek_is("a"));
        assert_eq!(r.parse_one::<i32>("a").unwrap(), 1);
        assert!(r.peek_is("b"));
        assert!(!r.peek_is("a"));
    }
}
