//! Tagged-record codec shared by the text and binary persistence formats.
//!
//! A persisted model is a sequence of *records*: a tag naming the record,
//! then typed fields — unsigned integers, `f64`s, or one trailing list of
//! either. Every persisted type has exactly one writer, generic over
//! [`RecordWrite`], and one parser, generic over [`RecordRead`]; the two
//! implementations decide the bytes:
//!
//! * [`crate::textio`] — one record per line, `tag field field …`, floats in
//!   shortest round-trip form. The run journal and the legacy v1–v4 model
//!   files use it.
//! * [`BinWriter`] / [`BinReader`] — the compact binary body of model v5
//!   (`FORMATS.md` §3): a `u8` tag length and the tag bytes, then each
//!   field — an unsigned integer as a minimal LEB128 varint, a float as the
//!   8 little-endian bytes of `f64::to_bits` — and a list as a varint
//!   element count followed by its elements. Each value has exactly one
//!   encoding (overlong varints are rejected), so the layout is canonical.
//!
//! Readers never trust a length: a list's count is checked against the
//! bytes that remain before anything is allocated, and [`RecordRead::count`]
//! bounds element counts the same way, so a corrupt or hostile count is an
//! error, never a huge allocation or a panic.

use crate::textio::TextError;

/// Writer half of the record codec. Scalars go between
/// [`begin`](RecordWrite::begin) and [`end`](RecordWrite::end); lists are
/// whole records of their own.
pub trait RecordWrite {
    /// Open a record.
    fn begin(&mut self, tag: &str);
    /// Append an unsigned-integer field to the open record.
    fn put_uint(&mut self, v: u64);
    /// Append an `f64` field to the open record (bit-exact on reload).
    fn put_float(&mut self, v: f64);
    /// Close the open record.
    fn end(&mut self);
    /// A record holding a list of floats.
    fn floats(&mut self, tag: &str, values: &[f64]);
    /// A record holding a list of unsigned integers.
    fn uints(&mut self, tag: &str, values: impl ExactSizeIterator<Item = u64>);

    /// A record with no fields.
    fn tag(&mut self, tag: &str) {
        self.begin(tag);
        self.end();
    }

    /// A record holding one unsigned integer.
    fn uint(&mut self, tag: &str, v: u64) {
        self.begin(tag);
        self.put_uint(v);
        self.end();
    }

    /// A record holding one float.
    fn float(&mut self, tag: &str, v: f64) {
        self.begin(tag);
        self.put_float(v);
        self.end();
    }
}

/// Reader half of the record codec; mirrors [`RecordWrite`] call for call.
pub trait RecordRead {
    /// Whether the next record carries `tag` (does not consume).
    fn peek_is(&self, tag: &str) -> bool;
    /// Consume the head of a record that must carry `tag`.
    fn begin(&mut self, tag: &str) -> Result<(), TextError>;
    /// Next unsigned-integer field of the open record.
    fn get_u64(&mut self) -> Result<u64, TextError>;
    /// Next float field of the open record.
    fn get_float(&mut self) -> Result<f64, TextError>;
    /// Close the open record; it must have no fields left.
    fn end(&mut self) -> Result<(), TextError>;
    /// A record holding a list of floats.
    fn floats(&mut self, tag: &str) -> Result<Vec<f64>, TextError>;
    /// A record holding a list of unsigned integers, each converted to `T`.
    fn uints<T: TryFrom<u64>>(&mut self, tag: &str) -> Result<Vec<T>, TextError>;
    /// Bytes of input not yet consumed.
    fn remaining(&self) -> usize;
    /// An error anchored at the reader's position (line or byte offset).
    fn error(&self, message: String) -> TextError;

    /// Next unsigned-integer field, converted to `T` (range-checked).
    fn get_uint<T: TryFrom<u64>>(&mut self) -> Result<T, TextError> {
        let v = self.get_u64()?;
        T::try_from(v).map_err(|_| self.error(format!("integer field {v} out of range")))
    }

    /// A record with no fields.
    fn tag(&mut self, tag: &str) -> Result<(), TextError> {
        self.begin(tag)?;
        self.end()
    }

    /// A record holding one unsigned integer.
    fn uint<T: TryFrom<u64>>(&mut self, tag: &str) -> Result<T, TextError> {
        self.begin(tag)?;
        let v = self.get_uint()?;
        self.end()?;
        Ok(v)
    }

    /// A record holding one float.
    fn float(&mut self, tag: &str) -> Result<f64, TextError> {
        self.begin(tag)?;
        let v = self.get_float()?;
        self.end()?;
        Ok(v)
    }

    /// A record holding the number of records that follow it. Every
    /// counted record takes at least one byte, so a count larger than the
    /// input that remains is corrupt — rejected before the caller sizes an
    /// allocation by it.
    fn count(&mut self, tag: &str) -> Result<usize, TextError> {
        let n: usize = self.uint(tag)?;
        if n > self.remaining() {
            return Err(self.error(format!(
                "`{tag}` claims {n} records but only {} bytes remain",
                self.remaining()
            )));
        }
        Ok(n)
    }
}

/// Binary record writer: the body encoding of model v5.
#[derive(Debug, Default)]
pub struct BinWriter {
    buf: Vec<u8>,
}

impl BinWriter {
    /// Writer appending to `buf` (which may already hold a header).
    pub fn new(buf: Vec<u8>) -> Self {
        BinWriter { buf }
    }

    /// Finish, returning the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

impl RecordWrite for BinWriter {
    fn begin(&mut self, tag: &str) {
        let len = u8::try_from(tag.len()).unwrap_or_else(|_| panic!("record tag `{tag}` too long"));
        self.buf.push(len);
        self.buf.extend_from_slice(tag.as_bytes());
    }

    fn put_uint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    fn put_float(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn end(&mut self) {}

    fn floats(&mut self, tag: &str, values: &[f64]) {
        self.begin(tag);
        self.put_uint(values.len() as u64);
        self.buf.reserve(values.len() * 8);
        for v in values {
            self.put_float(*v);
        }
    }

    fn uints(&mut self, tag: &str, values: impl ExactSizeIterator<Item = u64>) {
        self.begin(tag);
        self.put_uint(values.len() as u64);
        for v in values {
            self.put_uint(v);
        }
    }
}

/// Binary record reader over a checksum-verified body.
#[derive(Debug)]
pub struct BinReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BinReader<'a> {
    /// Read records from `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BinReader { bytes, pos: 0 }
    }

    /// Succeeds only if every byte has been consumed: trailing bytes mean
    /// the image is not the canonical encoding of what was decoded.
    pub fn finish(self) -> Result<(), TextError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.error(format!(
                "{} trailing bytes after the last record",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], TextError> {
        if n > self.remaining() {
            return Err(self.error(format!(
                "record needs {n} more bytes, {} remain",
                self.remaining()
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a list's element count, checked against the bytes left for
    /// elements of at least `min_bytes` each before anything is allocated.
    fn list_len(&mut self, tag: &str, min_bytes: usize) -> Result<usize, TextError> {
        self.begin(tag)?;
        let n = self.get_u64()?;
        match usize::try_from(n) {
            Ok(n) if n <= self.remaining() / min_bytes => Ok(n),
            _ => Err(self.error(format!(
                "`{tag}` claims {n} elements but only {} bytes remain",
                self.remaining()
            ))),
        }
    }
}

fn le_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(b);
    u64::from_le_bytes(a)
}

impl RecordRead for BinReader<'_> {
    fn peek_is(&self, tag: &str) -> bool {
        let end = self.pos + 1 + tag.len();
        self.bytes.get(self.pos) == Some(&(tag.len() as u8))
            && self.bytes.get(self.pos + 1..end) == Some(tag.as_bytes())
    }

    fn begin(&mut self, tag: &str) -> Result<(), TextError> {
        if self.peek_is(tag) {
            self.pos += 1 + tag.len();
            return Ok(());
        }
        let found = match self.bytes.get(self.pos) {
            None => "end of body".to_string(),
            Some(&len) => {
                let end = (self.pos + 1 + len as usize).min(self.bytes.len());
                format!(
                    "`{}`",
                    String::from_utf8_lossy(&self.bytes[self.pos + 1..end])
                )
            }
        };
        Err(self.error(format!("expected tag `{tag}`, found {found}")))
    }

    fn get_u64(&mut self) -> Result<u64, TextError> {
        let mut v = 0u64;
        for (i, &b) in self.bytes[self.pos..].iter().take(10).enumerate() {
            // The tenth byte may carry only the top bit of a u64; a final
            // zero byte after the first would be an overlong encoding.
            if (i == 9 && b > 1) || (i > 0 && b == 0) {
                return Err(self.error("overlong or overflowing varint".into()));
            }
            v |= u64::from(b & 0x7F) << (7 * i);
            if b & 0x80 == 0 {
                self.pos += i + 1;
                return Ok(v);
            }
        }
        Err(self.error("varint runs past the end of the body".into()))
    }

    fn get_float(&mut self) -> Result<f64, TextError> {
        self.take(8).map(|b| f64::from_bits(le_u64(b)))
    }

    fn end(&mut self) -> Result<(), TextError> {
        Ok(())
    }

    fn floats(&mut self, tag: &str) -> Result<Vec<f64>, TextError> {
        let n = self.list_len(tag, 8)?;
        let raw = self.take(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(le_u64(c)))
            .collect())
    }

    fn uints<T: TryFrom<u64>>(&mut self, tag: &str) -> Result<Vec<T>, TextError> {
        let n = self.list_len(tag, 1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_uint()?);
        }
        Ok(out)
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn error(&self, message: String) -> TextError {
        TextError::from(format!("byte {}: {message}", self.pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::textio::{TextReader, TextWriter};

    /// One writer, exercised through both codecs.
    fn write_sample(w: &mut impl RecordWrite) {
        w.uint("count", 3);
        w.floats("weights", &[1.5, -0.25, 1e-300, f64::MAX]);
        w.begin("mixed");
        w.put_uint(7);
        w.put_float(0.1);
        w.end();
        w.uints("ids", [4, 0, 9].into_iter());
        w.floats("empty", &[]);
        w.tag("end");
    }

    /// The values `write_sample` stores, in order.
    type Sample = (usize, Vec<f64>, u32, f64, Vec<usize>, Vec<f64>);

    /// One parser, exercised through both codecs.
    fn read_sample(r: &mut impl RecordRead) -> Result<Sample, TextError> {
        let count = r.count("count")?;
        let weights = r.floats("weights")?;
        r.begin("mixed")?;
        let (k, x) = (r.get_uint()?, r.get_float()?);
        r.end()?;
        let ids = r.uints("ids")?;
        let empty = r.floats("empty")?;
        r.tag("end")?;
        Ok((count, weights, k, x, ids, empty))
    }

    fn check_sample(s: Sample) {
        let want = [1.5f64, -0.25, 1e-300, f64::MAX];
        assert_eq!(s.0, 3);
        assert!(s
            .1
            .iter()
            .map(|v| v.to_bits())
            .eq(want.iter().map(|v| v.to_bits())));
        assert_eq!((s.2, s.3.to_bits()), (7, 0.1f64.to_bits()));
        assert_eq!(s.4, vec![4, 0, 9]);
        assert!(s.5.is_empty());
    }

    #[test]
    fn one_writer_and_parser_roundtrip_through_both_codecs() {
        let mut t = TextWriter::new();
        write_sample(&mut t);
        let text = t.finish();
        assert!(text.contains("mixed 7 0.1\n"), "{text}");
        check_sample(read_sample(&mut TextReader::new(&text)).unwrap());

        let mut b = BinWriter::default();
        write_sample(&mut b);
        let bytes = b.finish();
        let mut r = BinReader::new(&bytes);
        check_sample(read_sample(&mut r).unwrap());
        r.finish().unwrap();
    }

    #[test]
    fn varints_are_minimal_and_checked() {
        let values = [
            0,
            1,
            127,
            128,
            300,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut w = BinWriter::default();
        for &v in &values {
            w.put_uint(v);
        }
        let bytes = w.finish();
        assert_eq!(bytes.len(), 1 + 1 + 1 + 2 + 2 + 5 + 10 + 10);
        let mut r = BinReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.get_u64().unwrap(), v);
        }
        r.finish().unwrap();
        // Overlong (a padded zero group), overflowing (an eleventh byte or
        // a tenth byte above 1) and unterminated varints are all errors.
        for bad in [
            &[0x80, 0x00][..],
            &[0xFF; 10][..],
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02][..],
            &[0x80][..],
        ] {
            assert!(BinReader::new(bad).get_u64().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn peek_matches_whole_tags_only() {
        let mut b = BinWriter::default();
        b.tag("mixed");
        let bytes = b.finish();
        let r = BinReader::new(&bytes);
        assert!(r.peek_is("mixed"));
        assert!(!r.peek_is("mix") && !r.peek_is("mixed2"));
    }

    #[test]
    fn binary_lengths_are_checked_before_allocating() {
        // A list claiming 2^60 floats in a tiny body.
        let mut b = BinWriter::default();
        b.begin("weights");
        b.put_uint(1 << 60);
        let bytes = b.finish();
        let err = BinReader::new(&bytes).floats("weights").unwrap_err();
        assert!(err.to_string().contains("claims"), "{err}");
        // A record count larger than the bytes that remain.
        let mut b = BinWriter::default();
        b.uint("features", 1 << 60);
        let bytes = b.finish();
        assert!(BinReader::new(&bytes).count("features").is_err());
        // Out-of-range narrowing is an error, not a wrap.
        let mut b = BinWriter::default();
        b.uint("arity", u64::from(u32::MAX) + 1);
        let bytes = b.finish();
        assert!(BinReader::new(&bytes).uint::<u32>("arity").is_err());
    }

    #[test]
    fn binary_reader_rejects_truncation_wrong_tags_and_trailing_bytes() {
        let mut b = BinWriter::default();
        write_sample(&mut b);
        let bytes = b.finish();
        for cut in 0..bytes.len() {
            assert!(
                read_sample(&mut BinReader::new(&bytes[..cut])).is_err(),
                "cut {cut}"
            );
        }
        let mut long = bytes.clone();
        long.push(0);
        let mut r = BinReader::new(&long);
        read_sample(&mut r).unwrap();
        assert!(r.finish().is_err());
        let err = BinReader::new(&bytes).tag("weights").unwrap_err();
        assert!(
            err.to_string()
                .contains("expected tag `weights`, found `count`"),
            "{err}"
        );
    }
}
