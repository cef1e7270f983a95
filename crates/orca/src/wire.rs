//! A small explicit wire codec for marshalling Orca operations.
//!
//! No serde: the byte counts that reach the simulated Ethernet must be exact
//! and predictable, because the paper's latency analysis is
//! header-byte-accurate.

use std::fmt;

use bytes::Bytes;

/// Errors from [`WireReader`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset at which decoding failed.
    pub at: usize,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "truncated or malformed wire data at byte {}", self.at)
    }
}

impl std::error::Error for WireError {}

/// Serializes values into a byte buffer.
///
/// # Examples
///
/// ```
/// use orca::{WireReader, WireWriter};
///
/// let mut w = WireWriter::new();
/// w.put_u32(7).put_bytes(b"hi").put_i64(-4);
/// let bytes = w.finish();
/// let mut r = WireReader::new(&bytes);
/// assert_eq!(r.get_u32().unwrap(), 7);
/// assert_eq!(r.get_bytes().unwrap(), b"hi");
/// assert_eq!(r.get_i64().unwrap(), -4);
/// assert!(r.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        WireWriter { buf: Vec::new() }
    }

    /// Creates a writer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        WireWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a big-endian `u16`.
    pub fn put_u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `i64`.
    pub fn put_i64(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends an `f64` (IEEE 754 bits, big-endian).
    pub fn put_f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_bits().to_be_bytes());
        self
    }

    /// Appends a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Current encoded size.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finishes and returns the encoded bytes.
    pub fn finish(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

/// Deserializes values written by [`WireWriter`].
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError { at: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// [`WireError`] if the buffer is exhausted.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`WireError`] if the buffer is exhausted.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a big-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError`] if the buffer is exhausted.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a big-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError`] if the buffer is exhausted.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a big-endian `i64`.
    ///
    /// # Errors
    ///
    /// [`WireError`] if the buffer is exhausted.
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_be_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64`.
    ///
    /// # Errors
    ///
    /// [`WireError`] if the buffer is exhausted.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(u64::from_be_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        )))
    }

    /// Reads a length-prefixed byte slice.
    ///
    /// # Errors
    ///
    /// [`WireError`] if the buffer is exhausted or the length is bogus.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Returns `true` when all bytes have been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = WireWriter::with_capacity(64);
        w.put_u8(1)
            .put_u16(2)
            .put_u32(3)
            .put_u64(4)
            .put_i64(-5)
            .put_f64(6.5)
            .put_bytes(b"raw");
        let b = w.finish();
        let mut r = WireReader::new(&b);
        assert_eq!(r.get_u8().unwrap(), 1);
        assert_eq!(r.get_u16().unwrap(), 2);
        assert_eq!(r.get_u32().unwrap(), 3);
        assert_eq!(r.get_u64().unwrap(), 4);
        assert_eq!(r.get_i64().unwrap(), -5);
        assert_eq!(r.get_f64().unwrap(), 6.5);
        assert_eq!(r.get_bytes().unwrap(), b"raw");
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_detected() {
        let mut w = WireWriter::new();
        w.put_u64(42);
        let b = w.finish();
        let mut r = WireReader::new(&b[..4]);
        assert!(r.get_u64().is_err());
    }

    #[test]
    fn bogus_length_detected() {
        let mut w = WireWriter::new();
        w.put_u32(1_000_000); // claims a megabyte follows
        let b = w.finish();
        let mut r = WireReader::new(&b);
        assert!(r.get_bytes().is_err());
    }
}
