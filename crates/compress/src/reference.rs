//! Reference (pre-optimization) codec implementations.
//!
//! This module preserves the original byte-at-a-time bit I/O and the
//! allocating encoder/decoder bodies exactly as they shipped in sealed
//! v1/v2 blobs. It exists for two reasons:
//!
//! 1. **Executable format specification.** The format-stability proptests
//!    (`tests/format_stability.rs`) assert that the word-at-a-time kernels
//!    in [`crate::bits`] / the `*_into` codec entry points produce
//!    byte-identical output and decode every reference-encoded stream —
//!    so batches sealed by any prior release keep decoding unchanged.
//! 2. **Bench baseline.** The `gate compress` sweep runs these arms as
//!    `reference` and the optimized kernels as `kernel`, and holds the
//!    ratio (see `results/BENCH_compress.json`).
//!
//! Nothing in the engine calls this module on a hot path. Do not
//! "optimize" it — its value is that it never changes.

use odh_types::{OdhError, Result};

use crate::linear::Spike;
use crate::varint;

#[inline]
fn mask(n: u8) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// The original byte-at-a-time MSB-first bit writer.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    acc: u64,
    nbits: u8,
}

impl BitWriter {
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    pub fn with_capacity(bytes: usize) -> BitWriter {
        BitWriter { buf: Vec::with_capacity(bytes), acc: 0, nbits: 0 }
    }

    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    #[inline]
    pub fn write_bits(&mut self, v: u64, n: u8) {
        debug_assert!(n <= 64);
        if n > 32 {
            self.write_chunk(v >> 32, n - 32);
            self.write_chunk(v, 32);
        } else {
            self.write_chunk(v, n);
        }
    }

    #[inline]
    fn write_chunk(&mut self, v: u64, n: u8) {
        if n == 0 {
            return;
        }
        self.acc = (self.acc << n) | (v & mask(n));
        self.nbits += n;
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.buf.push((self.acc >> self.nbits) as u8);
        }
    }

    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            let pad = 8 - self.nbits;
            self.buf.push(((self.acc << pad) & 0xFF) as u8);
        }
        self.buf
    }
}

/// The original byte-refill MSB-first bit reader.
#[derive(Debug)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    next: usize,
    acc: u64,
    have: u8,
}

impl<'a> BitReader<'a> {
    pub fn new(buf: &'a [u8]) -> BitReader<'a> {
        BitReader { buf, next: 0, acc: 0, have: 0 }
    }

    #[inline]
    pub fn read_bit(&mut self) -> Result<bool> {
        Ok(self.read_bits(1)? == 1)
    }

    #[inline]
    pub fn read_bits(&mut self, n: u8) -> Result<u64> {
        debug_assert!(n <= 64);
        if n > 32 {
            let hi = self.read_chunk(n - 32)?;
            let lo = self.read_chunk(32)?;
            Ok((hi << 32) | lo)
        } else {
            self.read_chunk(n)
        }
    }

    #[inline]
    fn read_chunk(&mut self, n: u8) -> Result<u64> {
        if n == 0 {
            return Ok(0);
        }
        while self.have < n {
            let byte = *self
                .buf
                .get(self.next)
                .ok_or_else(|| OdhError::Corrupt("bit stream overrun".into()))?;
            self.next += 1;
            self.acc = (self.acc << 8) | byte as u64;
            self.have += 8;
        }
        self.have -= n;
        Ok((self.acc >> self.have) & mask(n))
    }

    pub fn remaining_bits(&self) -> usize {
        (self.buf.len() - self.next) * 8 + self.have as usize
    }
}

/// Original Gorilla XOR encoder.
pub fn xor_encode(vals: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 2 + 8);
    varint::write_u64(&mut out, vals.len() as u64);
    if vals.is_empty() {
        return out;
    }
    let mut w = BitWriter::with_capacity(vals.len());
    let mut prev = vals[0].to_bits();
    w.write_bits(prev, 64);
    let mut prev_lead = 65u8;
    let mut prev_len = 0u8;
    for &v in &vals[1..] {
        let bits = v.to_bits();
        let xor = bits ^ prev;
        prev = bits;
        if xor == 0 {
            w.write_bit(false);
            continue;
        }
        w.write_bit(true);
        let lead = (xor.leading_zeros() as u8).min(31);
        let trail = xor.trailing_zeros() as u8;
        let len = 64 - lead - trail;
        if prev_lead <= lead && lead + len <= prev_lead + prev_len {
            w.write_bit(false);
            w.write_bits(xor >> (64 - prev_lead - prev_len), prev_len);
        } else {
            w.write_bit(true);
            w.write_bits(lead as u64, 5);
            w.write_bits((len - 1) as u64, 6);
            w.write_bits(xor >> trail, len);
            prev_lead = lead;
            prev_len = len;
        }
    }
    out.extend_from_slice(&w.finish());
    out
}

/// Original Gorilla XOR decoder.
pub fn xor_decode_at(buf: &[u8], pos: &mut usize) -> Result<Vec<f64>> {
    let n = varint::read_u64(buf, pos)? as usize;
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut r = BitReader::new(&buf[*pos..]);
    let mut out = Vec::with_capacity(n);
    let mut prev = r.read_bits(64)?;
    out.push(f64::from_bits(prev));
    let mut lead = 0u8;
    let mut len = 0u8;
    for _ in 1..n {
        if !r.read_bit()? {
            out.push(f64::from_bits(prev));
            continue;
        }
        if r.read_bit()? {
            lead = r.read_bits(5)? as u8;
            len = r.read_bits(6)? as u8 + 1;
        }
        let meaningful = r.read_bits(len)?;
        let xor = meaningful << (64 - lead - len);
        prev ^= xor;
        out.push(f64::from_bits(prev));
    }
    let used_bits = buf[*pos..].len() * 8 - r.remaining_bits();
    *pos += used_bits.div_ceil(8);
    Ok(out)
}

/// Original uniform quantizer.
pub fn quantize_encode(vals: &[f64], max_dev: f64) -> Option<Vec<u8>> {
    assert!(max_dev > 0.0, "quantization needs a positive error bound");
    let mut out = Vec::with_capacity(vals.len() + 32);
    varint::write_u64(&mut out, vals.len() as u64);
    if vals.is_empty() {
        return Some(out);
    }
    if vals.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let step = 2.0 * max_dev;
    let levels = ((max - min) / step + 0.5).floor() as u64 + 1;
    let bits = if levels <= 1 { 0 } else { 64 - (levels - 1).leading_zeros() as u8 };
    if bits > crate::quantize::MAX_BITS {
        return None;
    }
    out.extend_from_slice(&min.to_le_bytes());
    out.extend_from_slice(&step.to_le_bytes());
    out.push(bits);
    if bits == 0 {
        return Some(out);
    }
    let mut w = BitWriter::with_capacity(vals.len() * bits as usize / 8 + 1);
    for &v in vals {
        let level = (((v - min) / step) + 0.5).floor() as u64;
        w.write_bits(level.min(levels - 1), bits);
    }
    out.extend_from_slice(&w.finish());
    Some(out)
}

/// Original quantized-block decoder.
pub fn quantize_decode_at(buf: &[u8], pos: &mut usize) -> Result<Vec<f64>> {
    let n = varint::read_u64(buf, pos)? as usize;
    if n == 0 {
        return Ok(Vec::new());
    }
    if buf.len() < *pos + 17 {
        return Err(OdhError::Corrupt("quantized block header truncated".into()));
    }
    let min = f64::from_le_bytes(buf[*pos..*pos + 8].try_into().unwrap());
    let step = f64::from_le_bytes(buf[*pos + 8..*pos + 16].try_into().unwrap());
    let bits = buf[*pos + 16];
    *pos += 17;
    if bits == 0 {
        return Ok(vec![min; n]);
    }
    let total_bits = n * bits as usize;
    let nbytes = total_bits.div_ceil(8);
    if buf.len() < *pos + nbytes {
        return Err(OdhError::Corrupt("quantized block codes truncated".into()));
    }
    let mut r = BitReader::new(&buf[*pos..*pos + nbytes]);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let level = r.read_bits(bits)?;
        out.push(min + level as f64 * step);
    }
    *pos += nbytes;
    Ok(out)
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Original delta-of-delta timestamp encoder.
pub fn delta_encode_timestamps(ts: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ts.len() / 4 + 16);
    varint::write_u64(&mut out, ts.len() as u64);
    if ts.is_empty() {
        return out;
    }
    let mut unit = 0u64;
    for w in ts.windows(2) {
        unit = gcd(unit, (w[1] - w[0]).unsigned_abs());
    }
    let unit = unit.max(1);
    varint::write_u64(&mut out, unit);
    varint::write_i64(&mut out, ts[0]);
    if ts.len() == 1 {
        return out;
    }
    let mut w = BitWriter::with_capacity(ts.len() / 2);
    let mut prev = ts[0];
    let mut prev_delta = 0i64;
    for &t in &ts[1..] {
        let delta = (t - prev) / unit as i64;
        let dod = delta - prev_delta;
        let z = varint::zigzag(dod);
        if z == 0 {
            w.write_bit(false);
        } else if z < (1 << 7) {
            w.write_bits(0b10, 2);
            w.write_bits(z, 7);
        } else if z < (1 << 12) {
            w.write_bits(0b110, 3);
            w.write_bits(z, 12);
        } else if z < (1 << 20) {
            w.write_bits(0b1110, 4);
            w.write_bits(z, 20);
        } else if z < (1 << 32) {
            w.write_bits(0b11110, 5);
            w.write_bits(z, 32);
        } else {
            w.write_bits(0b11111, 5);
            w.write_bits(z, 64);
        }
        prev = t;
        prev_delta = delta;
    }
    out.extend_from_slice(&w.finish());
    out
}

/// Original delta-of-delta timestamp decoder.
pub fn delta_decode_timestamps_at(buf: &[u8], pos: &mut usize) -> Result<Vec<i64>> {
    let n = varint::read_u64(buf, pos)? as usize;
    if n == 0 {
        return Ok(Vec::new());
    }
    let unit = varint::read_u64(buf, pos)?.max(1) as i64;
    let first = varint::read_i64(buf, pos)?;
    let mut out = Vec::with_capacity(n);
    out.push(first);
    if n == 1 {
        return Ok(out);
    }
    let mut r = BitReader::new(&buf[*pos..]);
    let mut prev = first;
    let mut prev_delta = 0i64;
    for _ in 1..n {
        let dod = if !r.read_bit()? {
            0
        } else {
            let z = if !r.read_bit()? {
                r.read_bits(7)?
            } else if !r.read_bit()? {
                r.read_bits(12)?
            } else if !r.read_bit()? {
                r.read_bits(20)?
            } else if !r.read_bit()? {
                r.read_bits(32)?
            } else {
                r.read_bits(64)?
            };
            varint::unzigzag(z)
        };
        let delta = prev_delta + dod;
        prev += delta * unit;
        out.push(prev);
        prev_delta = delta;
    }
    let used_bits = (buf.len() - *pos) * 8 - r.remaining_bits();
    *pos += used_bits.div_ceil(8);
    Ok(out)
}

/// Original spike-point serializer.
pub fn linear_encode(spikes: &[Spike]) -> Vec<u8> {
    let mut out = Vec::with_capacity(spikes.len() * 10 + 8);
    varint::write_u64(&mut out, spikes.len() as u64);
    let mut prev = 0i64;
    for s in spikes {
        varint::write_i64(&mut out, s.t - prev);
        prev = s.t;
    }
    for s in spikes {
        out.extend_from_slice(&s.v.to_le_bytes());
    }
    out
}

/// Original spike-point deserializer.
pub fn linear_decode_at(buf: &[u8], pos: &mut usize) -> Result<Vec<Spike>> {
    let n = varint::read_u64(buf, pos)? as usize;
    let mut ts = Vec::with_capacity(n.min(buf.len()));
    let mut prev = 0i64;
    for _ in 0..n {
        prev += varint::read_i64(buf, pos)?;
        ts.push(prev);
    }
    let need = n * 8;
    if buf.len() < *pos + need {
        return Err(OdhError::Corrupt("linear block truncated".into()));
    }
    let mut spikes = Vec::with_capacity(n);
    for (i, &t) in ts.iter().enumerate() {
        let off = *pos + i * 8;
        let v = f64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
        spikes.push(Spike { t, v });
    }
    *pos += need;
    Ok(spikes)
}

/// Original raw column encoder.
pub fn raw_encode(vals: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 8 + 4);
    varint::write_u64(&mut out, vals.len() as u64);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}
