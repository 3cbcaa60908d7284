//! Arena-independent binary encoding of values (the durability seam).
//!
//! The hash-consing arena (PRs 3–4) makes in-memory bags and dictionaries
//! webs of [`Vid`](crate::Vid)s — slot indices and generations that are
//! meaningless outside the process that interned them, and that change under
//! GC slot reuse. Durability therefore never writes ids: **encoding resolves
//! every id to its value** through the intern seam (`Bag::iter`,
//! `Dictionary::iter` resolve on read) and **decoding re-interns** into
//! whatever arena the reading process has. A checkpoint written before a
//! thousand collections replays into a fresh arena bit-for-bit equal at the
//! value level, and a `StaleVid` can never leak into (or out of) the on-disk
//! format: resolution happens eagerly at encode time, while the encoding
//! side still holds the bag that keeps its slots retained.
//!
//! The format is a length-prefixed tag/payload tree over little-endian
//! integers — hand-rolled on `std` per the vendoring constraint, with no
//! reflection or derive machinery. It is *self-delimiting* (every `decode_*`
//! consumes exactly what the matching `encode_*` produced) so callers can
//! concatenate records freely, and *defensive*: every length field is
//! checked against the remaining input before allocation, so truncated or
//! garbage payloads fail with [`CodecError`] instead of aborting on a
//! multi-gigabyte reservation.

use crate::bag::Bag;
use crate::base::{BaseType, BaseValue};
use crate::dict::{Dictionary, Label};
use crate::types::Type;
use crate::value::Value;
use std::fmt;

/// A malformed byte stream: truncated input, an unknown tag, or a length
/// field larger than the remaining bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError {
    /// What the decoder was reading when it failed.
    pub detail: String,
}

impl CodecError {
    /// A decode failure (exposed for layered formats — the durability
    /// crate's catalog records report their own tag/version mismatches
    /// through the same error).
    pub fn new(detail: impl Into<String>) -> CodecError {
        CodecError {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed encoding: {}", self.detail)
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------- tags

const TAG_BOOL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_STR: u8 = 2;
const TAG_TUPLE: u8 = 3;
const TAG_BAG: u8 = 4;
const TAG_LABEL: u8 = 5;
const TAG_DICT: u8 = 6;

const TYPE_BOOL: u8 = 0;
const TYPE_INT: u8 = 1;
const TYPE_STR: u8 = 2;
const TYPE_TUPLE: u8 = 3;
const TYPE_BAG: u8 = 4;
const TYPE_LABEL: u8 = 5;
const TYPE_DICT: u8 = 6;

// ---------------------------------------------------------------- writing

/// Append a little-endian `u32` (exposed for layered formats — the
/// durability crate builds its record framing from these primitives).
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_len(out: &mut Vec<u8>, len: usize, what: &str) {
    let len = u32::try_from(len).unwrap_or_else(|_| panic!("{what} length exceeds u32::MAX"));
    put_u32(out, len);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len(), "string");
    out.extend_from_slice(s.as_bytes());
}

/// Append the encoding of `v` to `out`, resolving interned ids to values.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Base(BaseValue::Bool(b)) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*b));
        }
        Value::Base(BaseValue::Int(i)) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Base(BaseValue::Str(s)) => {
            out.push(TAG_STR);
            put_str(out, s);
        }
        Value::Tuple(vs) => {
            out.push(TAG_TUPLE);
            put_len(out, vs.len(), "tuple");
            for c in vs {
                encode_value(c, out);
            }
        }
        Value::Bag(b) => {
            out.push(TAG_BAG);
            encode_bag(b, out);
        }
        Value::Label(l) => {
            out.push(TAG_LABEL);
            encode_label(l, out);
        }
        Value::Dict(d) => {
            out.push(TAG_DICT);
            put_len(out, d.support_size(), "dictionary");
            for (l, b) in d.iter() {
                encode_label(l, out);
                encode_bag(b, out);
            }
        }
    }
}

/// Append the encoding of `b` (distinct count, then `(value, multiplicity)`
/// pairs in canonical order, values fully resolved).
pub fn encode_bag(b: &Bag, out: &mut Vec<u8>) {
    put_len(out, b.distinct_count(), "bag");
    for (v, m) in b.iter() {
        encode_value(v, out);
        out.extend_from_slice(&m.to_le_bytes());
    }
}

fn encode_label(l: &Label, out: &mut Vec<u8>) {
    put_u32(out, l.index);
    put_len(out, l.args.len(), "label args");
    for a in &l.args {
        encode_value(a, out);
    }
}

/// Append the encoding of a type annotation (checkpoints persist relation
/// schemas alongside their bags).
pub fn encode_type(t: &Type, out: &mut Vec<u8>) {
    match t {
        Type::Base(BaseType::Bool) => out.push(TYPE_BOOL),
        Type::Base(BaseType::Int) => out.push(TYPE_INT),
        Type::Base(BaseType::Str) => out.push(TYPE_STR),
        Type::Tuple(ts) => {
            out.push(TYPE_TUPLE);
            put_len(out, ts.len(), "tuple type");
            for c in ts {
                encode_type(c, out);
            }
        }
        Type::Bag(inner) => {
            out.push(TYPE_BAG);
            encode_type(inner, out);
        }
        Type::Label => out.push(TYPE_LABEL),
        Type::Dict(inner) => {
            out.push(TYPE_DICT);
            encode_type(inner, out);
        }
    }
}

// ---------------------------------------------------------------- reading

/// A cursor over an input slice; all `decode_*` functions consume from the
/// front and leave the remainder for the caller.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Succeeds only if every byte was consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(CodecError::new(format!(
                "{} trailing bytes after value",
                self.buf.len()
            )))
        }
    }

    /// Consume `n` raw bytes (`what` names the field in errors).
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::new(format!(
                "truncated {what}: need {n} bytes, have {}",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Consume one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    /// Consume a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, CodecError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Consume a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, CodecError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Consume a little-endian `i64`.
    pub fn i64(&mut self, what: &str) -> Result<i64, CodecError> {
        let b = self.take(8, what)?;
        Ok(i64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// A length field, sanity-checked against the remaining input: every
    /// encoded element occupies at least one byte, so a count larger than
    /// `remaining` is unconditionally garbage and is rejected *before* any
    /// allocation sized by it.
    pub fn len(&mut self, what: &str) -> Result<usize, CodecError> {
        let n = self.u32(what)? as usize;
        if n > self.buf.len() {
            return Err(CodecError::new(format!(
                "{what} count {n} exceeds {} remaining bytes",
                self.buf.len()
            )));
        }
        Ok(n)
    }

    /// Consume a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> Result<String, CodecError> {
        let n = self.len(what)?;
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CodecError::new(format!("{what} is not valid UTF-8")))
    }
}

/// Decode one value, re-interning its parts into the current arena.
pub fn decode_value(r: &mut Reader<'_>) -> Result<Value, CodecError> {
    match r.u8("value tag")? {
        TAG_BOOL => match r.u8("bool")? {
            0 => Ok(Value::bool(false)),
            1 => Ok(Value::bool(true)),
            other => Err(CodecError::new(format!("bool byte {other}"))),
        },
        TAG_INT => Ok(Value::int(r.i64("int")?)),
        TAG_STR => Ok(Value::Base(BaseValue::Str(r.str("string")?))),
        TAG_TUPLE => {
            let n = r.len("tuple")?;
            let mut vs = Vec::with_capacity(n);
            for _ in 0..n {
                vs.push(decode_value(r)?);
            }
            Ok(Value::Tuple(vs))
        }
        TAG_BAG => Ok(Value::Bag(decode_bag(r)?)),
        TAG_LABEL => Ok(Value::Label(decode_label(r)?)),
        TAG_DICT => {
            let n = r.len("dictionary")?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                let l = decode_label(r)?;
                let b = decode_bag(r)?;
                pairs.push((l, b));
            }
            Ok(Value::Dict(Dictionary::from_pairs(pairs)))
        }
        other => Err(CodecError::new(format!("unknown value tag {other}"))),
    }
}

/// Decode one bag; interning happens entry by entry, then the collected
/// pairs are sorted/coalesced once and packed into the bag's tree with a
/// single batched retain pass (`Bag::from_pairs` is the bulk construction
/// funnel — no per-entry tree inserts).
pub fn decode_bag(r: &mut Reader<'_>) -> Result<Bag, CodecError> {
    let n = r.len("bag")?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let v = decode_value(r)?;
        let m = r.i64("multiplicity")?;
        pairs.push((v, m));
    }
    Ok(Bag::from_pairs(pairs))
}

fn decode_label(r: &mut Reader<'_>) -> Result<Label, CodecError> {
    let index = r.u32("label index")?;
    let n = r.len("label args")?;
    let mut args = Vec::with_capacity(n);
    for _ in 0..n {
        args.push(decode_value(r)?);
    }
    Ok(Label::new(index, args))
}

/// Decode one type annotation.
pub fn decode_type(r: &mut Reader<'_>) -> Result<Type, CodecError> {
    match r.u8("type tag")? {
        TYPE_BOOL => Ok(Type::Base(BaseType::Bool)),
        TYPE_INT => Ok(Type::Base(BaseType::Int)),
        TYPE_STR => Ok(Type::Base(BaseType::Str)),
        TYPE_TUPLE => {
            let n = r.len("tuple type")?;
            let mut ts = Vec::with_capacity(n);
            for _ in 0..n {
                ts.push(decode_type(r)?);
            }
            Ok(Type::Tuple(ts))
        }
        TYPE_BAG => Ok(Type::bag(decode_type(r)?)),
        TYPE_LABEL => Ok(Type::Label),
        TYPE_DICT => Ok(Type::dict(decode_type(r)?)),
        other => Err(CodecError::new(format!("unknown type tag {other}"))),
    }
}

// ------------------------------------------------------------ conveniences

/// Encode a single value to a fresh buffer.
pub fn value_to_bytes(v: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    encode_value(v, &mut out);
    out
}

/// Decode a single value occupying the whole buffer.
pub fn value_from_bytes(buf: &[u8]) -> Result<Value, CodecError> {
    let mut r = Reader::new(buf);
    let v = decode_value(&mut r)?;
    r.finish()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) {
        let bytes = value_to_bytes(v);
        let back = value_from_bytes(&bytes).expect("decode");
        assert_eq!(&back, v);
        // Self-delimiting: two concatenated copies decode back to two.
        let mut twice = bytes.clone();
        twice.extend_from_slice(&bytes);
        let mut r = Reader::new(&twice);
        assert_eq!(&decode_value(&mut r).expect("first"), v);
        assert_eq!(&decode_value(&mut r).expect("second"), v);
        r.finish().expect("nothing trailing");
    }

    #[test]
    fn base_values_round_trip() {
        round_trip(&Value::bool(true));
        round_trip(&Value::bool(false));
        round_trip(&Value::int(0));
        round_trip(&Value::int(i64::MIN));
        round_trip(&Value::int(i64::MAX));
        round_trip(&Value::str(""));
        round_trip(&Value::str("héllo ⟨ι⟩ wörld"));
        round_trip(&Value::unit());
    }

    #[test]
    fn nested_values_round_trip() {
        let bag = Bag::from_pairs([
            (Value::pair(Value::str("a"), Value::int(1)), 3),
            (Value::pair(Value::str("b"), Value::int(2)), -2),
        ]);
        round_trip(&Value::Bag(bag.clone()));
        round_trip(&Value::Tuple(vec![
            Value::Bag(bag.clone()),
            Value::str("outer"),
            Value::Bag(Bag::from_values([Value::Bag(bag.clone())])),
        ]));
        let label = Label::new(7, vec![Value::str("Drive"), Value::int(4)]);
        round_trip(&Value::Label(label.clone()));
        round_trip(&Value::Dict(Dictionary::from_pairs([
            (label, bag),
            (Label::atomic(2), Bag::empty()),
        ])));
    }

    #[test]
    fn types_round_trip() {
        for t in [
            Type::Base(BaseType::Bool),
            Type::Base(BaseType::Int),
            Type::Base(BaseType::Str),
            Type::unit(),
            Type::bag(Type::pair(Type::Base(BaseType::Str), Type::Label)),
            Type::dict(Type::bag(Type::Base(BaseType::Int))),
        ] {
            let mut out = Vec::new();
            encode_type(&t, &mut out);
            let mut r = Reader::new(&out);
            assert_eq!(decode_type(&mut r).expect("decode"), t);
            r.finish().expect("nothing trailing");
        }
    }

    #[test]
    fn truncated_inputs_error_instead_of_panicking() {
        let bytes = value_to_bytes(&Value::Tuple(vec![
            Value::str("truncation-probe"),
            Value::int(9),
        ]));
        for cut in 0..bytes.len() {
            let err = value_from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn oversized_length_fields_are_rejected_before_allocation() {
        // A bag claiming u32::MAX entries with no bytes behind it.
        let mut buf = vec![TAG_BAG];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = value_from_bytes(&buf).expect_err("garbage length");
        assert!(err.detail.contains("count"), "got {err}");
    }

    #[test]
    fn unknown_tags_error() {
        assert!(value_from_bytes(&[250]).is_err());
        let mut r = Reader::new(&[99]);
        assert!(decode_type(&mut r).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = value_to_bytes(&Value::int(5));
        bytes.push(0);
        assert!(value_from_bytes(&bytes).is_err());
    }

    /// The arena-independence property at the unit level: a bag encoded,
    /// decoded (re-interned), and re-encoded is byte-identical — the format
    /// carries no ids, so it cannot depend on slot assignment.
    #[test]
    fn reencoding_is_byte_stable() {
        let v = Value::Bag(Bag::from_pairs([
            (Value::str("codec-stable-a"), 2),
            (Value::pair(Value::str("codec-stable-b"), Value::int(-4)), 1),
        ]));
        let first = value_to_bytes(&v);
        let back = value_from_bytes(&first).expect("decode");
        assert_eq!(value_to_bytes(&back), first);
    }
}
