//! The durable query catalog: what makes a durable directory
//! *self-describing*.
//!
//! A [`CatalogEntry`] records one view registration — name, maintenance
//! [`Strategy`], and its NRC⁺ surface source — in the order registrations
//! happened. The catalog is total: a view whose query has no surface form
//! is refused at registration. It lives in two places on disk, mirroring
//! the data itself:
//!
//! * every **checkpoint** embeds the full catalog at its batch index, so
//!   recovery from a checkpoint re-registers every view without the
//!   caller supplying [`ViewSpec`](crate::ViewSpec)s;
//! * every post-creation registration appends a **WAL registration
//!   record** ([`crate::wal`], record kind 1) carrying the same entry, so
//!   registrations replay in stream order interleaved with batches — a
//!   view registered after the newest surviving checkpoint is recovered
//!   from the log exactly like a batch is.
//!
//! Entries are encoded through [`nrc_data::codec`] primitives with a
//! per-entry version byte, so the format can grow (an AST encoding, say)
//! without breaking old directories:
//!
//! ```text
//! entry := version:u8(=1) name:str has_src:u8 (src:str)? strategy:u8
//! ```
//!
//! `has_src = 0` marks a view whose query has no surface form (a raw
//! [`Expr`](nrc_core::Expr) using `Δ^k R` or shredding-internal
//! constructs). Nothing writes it any more, but older directories may hold
//! it: such an entry still decodes, and recovery fails on it with
//! [`DurableError::Uncataloged`].

use crate::error::DurableError;
use nrc_data::codec;
use nrc_engine::Strategy;

/// Version byte of the current catalog-entry encoding.
pub const CATALOG_VERSION: u8 = 1;

/// One cataloged view registration, in on-disk form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CatalogEntry {
    /// View name.
    pub name: String,
    /// NRC⁺ surface source of the query. `None` only in entries older
    /// versions wrote; recovery fails on them with
    /// [`DurableError::Uncataloged`].
    pub source: Option<String>,
    /// Maintenance strategy the view was registered under.
    pub strategy: Strategy,
}

/// Stable wire code of a [`Strategy`] (the enum itself carries no
/// serialized form; these codes are the on-disk contract).
pub fn strategy_code(s: Strategy) -> u8 {
    match s {
        Strategy::Reevaluate => 0,
        Strategy::FirstOrder => 1,
        Strategy::Recursive => 2,
        Strategy::Shredded => 3,
    }
}

/// Decode a [`Strategy`] wire code.
pub fn strategy_from_code(code: u8) -> Result<Strategy, DurableError> {
    match code {
        0 => Ok(Strategy::Reevaluate),
        1 => Ok(Strategy::FirstOrder),
        2 => Ok(Strategy::Recursive),
        3 => Ok(Strategy::Shredded),
        other => Err(DurableError::Codec(nrc_data::CodecError::new(format!(
            "unknown strategy code {other}"
        )))),
    }
}

/// Append one entry's encoding to `out`.
pub fn encode_entry(entry: &CatalogEntry, out: &mut Vec<u8>) {
    out.push(CATALOG_VERSION);
    codec::put_str(out, &entry.name);
    match &entry.source {
        Some(src) => {
            out.push(1);
            codec::put_str(out, src);
        }
        None => out.push(0),
    }
    out.push(strategy_code(entry.strategy));
}

/// Decode one entry.
pub fn decode_entry(r: &mut codec::Reader<'_>) -> Result<CatalogEntry, DurableError> {
    let version = r.u8("catalog entry version")?;
    if version != CATALOG_VERSION {
        return Err(DurableError::Codec(nrc_data::CodecError::new(format!(
            "unsupported catalog entry version {version}"
        ))));
    }
    let name = r.str("view name")?;
    let source = match r.u8("source flag")? {
        0 => None,
        1 => Some(r.str("query source")?),
        other => {
            return Err(DurableError::Codec(nrc_data::CodecError::new(format!(
                "bad source flag {other}"
            ))))
        }
    };
    let strategy = strategy_from_code(r.u8("strategy code")?)?;
    Ok(CatalogEntry {
        name,
        source,
        strategy,
    })
}

/// Append the whole catalog (count-prefixed) to `out`.
pub fn encode_catalog(entries: &[CatalogEntry], out: &mut Vec<u8>) {
    codec::put_u32(out, entries.len() as u32);
    for entry in entries {
        encode_entry(entry, out);
    }
}

/// Decode a count-prefixed catalog.
pub fn decode_catalog(r: &mut codec::Reader<'_>) -> Result<Vec<CatalogEntry>, DurableError> {
    let n = r.len("catalog entries")?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(decode_entry(r)?);
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<CatalogEntry> {
        vec![
            CatalogEntry {
                name: "all".to_string(),
                source: Some("M".to_string()),
                strategy: Strategy::FirstOrder,
            },
            CatalogEntry {
                name: "opaque".to_string(),
                source: None,
                strategy: Strategy::Shredded,
            },
        ]
    }

    #[test]
    fn round_trip() {
        let entries = sample();
        let mut bytes = Vec::new();
        encode_catalog(&entries, &mut bytes);
        let mut r = codec::Reader::new(&bytes);
        let got = decode_catalog(&mut r).expect("decode");
        r.finish().expect("no trailing bytes");
        assert_eq!(got, entries);
    }

    #[test]
    fn strategy_codes_are_stable_and_total() {
        for (code, s) in [
            (0, Strategy::Reevaluate),
            (1, Strategy::FirstOrder),
            (2, Strategy::Recursive),
            (3, Strategy::Shredded),
        ] {
            assert_eq!(strategy_code(s), code);
            assert_eq!(strategy_from_code(code).expect("known code"), s);
        }
        assert!(strategy_from_code(4).is_err());
    }

    #[test]
    fn bad_version_and_flags_are_codec_errors() {
        let entry = CatalogEntry {
            name: "v".to_string(),
            source: Some("M".to_string()),
            strategy: Strategy::Reevaluate,
        };
        let mut bytes = Vec::new();
        encode_entry(&entry, &mut bytes);
        // Future version byte.
        let mut future = bytes.clone();
        future[0] = CATALOG_VERSION + 1;
        let mut r = codec::Reader::new(&future);
        assert!(matches!(decode_entry(&mut r), Err(DurableError::Codec(_))));
    }
}
