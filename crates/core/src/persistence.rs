//! Fingerprint-database persistence: a small, dependency-free text format so
//! an attacker (or an auditor) can build a database in one session and match
//! against it in another — the paper's supply-chain scenario spans months
//! between interception and deanonymization.
//!
//! Format (line-oriented, UTF-8, version 2):
//!
//! ```text
//! probable-cause-db 2
//! threshold 0.25
//! fp <label> <size_bits> <observations> <pos,pos,pos,...>
//! crc32 <8-hex checksum of every byte above>
//! ```
//!
//! Labels are percent-encoded (`%20` for space etc.) so arbitrary strings
//! survive; positions are ascending decimal integers. The checksum trailer
//! turns every truncation or bit flip into a load error instead of a
//! silently partial database.
//!
//! The companion index format ([`save_index`] / [`load_index`]) persists an
//! [`LshIndex`]'s band keys so `pc-service` restarts recover their routing
//! index without re-signing every fingerprint:
//!
//! ```text
//! probable-cause-index 3
//! oph <bands> <rows_per_band> <seed>
//! entries <count>
//! keys <id> <key,key,...>
//! crc32 <8-hex>
//! ```
//!
//! There is one `keys` line per indexed id, ids strictly ascending, each
//! with exactly `bands` keys in band order, so save → load → save is
//! byte-identical. A version-2 index (MinHash bucket lines) is refused as
//! an unsupported header.
//!
//! # Streaming
//!
//! Both directions stream. A save renders the image through a writer that
//! folds each chunk into the CRC as it goes. A load reads one line at a
//! time, folds it into the CRC and parses it as it arrives, so the open
//! holds no copy of the file beside what it builds. The loaded value is
//! returned only once the trailer matches. A damaged file gets the same
//! error, at the same line, as a check of the whole text would give.
//!
//! # Crash safety
//!
//! The path-based entry points ([`save_db_to_path`] / [`load_db_from_path`]
//! and the index twins) add the durability the streaming functions cannot:
//! a save streams the image into `<file>.tmp`, fsyncs, then atomically
//! renames over the target, so a crash mid-save leaves the previous database
//! intact (at worst a torn `.tmp` that the next save overwrites); each
//! successful save also refreshes a `<file>.bak` copy, through its own
//! `.bak.tmp` and rename so the backup is never torn either, and the
//! resilient loaders fall back to it when the primary file is torn or
//! bit-flipped. The `persist.write`,
//! `persist.fsync`, `persist.rename`, and `persist.load` fault sites
//! (see `pc_faults`) let chaos tests exercise every one of those paths
//! deterministically.

use crate::{ErrorString, Fingerprint, FingerprintDb, LshIndex, PcDistance};
use std::borrow::Borrow;
use std::ffi::OsString;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// Error loading a fingerprint database.
#[derive(Debug)]
pub enum DbIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream is not a valid database file.
    BadFormat {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for DbIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbIoError::Io(e) => write!(f, "i/o error: {e}"),
            DbIoError::BadFormat { line, message } => {
                write!(f, "bad database format at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for DbIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbIoError::Io(e) => Some(e),
            DbIoError::BadFormat { .. } => None,
        }
    }
}

impl From<io::Error> for DbIoError {
    fn from(e: io::Error) -> Self {
        DbIoError::Io(e)
    }
}

const DB_HEADER_V2: &str = "probable-cause-db 2";
const INDEX_HEADER_V3: &str = "probable-cause-index 3";

/// The most bins (`bands × rows`) a loaded index may sign with; a
/// signature allocates one word per bin.
const MAX_INDEX_BINS: usize = 1 << 16;

/// CRC-32 (IEEE, reflected — the zip/png polynomial) lookup tables, built
/// at compile time so the crate stays dependency-free. `CRC32_TABLES[0]`
/// is the checksum of every byte value; `CRC32_TABLES[k]` is that of a
/// byte followed by `k` zero bytes, so slicing-by-8 folds eight bytes with
/// eight independent lookups.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut byte = 0;
    while byte < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            k += 1;
        }
        byte += 1;
    }
    tables
};

/// Folds `bytes` into a running CRC-32 register (start from `!0`, finish
/// with `!`): eight bytes a step by slicing-by-8, then the tail one byte
/// at a time.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC32_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        let [a, b, c, d] = lo.to_le_bytes();
        let [e, f, g, h] = hi.to_le_bytes();
        crc = t7[usize::from(a)]
            ^ t6[usize::from(b)]
            ^ t5[usize::from(c)]
            ^ t4[usize::from(d)]
            ^ t3[usize::from(e)]
            ^ t2[usize::from(f)]
            ^ t1[usize::from(g)]
            ^ t0[usize::from(h)];
    }
    for &b in words.remainder() {
        crc = t0[usize::from(crc as u8 ^ b)] ^ (crc >> 8);
    }
    crc
}

#[cfg(test)]
fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// The writer every image streams through: it gathers the renderer's small
/// writes into chunks for the destination and folds each chunk into a
/// running CRC-32, so the checksum trailer needs neither a copy of the
/// image nor a second pass over it.
struct CrcWriter<W: Write> {
    inner: W,
    chunk: Vec<u8>,
    crc: u32,
}

impl<W: Write> CrcWriter<W> {
    /// Bytes gathered before they are hashed and handed on.
    const CHUNK: usize = 64 * 1024;

    fn new(inner: W) -> Self {
        Self {
            inner,
            chunk: Vec::with_capacity(Self::CHUNK),
            crc: !0,
        }
    }

    fn spill(&mut self) -> io::Result<()> {
        self.crc = crc32_update(self.crc, &self.chunk);
        self.inner.write_all(&self.chunk)?;
        self.chunk.clear();
        Ok(())
    }

    /// Ends the image with the `crc32` trailer over every byte before it,
    /// flushed through to the destination.
    fn finish(mut self) -> io::Result<()> {
        self.spill()?;
        writeln!(self.inner, "crc32 {:08x}", !self.crc)?;
        self.inner.flush()
    }
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        if self.chunk.len() + bytes.len() > Self::CHUNK {
            self.spill()?;
        }
        self.chunk.extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.spill()?;
        self.inner.flush()
    }
}

/// Writes `items` comma-separated, then ends the line.
fn write_list<T: fmt::Display>(
    out: &mut impl Write,
    items: impl IntoIterator<Item = T>,
) -> io::Result<()> {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write!(out, "{item}")?;
    }
    out.write_all(b"\n")
}

/// `line` without its `\n` and any `\r` before it.
fn line_content(line: &str) -> &str {
    let content = line.strip_suffix('\n').unwrap_or(line);
    content.strip_suffix('\r').unwrap_or(content)
}

/// Streams one checksummed image from `r`: the header line, the body, and
/// the `crc32` trailer over every byte before it. Each body line reaches
/// `body` as it arrives, with its 1-based number and without its line
/// ending; a blank line arrives as `""`. Nothing is kept but the line in
/// hand and one held-back line: the trailer is the last non-blank line,
/// and blank lines after it are outside the checksum, so each non-blank
/// line waits until the next one shows it is not the trailer.
///
/// Whatever `body` builds must be used only when this returns `Ok`, which
/// happens only once the trailer matches. A failing input gets the first
/// of these, in order, as a whole-file check would find them: invalid
/// UTF-8 anywhere, a bad header, an unterminated last line, a missing or
/// unparsable trailer, a checksum mismatch, and the first error `body`
/// returned (after which it is not called again).
fn read_envelope<R: BufRead>(
    mut r: R,
    header: &str,
    bad_header: &str,
    mut body: impl FnMut(usize, &str) -> Result<(), DbIoError>,
) -> Result<(), DbIoError> {
    let mut buf = Vec::new();
    // The last non-blank line after the header, its number (0: none yet),
    // and the CRC register over every byte before it.
    let mut held = String::new();
    let mut held_no = 0;
    let mut crc_before_held = !0u32;
    let mut crc = !0u32;
    let mut lines = 0;
    let mut blanks = 0;
    let (mut utf8, mut header_ok, mut terminated) = (true, false, true);
    let mut body_error = None;
    loop {
        buf.clear();
        if r.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        lines += 1;
        terminated = buf.ends_with(b"\n");
        if !utf8 {
            continue;
        }
        // A `\n` byte never sits inside a multi-byte sequence, so checking
        // each line checks the whole stream.
        let text = match String::from_utf8(std::mem::take(&mut buf)) {
            Ok(text) => text,
            Err(e) => {
                utf8 = false;
                buf = e.into_bytes();
                continue;
            }
        };
        let crc_before = crc;
        crc = crc32_update(crc, text.as_bytes());
        let content = line_content(&text);
        if lines == 1 {
            header_ok = content.trim() == header;
        } else if content.trim().is_empty() {
            blanks += 1;
        } else {
            // `text` is not the trailer's line, so the held line and the
            // blank lines since are body.
            if header_ok && body_error.is_none() {
                let held_line = (held_no > 0).then(|| (held_no, line_content(&held)));
                let blank_lines = (lines - blanks..lines).map(|n| (n, ""));
                body_error = held_line
                    .into_iter()
                    .chain(blank_lines)
                    .find_map(|(n, line)| body(n, line).err());
            }
            crc_before_held = crc_before;
            held_no = lines;
            blanks = 0;
            buf = std::mem::replace(&mut held, text).into_bytes();
            continue;
        }
        buf = text.into_bytes();
    }

    if !utf8 {
        return Err(DbIoError::Io(io::Error::new(
            io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )));
    }
    if lines == 0 {
        return Err(bad(1, "empty file"));
    }
    if !header_ok {
        return Err(bad(1, bad_header));
    }
    if !terminated {
        return Err(bad(
            lines,
            "final line is not newline-terminated (file truncated?)",
        ));
    }
    let missing_trailer = "missing crc32 trailer (file truncated?)";
    if held_no == 0 {
        return Err(bad(lines, missing_trailer));
    }
    let Some(hex) = line_content(&held).trim().strip_prefix("crc32 ") else {
        return Err(bad(held_no, missing_trailer));
    };
    let hex = hex.trim();
    // Strictly 8 lowercase hex digits — the canonical rendering — so a bit
    // flip inside the trailer itself can never alias its own value.
    let canonical = hex.len() == 8 && hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    let stated = canonical
        .then(|| u32::from_str_radix(hex, 16).ok())
        .flatten()
        .ok_or_else(|| bad(held_no, &format!("unparsable crc32 trailer {hex:?}")))?;
    let actual = !crc_before_held;
    if stated != actual {
        return Err(bad(
            held_no,
            &format!("crc32 mismatch: trailer says {stated:08x}, contents hash to {actual:08x}"),
        ));
    }
    body_error.map_or(Ok(()), Err)
}

/// The comma-separated decimal tokens of a list, parsed in one pass over
/// its bytes: each token yields what `str::parse::<u64>` gives it (`None`
/// when refused), as `split(',')` would hand them over. Accepted is an
/// optional leading `+` and then one or more ASCII digits, without
/// overflow. The list ends after a refused token.
struct DecimalList<'a>(Option<&'a [u8]>);

impl<'a> DecimalList<'a> {
    fn new(list: &'a str) -> Self {
        Self(Some(list.as_bytes()))
    }
}

impl Iterator for DecimalList<'_> {
    type Item = Option<u64>;

    fn next(&mut self) -> Option<Option<u64>> {
        let bytes = self.0.take()?;
        let digits = bytes.strip_prefix(b"+").unwrap_or(bytes);
        let mut value = 0u64;
        for (i, &b) in digits.iter().enumerate() {
            let digit = b.wrapping_sub(b'0');
            if digit < 10 {
                let Some(next) = value
                    .checked_mul(10)
                    .and_then(|v| v.checked_add(u64::from(digit)))
                else {
                    return Some(None);
                };
                value = next;
            } else if b == b',' && i > 0 {
                self.0 = Some(&digits[i + 1..]);
                return Some(Some(value));
            } else {
                return Some(None);
            }
        }
        Some((!digits.is_empty()).then_some(value))
    }
}

fn escape_label(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for ch in label.chars() {
        match ch {
            ' ' => out.push_str("%20"),
            '%' => out.push_str("%25"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            c => out.push(c),
        }
    }
    out
}

fn unescape_label(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        if c == '%' {
            let hex = s.get(i + 1..i + 3)?;
            let v = u8::from_str_radix(hex, 16).ok()?;
            out.push(v as char);
            chars.next();
            chars.next();
        } else {
            out.push(c);
        }
    }
    Some(out)
}

/// Streams a database image into `w` in the checksummed version-2 format:
/// the header, the threshold, one `fp` line per entry in iteration order,
/// and the trailer. Every database save renders through this, so a flat
/// database and a live store holding the same entries write the same
/// bytes. Entries may be borrowed or owned, so a source that must not stay
/// locked while the image is written can hand over copies a few at a time.
/// Returns the number of entries written.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_db_image<W: Write, L: AsRef<str>, F: Borrow<Fingerprint>>(
    w: W,
    threshold: f64,
    entries: impl IntoIterator<Item = (L, F)>,
) -> io::Result<u64> {
    let mut out = CrcWriter::new(w);
    writeln!(out, "{DB_HEADER_V2}")?;
    writeln!(out, "threshold {threshold}")?;
    let mut written = 0;
    for (label, fp) in entries {
        let fp = fp.borrow();
        let errors = fp.errors();
        write!(
            out,
            "fp {} {} {} ",
            escape_label(label.as_ref()),
            errors.size(),
            fp.observations()
        )?;
        write_list(&mut out, errors.positions())?;
        written += 1;
    }
    out.finish()?;
    Ok(written)
}

/// Writes a string-labelled database to `w` in the checksummed version-2
/// format.
///
/// A `&mut` reference may be passed as the writer.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save_db<W: Write>(db: &FingerprintDb<String, PcDistance>, w: W) -> io::Result<()> {
    write_db_image(w, db.threshold(), db.iter())?;
    Ok(())
}

/// Reads a string-labelled database from `r` (paper metric, stored
/// threshold), streaming it a line at a time and returning it only once
/// the version-2 checksum trailer matches.
///
/// A `&mut` reference may be passed as the reader.
///
/// # Errors
///
/// [`DbIoError::BadFormat`] on any malformed line, truncation, or checksum
/// mismatch; [`DbIoError::Io`] on read failure or invalid UTF-8.
pub fn load_db<R: BufRead>(r: R) -> Result<FingerprintDb<String, PcDistance>, DbIoError> {
    let mut db = None;
    read_envelope(
        r,
        DB_HEADER_V2,
        "missing or unsupported header",
        |n, line| {
            match db.as_mut() {
                None => {
                    let threshold = parse_threshold(n, line)?;
                    db = Some(FingerprintDb::new(PcDistance::new(), threshold));
                }
                Some(db) if !line.trim().is_empty() => {
                    let (label, fingerprint) = parse_fp(n, line)?;
                    db.insert(label, fingerprint);
                }
                Some(_) => {}
            }
            Ok(())
        },
    )?;
    db.ok_or_else(|| bad(2, "missing threshold"))
}

/// A [`DbIoError::BadFormat`] at `line`.
fn bad(line: usize, message: &str) -> DbIoError {
    DbIoError::BadFormat {
        line,
        message: message.to_string(),
    }
}

/// The database's `threshold <value>` line, line `n`.
fn parse_threshold(n: usize, line: &str) -> Result<f64, DbIoError> {
    let threshold: f64 = line
        .strip_prefix("threshold ")
        .ok_or_else(|| bad(n, "expected `threshold <value>`"))?
        .trim()
        .parse()
        .map_err(|_| bad(n, "unparsable threshold"))?;
    if !(threshold > 0.0 && threshold <= 1.0) {
        return Err(bad(n, "threshold out of (0, 1]"));
    }
    Ok(threshold)
}

/// One non-blank `fp` line, line `n`, as a label and its fingerprint.
fn parse_fp(n: usize, line: &str) -> Result<(String, Fingerprint), DbIoError> {
    let rest = line
        .strip_prefix("fp ")
        .ok_or_else(|| bad(n, "expected `fp ...`"))?;
    let mut fields = rest.splitn(4, ' ');
    let label = fields
        .next()
        .and_then(unescape_label)
        .ok_or_else(|| bad(n, "bad label"))?;
    let size: u64 = fields
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(n, "bad size"))?;
    let observations: u32 = fields
        .next()
        .and_then(|s| s.parse().ok())
        .filter(|&o| o > 0)
        .ok_or_else(|| bad(n, "bad observation count"))?;
    let positions_field = fields.next().unwrap_or("").trim();
    // Sized from the field, so a stored fingerprint holds no slack for the
    // server's lifetime.
    let mut positions = Vec::new();
    if !positions_field.is_empty() {
        positions.reserve_exact(positions_field.bytes().filter(|&b| b == b',').count() + 1);
        for position in DecimalList::new(positions_field) {
            positions.push(position.ok_or_else(|| bad(n, "bad bit position"))?);
        }
    }
    let errors = ErrorString::from_sorted(positions, size)
        .map_err(|e| bad(n, &format!("bad error string: {e}")))?;
    Ok((label, Fingerprint::from_parts(errors, observations)))
}

/// Writes an [`LshIndex`]'s band keys to `w` in the checksummed version-3
/// index format, streaming them from the index.
///
/// A `&mut` reference may be passed as the writer.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save_index<W: Write>(index: &LshIndex, w: W) -> io::Result<()> {
    let mut out = CrcWriter::new(w);
    writeln!(out, "{INDEX_HEADER_V3}")?;
    writeln!(
        out,
        "oph {} {} {}",
        index.bands(),
        index.rows_per_band(),
        index.seed()
    )?;
    writeln!(out, "entries {}", index.len())?;
    for (id, keys) in index.entries() {
        write!(out, "keys {id} ")?;
        write_list(&mut out, keys)?;
    }
    out.finish()
}

/// Reads an [`LshIndex`] from `r`, streaming it a line at a time and
/// returning it only once the version-3 checksum trailer matches. The band
/// keys are adopted as stored, not re-signed.
///
/// A `&mut` reference may be passed as the reader.
///
/// # Errors
///
/// [`DbIoError::BadFormat`] on any malformed line (including an entry count
/// that disagrees with the `keys` lines), an unsupported header,
/// truncation, or checksum mismatch; [`DbIoError::Io`] on read failure or
/// invalid UTF-8.
pub fn load_index<R: BufRead>(r: R) -> Result<LshIndex, DbIoError> {
    let mut family: Option<(usize, usize, u64)> = None;
    let mut count: Option<(usize, usize)> = None;
    let (mut ids, mut keys) = (Vec::<u32>::new(), Vec::<u64>::new());
    read_envelope(
        r,
        INDEX_HEADER_V3,
        "missing or unsupported index header",
        |n, line| {
            let Some((bands, ..)) = family else {
                family = Some(parse_family(n, line)?);
                return Ok(());
            };
            let Some((_, entries)) = count else {
                let entries = line
                    .strip_prefix("entries ")
                    .and_then(|s| s.trim().parse::<usize>().ok())
                    .ok_or_else(|| bad(n, "expected `entries <count>`"))?;
                count = Some((n, entries));
                return Ok(());
            };
            if line.trim().is_empty() {
                return Ok(());
            }
            let rest = line
                .strip_prefix("keys ")
                .ok_or_else(|| bad(n, "expected `keys ...`"))?;
            let (id, list) = rest
                .split_once(' ')
                .ok_or_else(|| bad(n, "expected `keys <id> <keys>`"))?;
            let id: u32 = id
                .parse()
                .ok()
                .filter(|&id| id != u32::MAX)
                .ok_or_else(|| bad(n, "bad entry id"))?;
            if ids.last().is_some_and(|&last| id <= last) {
                return Err(bad(n, "entry ids must be strictly ascending"));
            }
            if ids.len() == ids.capacity() {
                // Toward the stated count, but at most doubling what the
                // lines read so far hold: exact for an honest count, and a
                // corrupt one cannot reserve memory the file does not back.
                let room = entries.saturating_sub(ids.len()).clamp(1, ids.len().max(1));
                ids.reserve_exact(room);
                keys.reserve_exact(room * bands);
            }
            let mut listed = 0;
            for key in DecimalList::new(list.trim()).take(bands + 1) {
                let key = key.ok_or_else(|| bad(n, "bad band key"))?;
                listed += 1;
                if listed <= bands {
                    keys.push(key);
                }
            }
            if listed != bands {
                return Err(bad(n, &format!("expected {bands} band keys")));
            }
            ids.push(id);
            Ok(())
        },
    )?;
    let (bands, rows, seed) = family.ok_or_else(|| bad(2, "missing oph line"))?;
    let (entries_no, entries) = count.ok_or_else(|| bad(3, "missing entries line"))?;
    if ids.len() != entries {
        return Err(bad(
            entries_no,
            &format!(
                "entry count {entries} disagrees with the {} keys lines",
                ids.len()
            ),
        ));
    }
    Ok(LshIndex::from_entries(bands, rows, seed, ids, keys))
}

/// The index's `oph <bands> <rows> <seed>` line, line `n`.
fn parse_family(n: usize, line: &str) -> Result<(usize, usize, u64), DbIoError> {
    let fields: Vec<&str> = line
        .strip_prefix("oph ")
        .ok_or_else(|| bad(n, "expected `oph <bands> <rows> <seed>`"))?
        .split_whitespace()
        .collect();
    let [bands, rows, seed] = fields.as_slice() else {
        return Err(bad(n, "expected three oph fields"));
    };
    let bands: usize = bands.parse().map_err(|_| bad(n, "bad band count"))?;
    let rows: usize = rows.parse().map_err(|_| bad(n, "bad row count"))?;
    let seed: u64 = seed.parse().map_err(|_| bad(n, "bad seed"))?;
    if bands == 0 || rows == 0 {
        return Err(bad(n, "bands and rows must be positive"));
    }
    if bands
        .checked_mul(rows)
        .is_none_or(|bins| bins > MAX_INDEX_BINS)
    {
        return Err(bad(n, &format!("more than {MAX_INDEX_BINS} bins")));
    }
    Ok((bands, rows, seed))
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .map_or_else(OsString::new, |n| n.to_os_string());
    name.push(suffix);
    path.with_file_name(name)
}

/// `<file>.tmp` — the in-flight image [`atomic_write`] renames into place.
pub fn tmp_path(path: &Path) -> PathBuf {
    sibling(path, ".tmp")
}

/// `<file>.bak` — the last successfully saved image, refreshed after every
/// [`atomic_write`]; the fallback [`load_db_from_path`] /
/// [`load_index_from_path`] reach for when the primary is damaged.
pub fn bak_path(path: &Path) -> PathBuf {
    sibling(path, ".bak")
}

/// Durably replaces `path` with the image `render` writes: streams it into
/// `<path>.tmp`, fsyncs, renames over `path`, then refreshes `<path>.bak`
/// by copying to `<path>.bak.tmp` and renaming that over. A crash at any
/// point leaves the primary and the backup each old or new but complete —
/// never torn (the worst leftover is a torn `.tmp`, overwritten by the next
/// save). `render` returns before the fsync, so any lock it takes to read
/// the image's source is released before the save blocks.
///
/// Fault sites: `persist.write` (`fail` tears the tmp file after half the
/// image; `stall` fsyncs the half-written tmp then holds the save open —
/// the window kill tests aim a SIGKILL at), `persist.fsync`,
/// `persist.rename`. A firing `persist.write` renders the image into
/// memory first, since it cuts the image at half its length.
///
/// # Errors
///
/// Propagates I/O errors, `render`'s included; injected faults carry the
/// `injected fault at <site>` message marker.
pub fn atomic_write<T>(
    path: &Path,
    render: impl FnOnce(&mut dyn Write) -> io::Result<T>,
) -> io::Result<T> {
    let tmp = tmp_path(path);
    let mut file = File::create(&tmp)?;
    let fault = pc_faults::active().and_then(|injector| injector.check("persist.write"));
    let rendered = match fault {
        None => render(&mut file)?,
        Some(action) => {
            let mut image = Vec::new();
            let rendered = render(&mut image)?;
            let (head, tail) = image.split_at(image.len() / 2);
            file.write_all(head)?;
            match action {
                // A torn write: half the image reaches the tmp file, then
                // the "process dies". The primary and backup stay untouched.
                pc_faults::Action::Fail => {
                    let _ = file.sync_all();
                    return Err(pc_faults::injected_io("persist.write"));
                }
                pc_faults::Action::Stall(ms) => {
                    file.sync_all()?;
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                    file.write_all(tail)?;
                }
            }
            rendered
        }
    };
    if pc_faults::fail_point("persist.fsync") {
        return Err(pc_faults::injected_io("persist.fsync"));
    }
    file.sync_all()?;
    drop(file);
    if pc_faults::fail_point("persist.rename") {
        return Err(pc_faults::injected_io("persist.rename"));
    }
    fs::rename(&tmp, path)?;
    // Refresh the backup only after the rename lands, and through a rename
    // of its own, so `.bak` always holds a complete image: the new one, or
    // — if we die before that rename — the previous save, still a valid
    // fallback.
    let bak_tmp = sibling(path, ".bak.tmp");
    if fs::copy(path, &bak_tmp).is_ok() {
        let _ = fs::rename(&bak_tmp, bak_path(path));
    }
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(dir) = File::open(dir) {
            let _ = dir.sync_all();
        }
    }
    Ok(rendered)
}

/// Saves `db` to `path` crash-safely via [`atomic_write`].
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save_db_to_path(db: &FingerprintDb<String, PcDistance>, path: &Path) -> io::Result<()> {
    atomic_write(path, |w| save_db(db, w))
}

/// Saves `index` to `path` crash-safely via [`atomic_write`].
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save_index_to_path(index: &LshIndex, path: &Path) -> io::Result<()> {
    atomic_write(path, |w| save_index(index, w))
}

/// Which file a resilient load ended up reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadSource {
    /// The primary file was intact.
    Primary,
    /// The primary was missing, torn, or corrupt; the `.bak` copy loaded.
    Backup,
}

/// A value recovered by a resilient load, plus where it came from.
#[derive(Debug)]
pub struct Recovered<T> {
    /// The loaded value.
    pub value: T,
    /// Which file produced it.
    pub source: LoadSource,
    /// The primary file's error when `source` is [`LoadSource::Backup`].
    pub primary_error: Option<DbIoError>,
}

fn load_with_fallback<T>(
    path: &Path,
    parse: impl Fn(BufReader<File>) -> Result<T, DbIoError>,
) -> Result<Recovered<T>, DbIoError> {
    let read = |p: &Path| -> Result<T, DbIoError> {
        if pc_faults::fail_point("persist.load") {
            return Err(DbIoError::Io(pc_faults::injected_io("persist.load")));
        }
        parse(BufReader::new(File::open(p)?))
    };
    match read(path) {
        Ok(value) => Ok(Recovered {
            value,
            source: LoadSource::Primary,
            primary_error: None,
        }),
        Err(primary_error) => {
            let bak = bak_path(path);
            if !bak.exists() {
                return Err(primary_error);
            }
            match read(&bak) {
                Ok(value) => Ok(Recovered {
                    value,
                    source: LoadSource::Backup,
                    primary_error: Some(primary_error),
                }),
                // The primary's error is the more useful diagnosis.
                Err(_) => Err(primary_error),
            }
        }
    }
}

/// Loads a database from `path`, falling back to `<path>.bak` when the
/// primary is damaged. Fault site: `persist.load`.
///
/// # Errors
///
/// The primary file's error when neither the primary nor the backup loads.
pub fn load_db_from_path(
    path: &Path,
) -> Result<Recovered<FingerprintDb<String, PcDistance>>, DbIoError> {
    load_with_fallback(path, load_db)
}

/// Loads an index from `path`, falling back to `<path>.bak` when the
/// primary is damaged. Fault site: `persist.load`.
///
/// # Errors
///
/// The primary file's error when neither the primary nor the backup loads.
pub fn load_index_from_path(path: &Path) -> Result<Recovered<LshIndex>, DbIoError> {
    load_with_fallback(path, load_index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::sync::Mutex;

    fn sample_db() -> FingerprintDb<String, PcDistance> {
        let mut db = FingerprintDb::new(PcDistance::new(), 0.3);
        db.insert(
            "chip one".to_string(),
            Fingerprint::from_parts(ErrorString::from_sorted(vec![1, 5, 900], 4096).unwrap(), 3),
        );
        db.insert(
            "100%-weird\nlabel".to_string(),
            Fingerprint::from_parts(ErrorString::from_sorted(vec![], 4096).unwrap(), 1),
        );
        db
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let db = sample_db();
        let mut buf = Vec::new();
        save_db(&db, &mut buf).unwrap();
        let loaded = load_db(Cursor::new(buf)).unwrap();
        assert_eq!(loaded.threshold(), db.threshold());
        assert_eq!(loaded.len(), db.len());
        for ((la, fa), (lb, fb)) in loaded.iter().zip(db.iter()) {
            assert_eq!(la, lb);
            assert_eq!(fa, fb);
        }
    }

    #[test]
    fn loaded_db_identifies() {
        let db = sample_db();
        let mut buf = Vec::new();
        save_db(&db, &mut buf).unwrap();
        let loaded = load_db(Cursor::new(buf)).unwrap();
        let probe = ErrorString::from_sorted(vec![1, 5, 900, 2000], 4096).unwrap();
        // Both stored fingerprints sit at distance 0 from this probe — "chip
        // one" because all its bits are present, the empty fingerprint
        // vacuously (the PcDistance edge case callers are told to screen
        // out). The deterministic tie-break resolves by label order.
        assert_eq!(
            loaded.identify(&probe),
            Some(&"100%-weird\nlabel".to_string())
        );
        let probe2 = ErrorString::from_sorted(vec![1, 5, 900], 4096).unwrap();
        assert_eq!(
            loaded
                .identify_with_distance(&probe2)
                .map(|(l, d)| (l.clone(), d)),
            Some(("100%-weird\nlabel".to_string(), 0.0))
        );
    }

    #[test]
    fn saved_db_has_v2_envelope() {
        let mut buf = Vec::new();
        save_db(&sample_db(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("probable-cause-db 2\n"));
        let trailer = text.lines().last().unwrap();
        assert!(
            trailer.starts_with("crc32 ") && trailer.len() == "crc32 ".len() + 8,
            "bad trailer: {trailer:?}"
        );
    }

    #[test]
    fn every_truncation_is_rejected() {
        let mut buf = Vec::new();
        save_db(&sample_db(), &mut buf).unwrap();
        for len in 0..buf.len() {
            let err = load_db(&buf[..len]).unwrap_err();
            if len > 0 {
                assert!(
                    matches!(err, DbIoError::BadFormat { .. }),
                    "prefix of {len} bytes: expected BadFormat, got {err:?}"
                );
            }
        }
    }

    #[test]
    fn every_bit_flip_is_rejected() {
        let mut buf = Vec::new();
        save_db(&sample_db(), &mut buf).unwrap();
        for i in 0..buf.len() {
            for bit in 0..8 {
                let mut flipped = buf.clone();
                flipped[i] ^= 1 << bit;
                assert!(
                    load_db(&flipped[..]).is_err(),
                    "flip of bit {bit} at byte {i} was not detected"
                );
            }
        }
    }

    /// `text` sealed with a valid `crc32` trailer.
    fn sealed(text: &str) -> Vec<u8> {
        format!("{text}crc32 {:08x}\n", crc32(text.as_bytes())).into_bytes()
    }

    #[test]
    fn rejects_bad_header() {
        // A version-1 file (no trailer) is refused like any other header.
        for data in [
            b"nope\n".to_vec(),
            b"probable-cause-db 1\nthreshold 0.2\nfp x 64 1 3,5\n".to_vec(),
            sealed("probable-cause-db 1\nthreshold 0.2\n"),
        ] {
            let err = load_db(Cursor::new(data)).unwrap_err();
            assert!(matches!(err, DbIoError::BadFormat { line: 1, .. }));
        }
    }

    #[test]
    fn rejects_bad_threshold() {
        let err = load_db(Cursor::new(sealed("probable-cause-db 2\nthreshold 7\n"))).unwrap_err();
        assert!(matches!(err, DbIoError::BadFormat { line: 2, .. }));
    }

    #[test]
    fn rejects_bad_positions() {
        // Unsorted; then position 2^47 + 1 of a 2^48-bit string, sorted and
        // below the size but beyond what the stored packed form addresses.
        for fp in ["fp x 64 1 5,3", "fp x 281474976710656 1 5,140737488355329"] {
            let data = sealed(&format!("probable-cause-db 2\nthreshold 0.2\n{fp}\n"));
            let err = load_db(Cursor::new(data)).unwrap_err();
            assert!(matches!(err, DbIoError::BadFormat { line: 3, .. }), "{fp}");
        }
    }

    #[test]
    fn skips_blank_lines() {
        let data = sealed("probable-cause-db 2\nthreshold 0.2\n\nfp x 64 1 3,5\n\n");
        let db = load_db(Cursor::new(data)).unwrap();
        assert_eq!(db.len(), 1);
    }

    fn sample_index() -> LshIndex {
        let mut index = LshIndex::new(8, 2, 42);
        for id in 0..25u32 {
            let bits: Vec<u64> = (0..40).map(|i| (id as u64 * 131 + i * 97) % 4096).collect();
            index.insert(id, &ErrorString::from_unsorted(bits, 4096).unwrap());
        }
        index
    }

    #[test]
    fn index_roundtrip_is_byte_identical() {
        let index = sample_index();
        let mut first = Vec::new();
        save_index(&index, &mut first).unwrap();
        let loaded = load_index(Cursor::new(first.clone())).unwrap();
        let mut second = Vec::new();
        save_index(&loaded, &mut second).unwrap();
        assert_eq!(first, second, "save -> load -> save must be byte-stable");
        assert_eq!(loaded.len(), index.len());
        assert_eq!(
            (loaded.bands(), loaded.rows_per_band(), loaded.seed()),
            (index.bands(), index.rows_per_band(), index.seed())
        );
    }

    #[test]
    fn loaded_index_routes_like_the_original() {
        let index = sample_index();
        let mut buf = Vec::new();
        save_index(&index, &mut buf).unwrap();
        let loaded = load_index(Cursor::new(buf)).unwrap();
        for id in 0..25u32 {
            let bits: Vec<u64> = (0..40).map(|i| (id as u64 * 131 + i * 97) % 4096).collect();
            let probe = ErrorString::from_unsorted(bits, 4096).unwrap();
            assert_eq!(loaded.candidates(&probe), index.candidates(&probe));
        }
    }

    #[test]
    fn empty_index_roundtrips() {
        let index = LshIndex::new(4, 4, 7);
        let mut buf = Vec::new();
        save_index(&index, &mut buf).unwrap();
        let loaded = load_index(Cursor::new(buf)).unwrap();
        assert!(loaded.is_empty());
    }

    #[test]
    fn index_truncations_and_flips_are_rejected() {
        let mut buf = Vec::new();
        save_index(&sample_index(), &mut buf).unwrap();
        for len in 1..buf.len() {
            assert!(
                load_index(&buf[..len]).is_err(),
                "prefix of {len} bytes loaded"
            );
        }
        for i in (0..buf.len()).step_by(7) {
            let mut flipped = buf.clone();
            flipped[i] ^= 0x10;
            assert!(load_index(&flipped[..]).is_err(), "flip at byte {i} loaded");
        }
    }

    #[test]
    fn index_load_rejects_malformed_input() {
        let cases = [
            (b"nope\n".to_vec(), 1),
            (
                b"probable-cause-index 1\nminhash 2 2 1\nentries 0\n".to_vec(),
                1,
            ),
            // A sealed version-2 image: MinHash buckets are no longer read.
            (
                sealed("probable-cause-index 2\nminhash 2 2 1\nentries 1\nbucket 5 0\n"),
                1,
            ),
            (sealed("probable-cause-index 3\noph 0 2 1\n"), 2),
            (sealed("probable-cause-index 3\noph 2 2\n"), 2),
            (sealed("probable-cause-index 3\noph 65536 2 1\n"), 2),
            (sealed("probable-cause-index 3\noph 2 2 1\nentries x\n"), 3),
            (
                sealed("probable-cause-index 3\noph 2 2 1\nentries 1\nkeys 0 5\n"),
                4,
            ),
            (
                sealed("probable-cause-index 3\noph 2 2 1\nentries 1\nkeys 0 5,6,7\n"),
                4,
            ),
            (
                sealed("probable-cause-index 3\noph 2 2 1\nentries 1\nkeys 4294967295 5,6\n"),
                4,
            ),
            (
                sealed("probable-cause-index 3\noph 2 2 1\nentries 2\nkeys 1 5,6\nkeys 0 7,8\n"),
                5,
            ),
            (
                sealed("probable-cause-index 3\noph 2 2 1\nentries 3\nkeys 0 5,6\n"),
                3,
            ),
            // A count no file could back: refused, with nothing reserved
            // for it.
            (
                sealed("probable-cause-index 3\noph 2 2 1\nentries 1000000000000\nkeys 0 5,6\nkeys 1 7,8\n"),
                3,
            ),
        ];
        for (data, line) in &cases {
            let err = load_index(Cursor::new(data.clone())).unwrap_err();
            if data.windows(13).any(|w| w == b"1000000000000") {
                assert_eq!(
                    err.to_string(),
                    "bad database format at line 3: entry count 1000000000000 \
                     disagrees with the 2 keys lines"
                );
            }
            match err {
                DbIoError::BadFormat { line: l, .. } => {
                    assert_eq!(
                        l,
                        *line,
                        "wrong line for {:?}",
                        String::from_utf8_lossy(data)
                    )
                }
                other => panic!("expected BadFormat, got {other:?}"),
            }
        }
    }

    /// Folds `bytes` into a CRC-32 register one bit at a time: the
    /// definition the lookup tables must agree with.
    fn crc32_bitwise_update(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        crc
    }

    /// A fixed xorshift byte stream.
    fn xorshift_bytes(len: usize) -> Vec<u8> {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect()
    }

    #[test]
    fn table_crc32_matches_check_value_and_bitwise_reference() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        // Every length up to 4 KiB at every start offset modulo 8, so each
        // split between eight-byte steps and the byte-at-a-time tail is
        // taken from every alignment.
        let bytes = xorshift_bytes(4096 + 8);
        for offset in 0..8 {
            let mut reference = !0;
            for len in 0..=4096 {
                let slice = &bytes[offset..offset + len];
                assert_eq!(crc32(slice), !reference, "offset {offset}, length {len}");
                reference = crc32_bitwise_update(reference, &bytes[offset + len..][..1]);
            }
        }
        // Folding in arbitrary pieces equals one pass.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..64 {
            let mut crc = !0;
            let mut rest = &bytes[..];
            while !rest.is_empty() {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                let take = ((state >> 33) as usize % 40).min(rest.len());
                crc = crc32_update(crc, &rest[..take]);
                rest = &rest[take..];
            }
            assert_eq!(!crc, crc32(&bytes));
        }
    }

    #[test]
    fn decimal_list_accepts_what_str_parse_accepts() {
        let max = u64::MAX.to_string();
        let over = "18446744073709551616";
        let named = [
            "", "+", "+0", "007", "-1", " 1", "1a", "++1", "+-1", &max, over,
        ];
        let mut tokens: Vec<String> = named.iter().map(|t| t.to_string()).collect();
        // Random tokens over digits, signs, spaces and letters, up to 22
        // characters so both sides of the overflow bound are drawn.
        let alphabet = b"0123456789000999+- a";
        let mut state = 0x853c_49e6_748f_ea9b_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize
        };
        for _ in 0..20_000 {
            let len = next() % 23;
            let digits_only = next() % 2 == 0;
            tokens.push(
                (0..len)
                    .map(|_| {
                        let pool = if digits_only { 10 } else { alphabet.len() };
                        char::from(alphabet[next() % pool])
                    })
                    .collect(),
            );
        }
        for token in &tokens {
            let parsed: Vec<Option<u64>> = DecimalList::new(token).collect();
            assert_eq!(parsed, vec![token.parse::<u64>().ok()], "token {token:?}");
        }
        // Lists: every token up to and including the first refused one.
        for pair in tokens.chunks(3) {
            let list = pair.join(",");
            let mut expected = Vec::new();
            for token in list.split(',') {
                let parsed = token.parse::<u64>().ok();
                expected.push(parsed);
                if parsed.is_none() {
                    break;
                }
            }
            let parsed: Vec<Option<u64>> = DecimalList::new(&list).collect();
            assert_eq!(parsed, expected, "list {list:?}");
        }
    }

    #[test]
    fn crc_writer_trailer_covers_every_spilled_chunk() {
        // Three chunks and a bit, arriving in writes of uneven sizes.
        let payload: Vec<u8> = (0..200_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        let mut out = Vec::new();
        let mut writer = CrcWriter::new(&mut out);
        for piece in payload.chunks(4_999) {
            writer.write_all(piece).unwrap();
        }
        writer.finish().unwrap();
        let mut expected = payload.clone();
        expected.extend_from_slice(format!("crc32 {:08x}\n", crc32(&payload)).as_bytes());
        assert!(
            out == expected,
            "streamed image differs from the buffered one"
        );
    }

    #[test]
    fn label_escaping_roundtrips() {
        for label in ["plain", "with space", "pct%sign", "new\nline"] {
            let esc = escape_label(label);
            assert!(!esc.contains(' ') && !esc.contains('\n'));
            assert_eq!(unescape_label(&esc).as_deref(), Some(label));
        }
    }

    /// Path-based tests share one scratch-dir guard: the torn-write test
    /// installs a process-wide fault plan whose `persist.write` probes must
    /// not be consumed by a concurrently running path save.
    static FS_LOCK: Mutex<()> = Mutex::new(());

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pc-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn path_save_load_and_backup_fallback() {
        let _guard = FS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = scratch_dir("roundtrip");
        let path = dir.join("db.txt");
        let db = sample_db();
        save_db_to_path(&db, &path).unwrap();
        assert_eq!(fs::read(bak_path(&path)).unwrap(), fs::read(&path).unwrap());
        assert!(
            !sibling(&path, ".bak.tmp").exists(),
            "the backup lands by rename"
        );

        let recovered = load_db_from_path(&path).unwrap();
        assert_eq!(recovered.source, LoadSource::Primary);
        assert_eq!(recovered.value.len(), db.len());

        // Tear the primary: the loader falls back to the backup and reports
        // the primary's error.
        let intact = fs::read(&path).unwrap();
        fs::write(&path, &intact[..intact.len() / 2]).unwrap();
        let recovered = load_db_from_path(&path).unwrap();
        assert_eq!(recovered.source, LoadSource::Backup);
        assert!(recovered.primary_error.is_some());
        assert_eq!(recovered.value.len(), db.len());

        // With the backup gone too, the primary's error surfaces.
        fs::remove_file(bak_path(&path)).unwrap();
        assert!(load_db_from_path(&path).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn index_path_roundtrip() {
        let _guard = FS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = scratch_dir("index");
        let path = dir.join("index.txt");
        let index = sample_index();
        save_index_to_path(&index, &path).unwrap();
        let recovered = load_index_from_path(&path).unwrap();
        assert_eq!(recovered.source, LoadSource::Primary);
        assert_eq!(recovered.value.len(), index.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_torn_write_leaves_previous_file_intact() {
        let _guard = FS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = scratch_dir("torn");
        let path = dir.join("db.txt");
        let db = sample_db();
        save_db_to_path(&db, &path).unwrap();
        let before = fs::read(&path).unwrap();

        let injector =
            pc_faults::install(pc_faults::FaultPlan::parse("seed=1;persist.write=n1").unwrap());
        let err = save_db_to_path(&db, &path).unwrap_err();
        pc_faults::uninstall();
        assert!(pc_faults::is_injected_message(&err.to_string()));
        assert_eq!(injector.total_fired(), 1);

        // The torn image landed in the tmp file; the primary is untouched
        // and a fresh save recovers byte-identically.
        assert_eq!(fs::read(&path).unwrap(), before, "primary was damaged");
        assert_eq!(
            fs::read(bak_path(&path)).unwrap(),
            before,
            "backup was damaged"
        );
        let tmp = fs::read(tmp_path(&path)).unwrap();
        assert_eq!(tmp.len(), before.len() / 2, "tmp should hold a torn half");
        save_db_to_path(&db, &path).unwrap();
        assert_eq!(fs::read(&path).unwrap(), before);
        let _ = fs::remove_dir_all(&dir);
    }
}
