//! The streaming image loaders against the whole-text loaders they
//! replaced.
//!
//! `load_db` and `load_index` read an image line by line, fold each line
//! into the checksum as it arrives, and return a value only once the
//! trailer matches. The loaders before them read the whole image into one
//! `String`, split it into lines, checked the envelope, then parsed. The
//! module `reference` below keeps those loaders as they were, so every
//! input here must get the same outcome from both: the same `Ok` (the same
//! bytes when saved again) or the same error (variant, line and message).
//! The inputs are seeded images, every truncation and single-bit flip of
//! them and of their CRLF and blank-line variants, invalid UTF-8, an empty
//! stream and header-only streams.

use probable_cause::persistence::{load_db, load_index, save_db, save_index, DbIoError};
use probable_cause::{ErrorString, Fingerprint, FingerprintDb, LshIndex, PcDistance};

/// The bitwise CRC-32 (IEEE, reflected), written out so the references
/// and the resealed fixtures do not call the code under test.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFF_u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// The whole-text loaders, kept as they were before the loaders streamed.
/// `load_index` hands back the parsed parts, since only the crate itself
/// can build an index from stored band keys.
mod reference {
    use super::crc32;
    use probable_cause::persistence::DbIoError;
    use probable_cause::{ErrorString, Fingerprint, FingerprintDb, PcDistance};
    use std::io::BufRead;

    const DB_HEADER_V2: &str = "probable-cause-db 2";
    const INDEX_HEADER_V3: &str = "probable-cause-index 3";
    const MAX_INDEX_BINS: usize = 1 << 16;

    /// A loaded index image: its family and its `keys` lines.
    pub struct IndexParts {
        pub bands: usize,
        pub rows: usize,
        pub seed: u64,
        pub ids: Vec<u32>,
        pub keys: Vec<u64>,
    }

    fn split_lines(text: &str) -> Vec<(usize, usize, &str)> {
        let mut lines = Vec::new();
        let mut offset = 0;
        for (idx, segment) in text.split_inclusive('\n').enumerate() {
            let content = segment.strip_suffix('\n').unwrap_or(segment);
            let content = content.strip_suffix('\r').unwrap_or(content);
            lines.push((idx + 1, offset, content));
            offset += segment.len();
        }
        lines
    }

    fn open_envelope<'a>(
        text: &'a str,
        header: &str,
        bad_header: &str,
    ) -> Result<Vec<(usize, &'a str)>, DbIoError> {
        let bad = |line: usize, message: String| DbIoError::BadFormat { line, message };
        let lines = split_lines(text);
        let Some(&(_, _, first)) = lines.first() else {
            return Err(bad(1, "empty file".to_string()));
        };
        if first.trim() != header {
            return Err(bad(1, bad_header.to_string()));
        }
        if !text.ends_with('\n') {
            return Err(bad(
                lines.len(),
                "final line is not newline-terminated (file truncated?)".to_string(),
            ));
        }
        let mut body = lines[1..].to_vec();
        let Some(pos) = body.iter().rposition(|(_, _, l)| !l.trim().is_empty()) else {
            return Err(bad(
                lines.len(),
                "missing crc32 trailer (file truncated?)".to_string(),
            ));
        };
        let (line_no, offset, trailer) = body[pos];
        let Some(hex) = trailer.trim().strip_prefix("crc32 ") else {
            return Err(bad(
                line_no,
                "missing crc32 trailer (file truncated?)".to_string(),
            ));
        };
        let hex = hex.trim();
        let canonical =
            hex.len() == 8 && hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
        let stated = canonical
            .then(|| u32::from_str_radix(hex, 16).ok())
            .flatten()
            .ok_or_else(|| bad(line_no, format!("unparsable crc32 trailer {hex:?}")))?;
        let actual = crc32(&text.as_bytes()[..offset]);
        if stated != actual {
            return Err(bad(
                line_no,
                format!("crc32 mismatch: trailer says {stated:08x}, contents hash to {actual:08x}"),
            ));
        }
        body.truncate(pos);
        Ok(body.into_iter().map(|(n, _, l)| (n, l)).collect())
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

    pub fn load_db<R: BufRead>(mut r: R) -> Result<FingerprintDb<String, PcDistance>, DbIoError> {
        let mut text = String::new();
        r.read_to_string(&mut text)?;
        let bad = |line: usize, message: &str| DbIoError::BadFormat {
            line,
            message: message.to_string(),
        };
        let body = open_envelope(&text, DB_HEADER_V2, "missing or unsupported header")?;
        let mut lines = body.into_iter();

        let (threshold_no, threshold_line) =
            lines.next().ok_or_else(|| bad(2, "missing threshold"))?;
        let threshold: f64 = threshold_line
            .strip_prefix("threshold ")
            .ok_or_else(|| bad(threshold_no, "expected `threshold <value>`"))?
            .trim()
            .parse()
            .map_err(|_| bad(threshold_no, "unparsable threshold"))?;
        if !(threshold > 0.0 && threshold <= 1.0) {
            return Err(bad(threshold_no, "threshold out of (0, 1]"));
        }

        let mut db = FingerprintDb::new(PcDistance::new(), threshold);
        for (n, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
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
            let mut positions = Vec::new();
            if !positions_field.is_empty() {
                positions.reserve_exact(positions_field.bytes().filter(|&b| b == b',').count() + 1);
                for tok in positions_field.split(',') {
                    positions.push(tok.parse::<u64>().map_err(|_| bad(n, "bad bit position"))?);
                }
            }
            let errors = ErrorString::from_sorted(positions, size)
                .map_err(|e| bad(n, &format!("bad error string: {e}")))?;
            db.insert(label, Fingerprint::from_parts(errors, observations));
        }
        Ok(db)
    }

    pub fn load_index<R: BufRead>(mut r: R) -> Result<IndexParts, DbIoError> {
        let mut text = String::new();
        r.read_to_string(&mut text)?;
        let bad = |line: usize, message: &str| DbIoError::BadFormat {
            line,
            message: message.to_string(),
        };
        let body = open_envelope(
            &text,
            INDEX_HEADER_V3,
            "missing or unsupported index header",
        )?;
        let mut lines = body.into_iter();

        let (family_no, family_line) = lines.next().ok_or_else(|| bad(2, "missing oph line"))?;
        let fields: Vec<&str> = family_line
            .strip_prefix("oph ")
            .ok_or_else(|| bad(family_no, "expected `oph <bands> <rows> <seed>`"))?
            .split_whitespace()
            .collect();
        let [bands, rows, seed] = fields.as_slice() else {
            return Err(bad(family_no, "expected three oph fields"));
        };
        let bands: usize = bands
            .parse()
            .map_err(|_| bad(family_no, "bad band count"))?;
        let rows: usize = rows.parse().map_err(|_| bad(family_no, "bad row count"))?;
        let seed: u64 = seed.parse().map_err(|_| bad(family_no, "bad seed"))?;
        if bands == 0 || rows == 0 {
            return Err(bad(family_no, "bands and rows must be positive"));
        }
        if bands
            .checked_mul(rows)
            .is_none_or(|bins| bins > MAX_INDEX_BINS)
        {
            return Err(bad(family_no, &format!("more than {MAX_INDEX_BINS} bins")));
        }

        let (entries_no, entries_line) =
            lines.next().ok_or_else(|| bad(3, "missing entries line"))?;
        let entries: usize = entries_line
            .strip_prefix("entries ")
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| bad(entries_no, "expected `entries <count>`"))?;

        let reserved = entries.min(lines.len());
        let mut ids: Vec<u32> = Vec::with_capacity(reserved);
        let mut keys: Vec<u64> =
            Vec::with_capacity(reserved.saturating_mul(bands).min(text.len() / 2));
        for (n, line) in lines {
            if line.trim().is_empty() {
                continue;
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
            let first = keys.len();
            for tok in list.trim().split(',').take(bands + 1) {
                keys.push(tok.parse().map_err(|_| bad(n, "bad band key"))?);
            }
            if keys.len() - first != bands {
                return Err(bad(n, &format!("expected {bands} band keys")));
            }
            ids.push(id);
        }
        if ids.len() != entries {
            return Err(bad(
                entries_no,
                &format!(
                    "entry count {entries} disagrees with the {} keys lines",
                    ids.len()
                ),
            ));
        }
        Ok(IndexParts {
            bands,
            rows,
            seed,
            ids,
            keys,
        })
    }

    /// The index image `parts` saves to, rendered the way `save_index`
    /// writes it.
    pub fn render_index(parts: &IndexParts) -> Vec<u8> {
        let mut text = format!(
            "{INDEX_HEADER_V3}\noph {} {} {}\nentries {}\n",
            parts.bands,
            parts.rows,
            parts.seed,
            parts.ids.len()
        );
        for (id, keys) in parts.ids.iter().zip(parts.keys.chunks_exact(parts.bands)) {
            let keys: Vec<String> = keys.iter().map(u64::to_string).collect();
            text.push_str(&format!("keys {id} {}\n", keys.join(",")));
        }
        super::sealed(text.as_bytes())
    }
}

/// `body` followed by a valid `crc32` trailer over it.
fn sealed(body: &[u8]) -> Vec<u8> {
    let mut image = body.to_vec();
    image.extend_from_slice(format!("crc32 {:08x}\n", crc32(body)).as_bytes());
    image
}

/// An image's bytes before its `crc32` trailer line.
fn body_of(image: &[u8]) -> &[u8] {
    let trailer = image[..image.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    &image[..trailer]
}

/// The two errors are the same variant with the same line and message.
fn assert_same_error(streamed: &DbIoError, reference: &DbIoError, input: &[u8]) {
    let same = match (streamed, reference) {
        (DbIoError::Io(a), DbIoError::Io(b)) => {
            a.kind() == b.kind() && a.to_string() == b.to_string()
        }
        (
            DbIoError::BadFormat {
                line: a,
                message: m,
            },
            DbIoError::BadFormat {
                line: b,
                message: n,
            },
        ) => a == b && m == n,
        _ => false,
    };
    assert!(
        same,
        "streamed {streamed:?} but the reference gave {reference:?} for {:?}",
        String::from_utf8_lossy(input)
    );
}

fn saved_db(db: &FingerprintDb<String, PcDistance>) -> Vec<u8> {
    let mut out = Vec::new();
    save_db(db, &mut out).expect("in-memory write");
    out
}

/// Loads `input` with both database loaders; returns whether it loaded.
fn check_db(input: &[u8]) -> bool {
    match (load_db(input), reference::load_db(input)) {
        (Ok(streamed), Ok(reference)) => {
            assert!(
                saved_db(&streamed) == saved_db(&reference),
                "loaded databases save differently for {:?}",
                String::from_utf8_lossy(input)
            );
            true
        }
        (Err(streamed), Err(reference)) => {
            assert_same_error(&streamed, &reference, input);
            false
        }
        (streamed, reference) => panic!(
            "streamed {:?} but the reference gave {:?} for {:?}",
            streamed.map(|db| db.len()),
            reference.map(|db| db.len()),
            String::from_utf8_lossy(input)
        ),
    }
}

/// Loads `input` with both index loaders; returns whether it loaded.
fn check_index(input: &[u8]) -> bool {
    match (load_index(input), reference::load_index(input)) {
        (Ok(streamed), Ok(reference)) => {
            let mut saved = Vec::new();
            save_index(&streamed, &mut saved).expect("in-memory write");
            assert!(
                saved == reference::render_index(&reference),
                "loaded indexes save differently for {:?}",
                String::from_utf8_lossy(input)
            );
            true
        }
        (Err(streamed), Err(reference)) => {
            assert_same_error(&streamed, &reference, input);
            false
        }
        (streamed, reference) => panic!(
            "streamed {:?} but the reference gave {:?} for {:?}",
            streamed.map(|index| index.len()),
            reference.map(|parts| parts.ids.len()),
            String::from_utf8_lossy(input)
        ),
    }
}

/// Runs `check` on `image`, every proper prefix of it, and every
/// single-bit flip of it.
fn sweep(image: &[u8], check: fn(&[u8]) -> bool) {
    check(image);
    for len in 0..image.len() {
        check(&image[..len]);
    }
    let mut flipped = image.to_vec();
    for byte in 0..image.len() {
        for bit in 0..8 {
            flipped[byte] ^= 1 << bit;
            check(&flipped);
            flipped[byte] ^= 1 << bit;
        }
    }
}

/// A SplitMix64 stream for the fixtures.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `weight` distinct ascending positions below `size`.
    fn errors(&mut self, weight: usize, size: u64) -> ErrorString {
        let bits = (0..weight).map(|_| self.next() % size).collect();
        ErrorString::from_unsorted(bits, size).expect("in range")
    }
}

/// A seeded three-entry database image: a label with a space, a
/// multi-byte label, and an empty fingerprint under a label that needs
/// escaping.
fn db_image(seed: u64) -> Vec<u8> {
    let mut stream = Stream(seed);
    let mut db = FingerprintDb::new(PcDistance::new(), 0.25);
    db.insert(
        "chip one".to_string(),
        Fingerprint::from_parts(stream.errors(4, 4096), 3),
    );
    db.insert(
        "puce-é-芯片".to_string(),
        Fingerprint::from_parts(stream.errors(3, 70_000), 2),
    );
    db.insert(
        "100%\nodd".to_string(),
        Fingerprint::from_parts(ErrorString::from_sorted(vec![], 64).expect("empty"), 1),
    );
    saved_db(&db)
}

/// A seeded two-entry index image.
fn index_image(seed: u64) -> Vec<u8> {
    let mut stream = Stream(seed);
    let mut index = LshIndex::new(3, 2, seed);
    index.insert(0, &stream.errors(6, 4096));
    index.insert(3, &stream.errors(6, 4096));
    let mut out = Vec::new();
    save_index(&index, &mut out).expect("in-memory write");
    out
}

/// `image`'s body with `\n` line endings turned into `\r\n`, resealed.
fn crlf(image: &[u8]) -> Vec<u8> {
    let text = String::from_utf8(body_of(image).to_vec()).expect("utf-8 fixture");
    sealed(text.replace('\n', "\r\n").as_bytes())
}

/// `image`'s body with `blank` after every line but the header, resealed.
fn with_blank_lines(image: &[u8], blank: &str) -> Vec<u8> {
    let text = String::from_utf8(body_of(image).to_vec()).expect("utf-8 fixture");
    let mut lines = text.split_inclusive('\n');
    let mut out = lines.next().unwrap_or("").to_string();
    for line in lines {
        out.push_str(line);
        out.push_str(blank);
    }
    sealed(out.as_bytes())
}

/// The variants of one image that every truncation and flip is swept
/// over: the image, its CRLF form, blank or whitespace lines after each
/// line, blank lines after the trailer, and CRLF endings under the stale
/// trailer.
fn variants(image: &[u8]) -> Vec<Vec<u8>> {
    let mut after_trailer = image.to_vec();
    after_trailer.extend_from_slice(b"\n \t\r\n\n");
    let mut crlf_stale = String::from_utf8(image.to_vec())
        .expect("utf-8 fixture")
        .replace('\n', "\r\n")
        .into_bytes();
    crlf_stale.truncate(crlf_stale.len() - 2);
    crlf_stale.push(b'\n');
    vec![
        image.to_vec(),
        crlf(image),
        with_blank_lines(image, "\n"),
        with_blank_lines(image, " \t\r\n"),
        after_trailer,
        crlf_stale,
    ]
}

#[test]
fn streamed_db_loads_agree_with_the_whole_text_loader() {
    for seed in [1, 7, 20151013] {
        let image = db_image(seed);
        assert!(check_db(&image), "seed {seed}: the image must load");
        for variant in variants(&image) {
            sweep(&variant, check_db);
        }
        // The multi-byte label is valid UTF-8 with its bytes; one invalid
        // byte in it fails the whole stream, sealed or not.
        let at = image
            .windows(2)
            .position(|w| w == "é".as_bytes())
            .expect("the multi-byte label is in the image");
        let mut invalid = body_of(&image).to_vec();
        invalid[at] = 0xff;
        assert!(!check_db(&sealed(&invalid)));
        assert!(!check_db(&invalid));
    }
}

#[test]
fn streamed_index_loads_agree_with_the_whole_text_loader() {
    for seed in [2, 9, 20151013] {
        let image = index_image(seed);
        assert!(check_index(&image), "seed {seed}: the image must load");
        for variant in variants(&image) {
            sweep(&variant, check_index);
        }
        let mut invalid = body_of(&image).to_vec();
        let last = invalid.len() - 2;
        invalid[last] = 0xc3;
        assert!(!check_index(&sealed(&invalid)));
    }
}

#[test]
fn envelope_edges_agree_with_the_whole_text_loader() {
    let db_inputs: [&[u8]; 8] = [
        b"",
        b"\n",
        b"probable-cause-db 2",
        b"probable-cause-db 2\n",
        b"probable-cause-db 2\r\n\n \n",
        b"  probable-cause-db 2 \nthreshold 0.2\ncrc32 00000000\n",
        b"nope\n\xff\n",
        b"probable-cause-db 2\nthreshold 0.2\ncrc32 0000000\n",
    ];
    for input in db_inputs {
        assert!(!check_db(input));
    }
    let index_inputs: [&[u8]; 4] = [
        b"",
        b"probable-cause-index 3\n",
        b"probable-cause-index 3",
        b"probable-cause-db 2\n",
    ];
    for input in index_inputs {
        assert!(!check_index(input));
    }
    // Sealed bodies: the trailer matches, so the body decides.
    let bodies: [(&[u8], bool); 7] = [
        (b"probable-cause-db 2\n", false),
        (b"probable-cause-db 2\n\nthreshold 0.2\n", false),
        (b"probable-cause-db 2\nthreshold 0.2\n", true),
        (
            b"probable-cause-db 2\nthreshold 0.2\nfp x 64 1 +3,007\n",
            true,
        ),
        (
            b"probable-cause-db 2\nthreshold 0.2\nfp x 64 1 3,,5\n",
            false,
        ),
        (
            b"probable-cause-db 2\nthreshold 0.2\nfp x 64 1 3\nfp y 64 0 1\nfp z\n",
            false,
        ),
        (
            b"probable-cause-db 2\nthreshold 0.2\nfp x 64 1 18446744073709551616\n",
            false,
        ),
    ];
    for (body, loads) in bodies {
        assert_eq!(check_db(&sealed(body)), loads, "{body:?}");
    }
    let bodies: [(&[u8], bool); 6] = [
        (b"probable-cause-index 3\n", false),
        (b"probable-cause-index 3\noph 2 2 1\n", false),
        (b"probable-cause-index 3\noph 2 2 1\n\nentries 0\n", false),
        (b"probable-cause-index 3\noph 2 2 1\nentries 0\n", true),
        (
            b"probable-cause-index 3\noph 2 2 1\nentries 1\n\nkeys 4 +5,06\n\n",
            true,
        ),
        (
            b"probable-cause-index 3\noph 2 2 1\nentries 9\nkeys 0 5,6,x\n",
            false,
        ),
    ];
    for (body, loads) in bodies {
        assert_eq!(check_index(&sealed(body)), loads, "{body:?}");
    }
}
