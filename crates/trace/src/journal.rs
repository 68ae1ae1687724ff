//! Append-only, checksummed event journal — the durability substrate
//! for live streaming sessions.
//!
//! A journal is a single file holding a fixed header line followed by
//! length-prefixed, CRC-checksummed NDJSON records:
//!
//! ```text
//! vivajournal\t1\t"<id>"\n
//! <len>\t<crc32:08x>\t{"seq":1,"text":"..."}\n
//! <len>\t<crc32:08x>\t{"seq":2,"text":"..."}\n
//! <len>\t<crc32:08x>\t{"seal":true}\n
//! ```
//!
//! * `len` is the byte length of the payload (the third field), so a
//!   torn write is detectable without trusting the newline.
//! * `crc32` is the IEEE CRC-32 of the payload bytes, so a bit flip is
//!   detectable even when the length survives.
//! * Payloads are canonical one-line JSON; `text` escapes `\n` and
//!   friends, so the file stays strictly line-oriented.
//! * A `{"seal":true}` record marks the journal **sealed**: no record
//!   may follow it, and recovery treats anything after it as garbage.
//!
//! Recovery ([`RecoveredJournal::read`]) scans from the start and
//! **truncates at the first torn or corrupt record** — a short final
//! line, a length mismatch, a CRC mismatch, an unparsable payload, or a
//! non-contiguous sequence number all end the valid prefix. Everything
//! before that point is a provable prefix of what the writer appended,
//! which is exactly what the lenient loader needs to replay a live
//! session after a crash (see DESIGN.md §16).
//!
//! The writer fsync-batches: [`JournalWriter::append`] flushes the OS
//! buffer every record but only calls `fsync` every
//! [`JournalConfig::sync_every`] records (and on [`JournalWriter::seal`]),
//! trading a bounded window of acknowledged-but-not-yet-durable records
//! for append throughput.

use std::ffi::OsString;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use viva_obs::Recorder;

/// Magic first field of the header line.
const MAGIC: &str = "vivajournal";
/// On-disk format version.
const VERSION: u32 = 1;

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) lookup table,
/// built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// IEEE CRC-32 of `bytes` (the common `crc32`/zlib checksum).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------
// Minimal JSON string escaping (journal payloads are self-contained —
// viva-trace cannot depend on the server's codec).
// ---------------------------------------------------------------------

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON string literal starting at `s[0] == '"'`. Returns the
/// decoded string and the number of bytes consumed (including quotes).
fn unescape(s: &str) -> Option<(String, usize)> {
    let bytes = s.as_bytes();
    if bytes.first() != Some(&b'"') {
        return None;
    }
    let mut out = String::new();
    let mut chars = s[1..].char_indices();
    while let Some((i, ch)) = chars.next() {
        match ch {
            '"' => return Some((out, 1 + i + 1)),
            '\\' => {
                let (_, esc) = chars.next()?;
                match esc {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (_, h) = chars.next()?;
                            code = code * 16 + h.to_digit(16)?;
                        }
                        out.push(char::from_u32(code)?);
                    }
                    _ => return None,
                }
            }
            c => out.push(c),
        }
    }
    None
}

// ---------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------

/// One recovered journal record: an acknowledged `append` payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Strictly increasing, contiguous from 1.
    pub seq: u64,
    /// The appended trace text (one or more CSV interchange lines).
    pub text: String,
}

enum Payload {
    Record(JournalRecord),
    Seal,
}

fn encode_payload(p: &Payload) -> String {
    match p {
        Payload::Record(r) => {
            let mut s = String::with_capacity(r.text.len() + 32);
            s.push_str("{\"seq\":");
            s.push_str(&r.seq.to_string());
            s.push_str(",\"text\":");
            escape_into(&mut s, &r.text);
            s.push('}');
            s
        }
        Payload::Seal => "{\"seal\":true}".to_string(),
    }
}

fn decode_payload(s: &str) -> Option<Payload> {
    if s == "{\"seal\":true}" {
        return Some(Payload::Seal);
    }
    let rest = s.strip_prefix("{\"seq\":")?;
    let digits_end = rest.find(|c: char| !c.is_ascii_digit())?;
    if digits_end == 0 {
        return None;
    }
    let seq: u64 = rest[..digits_end].parse().ok()?;
    let rest = rest[digits_end..].strip_prefix(",\"text\":")?;
    let (text, used) = unescape(rest)?;
    if &rest[used..] != "}" {
        return None;
    }
    Some(Payload::Record(JournalRecord { seq, text }))
}

fn encode_record_line(p: &Payload) -> String {
    let payload = encode_payload(p);
    format!("{}\t{:08x}\t{}\n", payload.len(), crc32(payload.as_bytes()), payload)
}

fn header_line(id: &str) -> String {
    let mut s = String::new();
    s.push_str(MAGIC);
    s.push('\t');
    s.push_str(&VERSION.to_string());
    s.push('\t');
    escape_into(&mut s, id);
    s.push('\n');
    s
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a journal could not be opened or appended to.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// The file's header is not a `vivajournal` header this version
    /// understands (wrong magic, wrong version, torn header).
    BadHeader,
    /// `append` on a sealed journal.
    Sealed,
    /// `append` with a sequence number that is not `last_seq + 1`.
    BadSeq {
        /// What the writer expected.
        expected: u64,
        /// What the caller passed.
        got: u64,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::BadHeader => write!(f, "not a vivajournal v{VERSION} file"),
            JournalError::Sealed => write!(f, "journal is sealed"),
            JournalError::BadSeq { expected, got } => {
                write!(f, "journal sequence gap: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

/// The provably-valid prefix of a journal file, as read back by
/// recovery.
#[derive(Debug)]
pub struct RecoveredJournal {
    /// The id stored in the header (the live session's name).
    pub id: String,
    /// Valid records, contiguous from seq 1.
    pub records: Vec<JournalRecord>,
    /// Whether a seal record ended the valid prefix.
    pub sealed: bool,
    /// Byte length of the valid prefix (header + intact records).
    pub valid_len: u64,
    /// Bytes discarded past the valid prefix (0 for a clean file).
    pub truncated_bytes: u64,
}

impl RecoveredJournal {
    /// Highest valid sequence number (0 when empty).
    pub fn last_seq(&self) -> u64 {
        self.records.last().map_or(0, |r| r.seq)
    }

    /// Scans `path`, validating records until the first torn or corrupt
    /// one. Never errors on a damaged *tail* — damage merely shortens
    /// the valid prefix. Errors only when the file cannot be read at
    /// all or its header is not a vivajournal header (a torn header
    /// means zero durable records, which is also reported as
    /// [`JournalError::BadHeader`] — the caller decides whether to
    /// discard the file).
    pub fn read(path: &Path) -> Result<RecoveredJournal, JournalError> {
        let mut buf = Vec::new();
        File::open(path)?.read_to_end(&mut buf)?;
        // Header must be intact: a valid UTF-8 line `magic\tversion\t"id"`.
        let nl = buf
            .iter()
            .position(|&b| b == b'\n')
            .ok_or(JournalError::BadHeader)?;
        let header =
            std::str::from_utf8(&buf[..nl]).map_err(|_| JournalError::BadHeader)?;
        let mut fields = header.splitn(3, '\t');
        if fields.next() != Some(MAGIC) {
            return Err(JournalError::BadHeader);
        }
        if fields.next().and_then(|v| v.parse::<u32>().ok()) != Some(VERSION) {
            return Err(JournalError::BadHeader);
        }
        let id = match fields.next().and_then(unescape) {
            Some((id, used)) if used == header.len() - (MAGIC.len() + 1) - 2 => id,
            _ => return Err(JournalError::BadHeader),
        };

        let mut records = Vec::new();
        let mut sealed = false;
        let mut pos = nl + 1;
        let mut valid_len = pos as u64;
        while pos < buf.len() && !sealed {
            let Some(parsed) = parse_record_at(&buf[pos..]) else {
                break;
            };
            let (payload, line_len) = parsed;
            match payload {
                Payload::Record(r) => {
                    let expected = records.last().map_or(1, |p: &JournalRecord| p.seq + 1);
                    if r.seq != expected {
                        break;
                    }
                    records.push(r);
                }
                Payload::Seal => sealed = true,
            }
            pos += line_len;
            valid_len = pos as u64;
        }
        Ok(RecoveredJournal {
            id,
            records,
            sealed,
            valid_len,
            truncated_bytes: buf.len() as u64 - valid_len,
        })
    }
}

/// Parses one record line at the start of `buf`. Returns the payload
/// and the total line length (including the newline), or `None` when
/// the line is torn or corrupt in any way.
fn parse_record_at(buf: &[u8]) -> Option<(Payload, usize)> {
    let nl = buf.iter().position(|&b| b == b'\n')?;
    let line = std::str::from_utf8(&buf[..nl]).ok()?;
    let mut fields = line.splitn(3, '\t');
    let len: usize = fields.next()?.parse().ok()?;
    let crc_field = fields.next()?;
    if crc_field.len() != 8 {
        return None;
    }
    let crc: u32 = u32::from_str_radix(crc_field, 16).ok()?;
    let payload = fields.next()?;
    if payload.len() != len || crc32(payload.as_bytes()) != crc {
        return None;
    }
    Some((decode_payload(payload)?, nl + 1))
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Writer tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct JournalConfig {
    /// `fsync` after every N appended records (1 = every record). The
    /// OS buffer is flushed on every append regardless; this bounds the
    /// *durability* window, not the visibility window.
    pub sync_every: u32,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig { sync_every: 64 }
    }
}

/// What one [`JournalWriter::append`] did — feeds observability
/// counters at the call site.
#[derive(Debug, Clone, Copy)]
pub struct AppendOutcome {
    /// Bytes written for this record (framing included).
    pub bytes: u64,
    /// Whether this append crossed the batch boundary and fsynced.
    pub synced: bool,
}

/// The directory holding `path` (`.` for a bare file name).
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// Fsyncs directory `dir`, which makes creating, renaming or removing
/// an entry in it durable. A file's own fsync does not cover its name.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Replaces the file at `path` with `bytes` so that a crash at any
/// point leaves either the old file or the new one, whole: the bytes
/// go to a temporary file in the same directory, which is fsynced,
/// renamed over `path`, and then the directory is fsynced. On failure
/// the temporary file is removed and `path` is untouched.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    // Unique per call, so concurrent writers of one path never share a
    // temporary file.
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = parent_dir(path);
    let Some(name) = path.file_name() else {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "path names no file"));
    };
    let mut tmp_name = OsString::from(".");
    tmp_name.push(name);
    let unique = NEXT.fetch_add(1, Ordering::Relaxed);
    tmp_name.push(format!(".{}.{unique}.tmp", std::process::id()));
    let tmp = dir.join(tmp_name);
    let written = File::create(&tmp)
        .and_then(|mut f| f.write_all(bytes).and_then(|()| f.sync_all()))
        .and_then(|()| fs::rename(&tmp, path));
    if let Err(e) = written {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    sync_dir(dir)
}

/// Appends checksummed records to a journal file.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    id: String,
    last_seq: u64,
    sealed: bool,
    unsynced: u32,
    config: JournalConfig,
    recorder: Recorder,
}

impl JournalWriter {
    /// Creates a fresh journal at `path` (truncating any existing
    /// file), writes and fsyncs the header, then fsyncs the directory
    /// so the journal's name survives a crash along with its records.
    pub fn create(
        path: &Path,
        id: &str,
        config: JournalConfig,
    ) -> Result<JournalWriter, JournalError> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        file.write_all(header_line(id).as_bytes())?;
        file.sync_data()?;
        sync_dir(parent_dir(path))?;
        Ok(JournalWriter {
            file,
            path: path.to_path_buf(),
            id: id.to_string(),
            last_seq: 0,
            sealed: false,
            unsynced: 0,
            config,
            recorder: Recorder::disabled(),
        })
    }

    /// Recovers `path` and reopens it for appending: the torn tail (if
    /// any) is physically truncated so the file ends exactly at the
    /// valid prefix, and the writer continues from the recovered
    /// sequence number. Returns the recovered prefix alongside so the
    /// caller can replay it.
    pub fn recover(
        path: &Path,
        config: JournalConfig,
    ) -> Result<(JournalWriter, RecoveredJournal), JournalError> {
        let recovered = RecoveredJournal::read(path)?;
        let mut file = OpenOptions::new().write(true).open(path)?;
        if recovered.truncated_bytes > 0 {
            file.set_len(recovered.valid_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(recovered.valid_len))?;
        let writer = JournalWriter {
            file,
            path: path.to_path_buf(),
            id: recovered.id.clone(),
            last_seq: recovered.last_seq(),
            sealed: recovered.sealed,
            unsynced: 0,
            config,
            recorder: Recorder::disabled(),
        };
        Ok((writer, recovered))
    }

    /// Attaches an observability recorder; subsequent appends bump
    /// `journal.records` / `journal.bytes` / `journal.fsyncs`.
    pub fn with_recorder(mut self, recorder: Recorder) -> JournalWriter {
        self.recorder = recorder;
        self
    }

    /// The id recorded in the header.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Highest appended sequence number (0 when empty).
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Whether [`JournalWriter::seal`] has been written.
    pub fn sealed(&self) -> bool {
        self.sealed
    }

    /// Appends one record. `seq` must be exactly `last_seq() + 1` — the
    /// caller owns idempotent-duplicate suppression; the journal only
    /// guarantees the file never contains a gap or a duplicate.
    pub fn append(&mut self, seq: u64, text: &str) -> Result<AppendOutcome, JournalError> {
        if self.sealed {
            return Err(JournalError::Sealed);
        }
        let expected = self.last_seq + 1;
        if seq != expected {
            return Err(JournalError::BadSeq { expected, got: seq });
        }
        let line = encode_record_line(&Payload::Record(JournalRecord {
            seq,
            text: text.to_string(),
        }));
        self.file.write_all(line.as_bytes())?;
        self.last_seq = seq;
        self.unsynced += 1;
        let synced = self.unsynced >= self.config.sync_every.max(1);
        if synced {
            self.file.sync_data()?;
            self.unsynced = 0;
            self.recorder.counter("journal.fsyncs").add(1);
        }
        self.recorder.counter("journal.records").add(1);
        self.recorder.counter("journal.bytes").add(line.len() as u64);
        Ok(AppendOutcome { bytes: line.len() as u64, synced })
    }

    /// Forces an fsync of everything appended so far.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.file.sync_data()?;
        if self.unsynced > 0 {
            self.recorder.counter("journal.fsyncs").add(1);
        }
        self.unsynced = 0;
        Ok(())
    }

    /// Writes the seal record and fsyncs. Idempotent.
    pub fn seal(&mut self) -> Result<(), JournalError> {
        if self.sealed {
            return Ok(());
        }
        let line = encode_record_line(&Payload::Seal);
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()?;
        self.recorder.counter("journal.fsyncs").add(1);
        self.recorder.counter("journal.bytes").add(line.len() as u64);
        self.sealed = true;
        self.unsynced = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "viva_journal_test_{tag}_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn write_atomic_replaces_the_file_and_leaves_no_temporaries() {
        let dir = tmpdir("atomic");
        let path = dir.join("state.json");
        write_atomic(&path, b"old\n").unwrap();
        write_atomic(&path, b"new, longer\n").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new, longer\n");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from("state.json")]);
        // A target that cannot be renamed over (a directory) fails and
        // cleans its temporary file up.
        let blocked = dir.join("blocked");
        std::fs::create_dir_all(blocked.join("inner")).unwrap();
        assert!(write_atomic(&blocked, b"x").is_err());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn payload_roundtrip_with_escapes() {
        let r = JournalRecord {
            seq: 7,
            text: "var,1.0,2,0,3.5\nspan \"quoted\" \\ tab\tend\u{1}".to_string(),
        };
        let enc = encode_payload(&Payload::Record(r.clone()));
        assert!(!enc.contains('\n'));
        match decode_payload(&enc) {
            Some(Payload::Record(back)) => assert_eq!(back, r),
            _ => panic!("payload did not round-trip"),
        }
    }

    #[test]
    fn write_recover_roundtrip() {
        let path = tmpdir("roundtrip").join("a.vjj");
        let mut w = JournalWriter::create(&path, "sess/α", JournalConfig::default()).unwrap();
        for i in 1..=5u64 {
            w.append(i, &format!("var,{i}.0,1,0,{i}\n")).unwrap();
        }
        w.seal().unwrap();
        let rec = RecoveredJournal::read(&path).unwrap();
        assert_eq!(rec.id, "sess/α");
        assert_eq!(rec.records.len(), 5);
        assert_eq!(rec.last_seq(), 5);
        assert!(rec.sealed);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(rec.records[2].text, "var,3.0,1,0,3\n");
    }

    #[test]
    fn append_enforces_contiguity_and_seal() {
        let path = tmpdir("contig").join("a.vjj");
        let mut w = JournalWriter::create(&path, "s", JournalConfig::default()).unwrap();
        w.append(1, "x").unwrap();
        assert!(matches!(
            w.append(3, "y"),
            Err(JournalError::BadSeq { expected: 2, got: 3 })
        ));
        w.seal().unwrap();
        assert!(matches!(w.append(2, "y"), Err(JournalError::Sealed)));
    }

    #[test]
    fn torn_tail_truncates_to_prefix() {
        let path = tmpdir("torn").join("a.vjj");
        let mut w = JournalWriter::create(&path, "s", JournalConfig { sync_every: 1 }).unwrap();
        for i in 1..=4u64 {
            w.append(i, &format!("line {i}")).unwrap();
        }
        drop(w);
        let full = std::fs::read(&path).unwrap();
        // Tear the file mid-way through the last record.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let rec = RecoveredJournal::read(&path).unwrap();
        assert_eq!(rec.last_seq(), 3);
        assert!(!rec.sealed);
        assert!(rec.truncated_bytes > 0);

        // Reopening truncates physically and appends continue at 4.
        let (mut w, rec) = JournalWriter::recover(&path, JournalConfig::default()).unwrap();
        assert_eq!(rec.last_seq(), 3);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), rec.valid_len);
        w.append(4, "line 4 again").unwrap();
        w.sync().unwrap();
        let rec = RecoveredJournal::read(&path).unwrap();
        assert_eq!(rec.last_seq(), 4);
        assert_eq!(rec.records[3].text, "line 4 again");
    }

    #[test]
    fn bit_flip_truncates_at_corruption() {
        let path = tmpdir("flip").join("a.vjj");
        let mut w = JournalWriter::create(&path, "s", JournalConfig { sync_every: 1 }).unwrap();
        for i in 1..=4u64 {
            w.append(i, &format!("payload number {i}")).unwrap();
        }
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside record 3's payload (find its text).
        let off = bytes
            .windows(b"number 3".len())
            .position(|w| w == b"number 3")
            .unwrap();
        bytes[off] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let rec = RecoveredJournal::read(&path).unwrap();
        assert_eq!(rec.last_seq(), 2, "corruption in record 3 ends the prefix");
        assert!(rec.truncated_bytes > 0);
    }

    #[test]
    fn bad_header_rejected() {
        let path = tmpdir("hdr").join("a.vjj");
        std::fs::write(&path, "not a journal\n").unwrap();
        assert!(matches!(
            RecoveredJournal::read(&path),
            Err(JournalError::BadHeader)
        ));
        std::fs::write(&path, "vivajournal\t999\t\"x\"\n").unwrap();
        assert!(matches!(
            RecoveredJournal::read(&path),
            Err(JournalError::BadHeader)
        ));
    }

    #[test]
    fn fsync_batching_counts() {
        let path = tmpdir("sync").join("a.vjj");
        let mut w = JournalWriter::create(&path, "s", JournalConfig { sync_every: 3 }).unwrap();
        let outcomes: Vec<bool> = (1..=7u64)
            .map(|i| w.append(i, "x").unwrap().synced)
            .collect();
        assert_eq!(outcomes, vec![false, false, true, false, false, true, false]);
    }

    #[test]
    fn garbage_after_seal_ignored() {
        let path = tmpdir("postseal").join("a.vjj");
        let mut w = JournalWriter::create(&path, "s", JournalConfig { sync_every: 1 }).unwrap();
        w.append(1, "x").unwrap();
        w.seal().unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"trailing garbage after the seal");
        std::fs::write(&path, &bytes).unwrap();
        let rec = RecoveredJournal::read(&path).unwrap();
        assert!(rec.sealed);
        assert_eq!(rec.last_seq(), 1);
        assert!(rec.truncated_bytes > 0);
    }
}
