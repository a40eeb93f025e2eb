//! Trace-file reading: parses a JSONL trace and returns the frames as
//! [`Json`] values.
//!
//! Frames come back in file order; consumers dispatch on the `"k"`
//! field. `lsrp viz` and the golden schema tests are the two in-repo
//! consumers.

use std::fs;
use std::io;
use std::path::Path;

use crate::json::{parse, Json};

/// Reads every frame of a trace file.
///
/// # Errors
///
/// I/O errors are passed through; malformed frames surface as
/// [`io::ErrorKind::InvalidData`] with the offending line.
pub fn read_trace(path: &Path) -> io::Result<Vec<Json>> {
    let bytes = fs::read(path)?;
    let text = std::str::from_utf8(&bytes).map_err(|e| bad(e.to_string()))?;
    let mut frames = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let v = parse(line).map_err(|e| bad(format!("line {}: {e}", i + 1)))?;
        frames.push(v);
    }
    Ok(frames)
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The frame kind (`"k"` field), when present.
pub fn kind(frame: &Json) -> Option<&str> {
    frame.get("k")?.as_str()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_jsonl_frames() {
        let dir = std::env::temp_dir().join("lsrp-trace-test-reader");
        std::fs::create_dir_all(&dir).unwrap();

        let jsonl = dir.join("a.jsonl");
        std::fs::write(&jsonl, "{\"k\":\"hdr\",\"v\":1}\n{\"k\":\"end\"}\n").unwrap();
        let frames = read_trace(&jsonl).unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(kind(&frames[0]), Some("hdr"));
        assert_eq!(kind(&frames[1]), Some("end"));

        let _ = std::fs::remove_file(&jsonl);
    }

    #[test]
    fn truncated_binary_is_invalid_data() {
        let dir = std::env::temp_dir().join("lsrp-trace-test-reader");
        std::fs::create_dir_all(&dir).unwrap();
        let bin = dir.join("trunc.bin");
        // The retired binary framing: magic, then a header claiming 200
        // payload bytes that are not there. It is not JSONL either.
        let mut data = b"LSRPTRCB".to_vec();
        data.extend_from_slice(&[2u8, 200, 0, 0, 0]);
        std::fs::write(&bin, &data).unwrap();
        let err = read_trace(&bin).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&bin);
    }
}
