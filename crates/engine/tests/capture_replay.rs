//! The capture replay path on damaged input: arbitrary bytes and
//! mutations of a [`CaptureSource`](unroller_engine::CaptureSource)
//! capture (truncation, bit flips, inflated captured length or
//! snaplen). Every reader answers with a typed error or a truncation
//! marker, never a panic, and replay accounts for every record it read.

mod mutated_capture;

use mutated_capture::{apply, mutation, seed_capture};
use proptest::prelude::*;
use unroller_dataplane::{PcapError, PcapItem, PcapReader, PcapRecord, PcapStream};
use unroller_engine::{PathSpec, PcapReplaySource};

/// Every record [`PcapReader`] yields before it stops, and whether it
/// stopped on a truncated record. Checks that the error, if any, ends
/// the iteration.
fn read_all(mut reader: PcapReader) -> (Vec<PcapRecord>, bool) {
    let mut records = Vec::new();
    for item in reader.by_ref() {
        match item {
            Ok(record) => records.push(record),
            Err(PcapError::TruncatedRecord { index }) => {
                assert_eq!(index, records.len(), "the error names the next record");
                assert!(reader.next().is_none(), "the reader stops at its error");
                return (records, true);
            }
            Err(other) => panic!("a record yields only TruncatedRecord, got {other:?}"),
        }
    }
    (records, false)
}

/// Resolves hosts below 16 onto a direct path, except pairs whose sum
/// is a multiple of 5, so replay both attributes and skips records.
fn resolve(src: usize, dst: usize) -> Option<PathSpec> {
    (src < 16 && dst < 16 && !(src + dst).is_multiple_of(5))
        .then(|| PathSpec::linear(vec![src, dst]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The in-memory reader and the streaming reader agree on the
    /// global header, and the stream's intact records are a prefix of
    /// the reader's; each ends in a typed error or one truncation
    /// marker.
    #[test]
    fn damaged_captures_read_to_a_typed_end(m in mutation()) {
        let bytes = apply(&seed_capture(), &m);
        let stream = PcapStream::new(&bytes[..]).expect("in-memory reads do not fail");
        let reader = PcapReader::new(bytes.clone());
        prop_assert_eq!(
            reader.as_ref().err(),
            stream.as_ref().err(),
            "both readers judge the global header alike"
        );
        let (Ok(reader), Ok(mut stream)) = (reader, stream) else {
            return Ok(());
        };
        let (records, _) = read_all(reader);
        let mut streamed = Vec::new();
        while let Some(item) = stream.next() {
            match item.expect("in-memory reads do not fail") {
                PcapItem::Record(record) => streamed.push(record),
                PcapItem::Truncated { index, .. } => {
                    prop_assert_eq!(index, streamed.len());
                    prop_assert!(stream.next().is_none(), "the stream ends after the marker");
                }
            }
        }
        prop_assert!(streamed.len() <= records.len());
        prop_assert_eq!(&streamed[..], &records[..streamed.len()]);
    }

    /// Replay either refuses a torn capture with `TruncatedRecord` or
    /// turns every record it read into a packet or a skipped frame.
    #[test]
    fn replay_accounts_for_every_record_or_refuses(m in mutation()) {
        let bytes = apply(&seed_capture(), &m);
        let Ok(reader) = PcapReader::new(bytes.clone()) else {
            return Ok(());
        };
        let (records, torn) = read_all(reader.clone());
        match PcapReplaySource::from_reader(reader, resolve) {
            Err(PcapError::TruncatedRecord { index }) => {
                prop_assert!(torn, "replay refused a whole capture");
                prop_assert_eq!(index, records.len());
            }
            Err(other) => prop_assert!(false, "unexpected replay error {:?}", other),
            Ok(replay) => {
                prop_assert!(!torn, "replay accepted a torn capture");
                prop_assert_eq!(
                    replay.packet_count() as u64 + replay.skipped_frames(),
                    records.len() as u64,
                    "every record is a packet or a skipped frame"
                );
            }
        }
    }
}

#[test]
fn the_undamaged_seed_replays_whole() {
    let reader = PcapReader::new(seed_capture()).expect("the tee writes a valid header");
    let (records, torn) = read_all(reader.clone());
    assert!(!torn);
    assert_eq!(records.len(), 24, "one record per packet");
    let replay = PcapReplaySource::from_reader(reader, resolve).expect("whole capture");
    assert_eq!(replay.packet_count() as u64 + replay.skipped_frames(), 24);
    assert!(replay.packet_count() > 0 && replay.skipped_frames() > 0);
}
