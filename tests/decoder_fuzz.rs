//! Byte-mutation fuzzing of the framed decoders that read bytes another
//! process (or an earlier life of this one) wrote: fleet wire frames
//! (`Message::decode`), worker checkpoint files (`decode_checkpoint`) and
//! pipeline checkpoints (`PipelineCheckpoint::from_bytes`).
//!
//! Every case starts from a valid frame and truncates it or replaces one
//! byte. A mutation of the sealed frame mostly exercises the envelope
//! (magic, kind, version, length, checksum). The same mutation *resealed*
//! behind a fresh, correct envelope reaches the payload decoders. The only
//! acceptable outcomes are `Ok` or a typed `CodecError`; a panic fails the
//! test by construction. Every strict prefix of a frame must be refused.

use privacy_mde::distrib::wire::{
    decode_checkpoint, encode_checkpoint, encode_checkpoint_at, Message, CHECKPOINT_VERSION_V2,
    MESSAGE_VERSION_V1,
};
use privacy_mde::ingest::Format;
use privacy_mde::interchange::binary::{CodecError, Encoder};
use privacy_mde::lts::ActionKind;
use privacy_mde::model::{
    Consent, DatastoreId, FieldId, RiskLevel, Sensitivity, SensitivityProfile, ServiceId, UserId,
    UserProfile,
};
use privacy_mde::pipeline::PipelineCheckpoint;
use privacy_mde::runtime::{Alert, Event};
use proptest::prelude::*;

/// Frame bytes before the payload: magic, kind, version, payload length.
const HEADER_LEN: usize = 20;
/// The trailing checksum.
const CHECKSUM_LEN: usize = 8;

/// The decoder a corpus frame belongs to.
#[derive(Debug, Clone, Copy)]
enum Target {
    Message,
    WorkerCheckpoint,
    PipelineCheckpoint,
}

impl Target {
    fn decode(self, bytes: &[u8]) -> Result<(), CodecError> {
        match self {
            Target::Message => Message::decode(bytes).map(drop),
            Target::WorkerCheckpoint => decode_checkpoint(bytes).map(drop),
            Target::PipelineCheckpoint => PipelineCheckpoint::from_bytes(bytes).map(drop),
        }
    }
}

fn event(sequence: u64) -> Event {
    Event::new(
        sequence,
        format!("user-{sequence}"),
        "MedicalService",
        "Doctor",
        ActionKind::ALL[sequence as usize % ActionKind::ALL.len()],
        [FieldId::new("Diagnosis"), FieldId::new("Name")],
        sequence.is_multiple_of(2).then(|| DatastoreId::new("EHR")),
        !sequence.is_multiple_of(3),
    )
}

fn alert(sequence: u64) -> Alert {
    Alert::from_parts(
        sequence,
        UserId::new("alice"),
        RiskLevel::Medium,
        format!("risk #{sequence}"),
    )
}

fn profile() -> UserProfile {
    let mut sensitivities = SensitivityProfile::with_default(Sensitivity::clamped(0.25));
    sensitivities.set(FieldId::new("Diagnosis"), Sensitivity::clamped(0.9));
    UserProfile::new("alice")
        .with_consent(Consent::to([ServiceId::new("MedicalService"), ServiceId::new("Lab")]))
        .with_sensitivities(sensitivities)
}

/// One valid frame of every message kind, both protocol versions, both
/// worker-checkpoint versions and both pipeline-checkpoint shapes.
fn corpus() -> Vec<(Target, Vec<u8>)> {
    let messages = [
        Message::Init {
            worker_index: 3,
            owned_shards: vec![0, 5, 31],
            model_psm: "system \"Demo\"\n".to_owned(),
            fingerprint: 0xDEAD_BEEF,
            checkpoint_path: Some("worker-3.ckpt".to_owned()),
            resume: Some(vec![1, 2, 3, 4]),
            resume_through_batch: 17,
            resume_imports: 2,
        },
        Message::Register { profile: profile() },
        Message::Ingest { batch: 9, events: (0..3).map(|i| (i as u32, event(100 + i))).collect() },
        Message::IngestBatch {
            acked_through: 7,
            parts: vec![(8, vec![(0, event(200)), (1, event(201))]), (9, Vec::new())],
        },
        Message::Checkpoint,
        Message::ExportShards { shards: vec![7, 8] },
        Message::ImportShards { snapshot: vec![9; 16] },
        Message::Shutdown,
        Message::Ready { fingerprint: 42, resumed_users: 7 },
        Message::Ack { batch: 9, alerts: (0..2).map(|i| (i as u32, alert(i))).collect() },
        Message::AckThrough { through: 10, alerts: vec![(8, 0, alert(3))] },
        Message::CheckpointDone { through_batch: 9, imports: 1 },
        Message::ShardExport { snapshot: vec![1; 10] },
        Message::Imported { users: 4 },
        Message::Fatal { code: 11, message: "fingerprint mismatch".to_owned() },
    ];
    let mut corpus: Vec<(Target, Vec<u8>)> =
        messages.iter().map(|message| (Target::Message, message.encode())).collect();
    for message in [
        Message::Register { profile: profile() },
        Message::Ingest { batch: 3, events: vec![(0, event(7))] },
    ] {
        corpus.push((Target::Message, message.encode_at(MESSAGE_VERSION_V1)));
    }
    corpus.push((Target::WorkerCheckpoint, encode_checkpoint(4, 99, 3, &[7; 24])));
    corpus.push((
        Target::WorkerCheckpoint,
        encode_checkpoint_at(CHECKPOINT_VERSION_V2, 2, 17, 5, &[9; 8]),
    ));
    for (format, snapshot) in [(Some(Format::Logfmt), vec![1, 2, 3, 4]), (None, Vec::new())] {
        let checkpoint = PipelineCheckpoint {
            offset: 8_192,
            lines: 120,
            next_sequence: 97,
            events: 96,
            skipped: 3,
            format,
            snapshot,
        };
        corpus.push((Target::PipelineCheckpoint, checkpoint.to_bytes()));
    }
    corpus
}

/// Seals `payload` behind a valid envelope carrying `frame`'s kind and
/// version, so the corruption reaches the payload decoder.
fn reseal(frame: &[u8], payload: &[u8]) -> Vec<u8> {
    let kind: [u8; 4] = frame[4..8].try_into().expect("4 bytes");
    let version = u32::from_le_bytes(frame[8..12].try_into().expect("4 bytes"));
    let mut encoder = Encoder::new(kind, version);
    encoder.raw(payload);
    encoder.finish()
}

fn payload(frame: &[u8]) -> &[u8] {
    &frame[HEADER_LEN..frame.len() - CHECKSUM_LEN]
}

#[test]
fn the_corpus_decodes_and_reseals_to_itself() {
    for (target, frame) in corpus() {
        assert!(target.decode(&frame).is_ok(), "{target:?} corpus frame must decode");
        assert_eq!(reseal(&frame, payload(&frame)), frame);
    }
}

#[test]
fn every_truncation_and_bit_flip_is_a_typed_error() {
    for (target, frame) in corpus() {
        for cut in 0..frame.len() {
            assert!(target.decode(&frame[..cut]).is_err(), "{target:?}: prefix {cut} decoded");
        }
        for at in 0..frame.len() {
            for bit in 0..8 {
                let mut flipped = frame.clone();
                flipped[at] ^= 1 << bit;
                assert!(
                    target.decode(&flipped).is_err(),
                    "{target:?}: flipping bit {bit} of byte {at} went undetected"
                );
            }
        }
    }
}

#[test]
fn every_resealed_payload_mutation_is_ok_or_a_typed_error() {
    for (target, frame) in corpus() {
        let payload = payload(&frame);
        for cut in 0..payload.len() {
            let _ = target.decode(&reseal(&frame, &payload[..cut]));
        }
        for at in 0..payload.len() {
            for value in [0x00, 0x01, 0x7F, 0x80, 0xFF, payload[at] ^ 0x20] {
                let mut mutated = payload.to_vec();
                mutated[at] = value;
                let _ = target.decode(&reseal(&frame, &mutated));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random single-byte replacements and truncations, sealed and
    /// resealed, over the whole corpus.
    #[test]
    fn mutated_frames_never_panic(
        pick in 0usize..1 << 16,
        at in 0usize..1 << 20,
        value in 0u32..256,
        cut in 0usize..1 << 20,
    ) {
        let corpus = corpus();
        let (target, frame) = &corpus[pick % corpus.len()];
        prop_assert!(target.decode(&frame[..cut % frame.len()]).is_err());

        let mut mutated = frame.clone();
        mutated[at % frame.len()] = value as u8;
        let _ = target.decode(&mutated);

        let payload = payload(frame);
        if !payload.is_empty() {
            let mut mutated = payload.to_vec();
            mutated[at % payload.len()] = value as u8;
            let _ = target.decode(&reseal(frame, &mutated));
            let _ = target.decode(&reseal(frame, &mutated[..cut % payload.len()]));
        }
    }
}
