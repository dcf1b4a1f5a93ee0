//! Wire golden for baggage: `(len, fnv1a)` of `to_bytes()` after every
//! step of two scripted pack / split / join / serialize / decode sequences
//! (`support/scripts.rs`).
//!
//! The tables were generated on commit ee30e75 — the recursive `Box`-tree
//! ITC kernel and the deep-cloning `split` / `join` — and pin that moving
//! stamps into inline buffers and sharing retired instances changed no
//! byte any peer sees. A legitimate wire change has to bump the version
//! byte and regenerate them (the failure message prints the new table).

use pivot_baggage::Baggage;

#[path = "support/scripts.rs"]
mod scripts;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[derive(Default)]
struct Steps(Vec<(usize, u64)>);

impl Steps {
    /// Records the bag's encoding and returns it, as a transport would
    /// send it.
    fn wire(&mut self, bag: &mut Baggage) -> std::sync::Arc<[u8]> {
        let bytes = bag.to_bytes();
        self.0.push((bytes.len(), fnv1a(&bytes)));
        bytes
    }
}

#[test]
fn request_path_bytes_match_the_golden() {
    let mut steps = Steps::default();
    scripts::request_path(&mut |bag| steps.wire(bag));
    assert_eq!(steps.0, REQUEST_PATH, "request-path wire bytes changed");
}

#[test]
fn fan_out_bytes_match_the_golden() {
    let mut steps = Steps::default();
    scripts::fan_out(&mut |bag| steps.wire(bag));
    let folded: Vec<(usize, u64)> = steps
        .0
        .chunks(16)
        .map(|c| {
            c.iter()
                .fold((0, 0xcbf2_9ce4_8422_2325), |(len, h), (l, x)| {
                    (len + l, (h ^ x).wrapping_mul(0x0000_0100_0000_01b3))
                })
        })
        .collect();
    assert_eq!(folded, FAN_OUT, "fan-out wire bytes changed");
}

const REQUEST_PATH: [(usize, u64); 17] = [
    (0, 0xcbf29ce484222325),
    (19, 0x76ecd783bae3e7e9),
    (35, 0x024c5a0268d979ea),
    (35, 0x024c5a0268d979ea),
    (50, 0x187cba59542847c1),
    (60, 0x7711cff2ff778c72),
    (60, 0x8ea3b454ccaff48c),
    (58, 0x8e312804fbb0513a),
    (82, 0x1278c11d2ec453bc),
    (88, 0x2c7dab9c95f26c36),
    (92, 0xf8c27ec144753ef8),
    (90, 0x826ebd8b912c863c),
    (94, 0xf94c467c586a5518),
    (119, 0x05d40e1eb79b820a),
    (119, 0x05d40e1eb79b820a),
    (134, 0xd0a6cab861f606c7),
    (93, 0x6dc7f028de790a4a),
];

/// `(total len, folded hash)` per 16 consecutive steps.
const FAN_OUT: [(usize, u64); 10] = [
    (884, 0x2958b8e2d104f6e7),
    (2130, 0x15d349d131c55370),
    (3760, 0xf0b3e2a92ae805e7),
    (5774, 0xa4368973b72ee182),
    (8166, 0x7f96a602b182b9ea),
    (10948, 0xc67e5e8143d49fd7),
    (14114, 0x9ad2b461bda5f466),
    (17896, 0xd7d06895a7fa4596),
    (22160, 0xfcaf732a80492164),
    (5736, 0x7e7ef0be28eee0b8),
];
