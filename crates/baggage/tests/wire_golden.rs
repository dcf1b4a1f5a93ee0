//! Wire golden for baggage: `(len, fnv1a)` of `to_bytes()` after every
//! step of two scripted pack / split / join / serialize / decode sequences
//! (`support/scripts.rs`).
//!
//! A retired instance's id is minted where it retires, from the thread's
//! location (DESIGN.md §5l), so its bytes differ from run to run while its
//! length does not. Before hashing, each id is replaced by the order in
//! which the script first sent it: the tables pin every other byte, every
//! length, and which instances share an id. They were generated when the
//! wire went to version 2; a legitimate wire change has to bump the
//! version byte and regenerate them (the failure message prints the new
//! table).

use pivot_baggage::Baggage;
use pivot_itc::Decoder;

#[path = "support/scripts.rs"]
mod scripts;

/// Bytes of one id on the wire.
const ID_LEN: usize = 12;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[derive(Default)]
struct Steps {
    steps: Vec<(usize, u64)>,
    /// Every id sent so far, in the order first sent.
    ids: Vec<Vec<u8>>,
}

impl Steps {
    /// Records the bag's encoding, its ids renumbered, and returns it as
    /// a transport would send it.
    fn wire(&mut self, bag: &mut Baggage) -> std::sync::Arc<[u8]> {
        let bytes = bag.to_bytes();
        let mut canonical = bytes.to_vec();
        if !bytes.is_empty() {
            let mut dec = Decoder::new(&bytes[1..]);
            let count = dec.take_varint().expect("own bytes") as usize;
            let at = bytes.len() - dec.remaining();
            for slot in canonical[at..at + count * ID_LEN].chunks_mut(ID_LEN) {
                let order = match self.ids.iter().position(|id| id[..] == *slot) {
                    Some(order) => order,
                    None => {
                        self.ids.push(slot.to_vec());
                        self.ids.len() - 1
                    }
                };
                slot.fill(0);
                slot[..8].copy_from_slice(&(order as u64).to_le_bytes());
            }
        }
        self.steps.push((canonical.len(), fnv1a(&canonical)));
        bytes
    }
}

#[test]
fn request_path_bytes_match_the_golden() {
    let mut steps = Steps::default();
    scripts::request_path(&mut |bag| steps.wire(bag));
    assert_eq!(steps.steps, REQUEST_PATH, "request-path wire bytes changed");
}

#[test]
fn fan_out_bytes_match_the_golden() {
    let mut steps = Steps::default();
    scripts::fan_out(&mut |bag| steps.wire(bag));
    let folded: Vec<(usize, u64)> = steps
        .steps
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
    (16, 0x96048c02863ca8c0),
    (32, 0x46f302f380f84cb3),
    (32, 0x46f302f380f84cb3),
    (47, 0xa217601adc94e7a6),
    (60, 0xf6d7362a1fe6f31b),
    (60, 0xf6d7362a1fe6f31b),
    (60, 0xf6d7362a1fe6f31b),
    (84, 0xdccbf0b86b618969),
    (97, 0xb8dae3966e1706c7),
    (97, 0xb8dae3966e1706c7),
    (97, 0xb8dae3966e1706c7),
    (101, 0x3383de4a0511ea8b),
    (126, 0x66d25d3c6f1e0c1f),
    (126, 0x66d25d3c6f1e0c1f),
    (141, 0x2094c2fbbd312ab0),
    (100, 0x60179df8b5f2b0d1),
];

/// `(total len, folded hash)` per 16 consecutive steps.
const FAN_OUT: [(usize, u64); 10] = [
    (673, 0x055ac00b7f17d0ce),
    (953, 0xe6ab2d5e0e9edf44),
    (1233, 0x20af069695f37e44),
    (1513, 0x8263dbc3c2cfcca4),
    (1793, 0x52a5f4a8ad1c9875),
    (2073, 0xede797071c4919fd),
    (2353, 0x4fbd39582c4803d7),
    (2646, 0x8e7e4f138bbb049e),
    (2947, 0x0ebd918106bc84c4),
    (950, 0x73d6ba38f90bfeef),
];
