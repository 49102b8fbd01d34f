//! Hostile bytes for the graph loaders: valid `.lg` and SNAP edge-list text,
//! mutated by byte flips, inserted bytes, truncations, duplicated lines and
//! huge tokens. Whatever the bytes, `read_lg` / `read_edge_list` must not
//! panic, every `Parse { line }` error must name a line the input has, and
//! every graph they accept must survive `write_lg` → `read_lg` unchanged.
//! On failure the testkit harness shrinks the bytes and prints a seeded
//! reproduce line.

use std::panic::{catch_unwind, AssertUnwindSafe};

use stmatch_graph::io::{read_edge_list, read_lg, write_lg, IoError};
use stmatch_graph::{gen, Graph};
use stmatch_testkit::prop::forall;
use stmatch_testkit::rng::{Rng, SmallRng};

/// Bytes an insertion draws from: record syntax, digits, separators and
/// bytes that are never valid UTF-8 on their own.
const ALPHABET: &[u8] = b"ve t#%0123456789 \t\r\n-+x\xff\xc3\x80";

/// Tokens long or large enough to overflow whatever parses them.
const HUGE: [&str; 5] = [
    "4294967295",
    "4294967296",
    "18446744073709551616",
    "99999999999999999999999999999999999999999999999999999999999999",
    "vvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvv",
];

/// A valid file of either format over a small random graph.
fn valid_text(rng: &mut SmallRng, lg: bool) -> Vec<u8> {
    let n = rng.gen_range(2usize..24);
    let m = rng.gen_range(0..=n * (n - 1) / 2);
    let g = gen::erdos_renyi(n, m, rng.gen());
    if lg {
        let g = gen::assign_random_labels(&g, rng.gen_range(1u32..5), rng.gen());
        let mut out = Vec::new();
        write_lg(&g, &mut out).unwrap();
        out
    } else {
        let mut text = String::from("# snap header\n");
        for (u, v) in g.edges() {
            text.push_str(&format!("{u}\t{v}\n"));
        }
        text.into_bytes()
    }
}

/// Applies one to six random mutations to `bytes`.
fn mutate(rng: &mut SmallRng, bytes: &mut Vec<u8>) {
    for _ in 0..rng.gen_range(1u32..=6) {
        let at = rng.gen_range(0..=bytes.len());
        match rng.gen_range(0u32..5) {
            // Flip one bit of one byte.
            0 if !bytes.is_empty() => {
                let i = at.min(bytes.len() - 1);
                bytes[i] ^= 1 << rng.gen_range(0u32..8);
            }
            // Insert a short run from the alphabet.
            1 => {
                let run: Vec<u8> = (0..rng.gen_range(1usize..5))
                    .map(|_| *rng.choose(ALPHABET).unwrap())
                    .collect();
                bytes.splice(at..at, run);
            }
            // Truncate.
            2 => bytes.truncate(at),
            // Duplicate the line that holds `at`.
            3 => {
                let start = bytes[..at]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |i| i + 1);
                let end = bytes[at..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |i| at + i + 1);
                let line = bytes[start..end].to_vec();
                bytes.splice(start..start, line);
            }
            // Insert a huge token.
            _ => {
                let token = rng.choose(&HUGE).unwrap().as_bytes().to_vec();
                bytes.splice(at..at, token);
            }
        }
    }
}

/// How many lines `bytes` has: one per terminator, plus an unterminated
/// last one.
fn line_count(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count() + usize::from(!bytes.ends_with(b"\n"))
}

#[test]
fn hostile_bytes_fail_by_line_and_accepted_graphs_round_trip() {
    forall(
        "loaders_survive_hostile_bytes",
        |rng| {
            let lg = rng.gen::<bool>();
            let mut bytes = valid_text(rng, lg);
            mutate(rng, &mut bytes);
            (lg, bytes)
        },
        |(lg, bytes)| {
            let read = |bytes: &[u8]| -> Result<Result<Graph, IoError>, String> {
                catch_unwind(AssertUnwindSafe(|| {
                    if *lg {
                        read_lg(bytes)
                    } else {
                        read_edge_list(bytes)
                    }
                }))
                .map_err(|_| "the loader panicked".to_string())
            };
            match read(bytes)? {
                Err(IoError::Parse { line, message }) => {
                    let lines = line_count(bytes);
                    if !(1..=lines).contains(&line) {
                        return Err(format!("parse error at line {line} of {lines}: {message}"));
                    }
                }
                Err(IoError::Io(e)) => return Err(format!("an in-memory read failed: {e}")),
                Ok(g) => {
                    let mut out = Vec::new();
                    write_lg(&g, &mut out).map_err(|e| e.to_string())?;
                    match read_lg(&out[..]) {
                        Ok(back) if back == g => {}
                        Ok(_) => return Err("write_lg → read_lg changed the graph".into()),
                        Err(e) => return Err(format!("write_lg → read_lg failed: {e}")),
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn unmutated_files_load() {
    let mut rng = SmallRng::seed_from_u64(7);
    for lg in [false, true] {
        let bytes = valid_text(&mut rng, lg);
        let g = if lg {
            read_lg(&bytes[..])
        } else {
            read_edge_list(&bytes[..])
        };
        assert!(g.is_ok(), "lg {lg}: {g:?}");
    }
}
