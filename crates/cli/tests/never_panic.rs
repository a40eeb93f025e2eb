//! Never-panic property: whatever argument list the binary is handed,
//! `Command::parse` answers `Ok` or `Err`.

use lsrp_cli::args::Command;
use proptest::fuzz;
use proptest::prelude::*;

/// Everything the parser matches on, plus values at and past its range
/// checks; the first ten are subcommands.
const WORDS: &str = "run chaos traffic compare scenario check expand viz help figure \
    --topology -t --dest -d --protocol -p --fault -f --seed -s --timeline --runs -n --jobs -j \
    --destinations -D --horizon --workload -w --flows --duration --exact --link-rate \
    --queue-cap --discipline --cc --trace-out --regions -o --output -- - \
    grid:4x4 grid:0x0 grid:99999999999x9 fig1 ring:5 path:1 fattree:4 waxman:50:0.4:0.2 \
    ba:20:2 ba:2:9 er:9:1.5 geo:9:nan lollipop:3:4 cliques:0:0 x.toml t.jsonl out.html \
    lsrp dbf dual pv corrupt:9:1 corrupt:9:inf corrupt:: fail-node:5 fail-edge:1:2 \
    join-edge:1:2:3 weight:1:2:0 loop all-pairs poisson hotspot drop-tail ecn:5 pfc:5:2 aimd \
    fixed:8 0 1 7 -1 1e309 nan inf -0.0 18446744073709551616 4294967296 0.5";

#[test]
fn arbitrary_arguments_never_panic_the_parser() {
    let words: Vec<&str> = WORDS.split_whitespace().collect();
    let (mut accepted, mut rejected) = (0, 0);
    for case in 0..20_000u64 {
        let mut rng = TestRng::deterministic(case);
        let word = |rng: &mut TestRng| {
            let word = words[(0..words.len()).sample(rng)];
            let bytes = match (0..4u8).sample(rng) {
                0 => fuzz::mutate(word.as_bytes(), rng, b":x-.0123456789"),
                _ => word.as_bytes().to_vec(),
            };
            String::from_utf8_lossy(&bytes).into_owned()
        };
        // A known subcommand first, usually: the flag loop is behind it.
        let mut args = vec![words[(0..10usize).sample(&mut rng)].to_string()];
        if (0..8u8).sample(&mut rng) == 0 {
            args.clear();
        }
        let extra = (0..7usize).sample(&mut rng);
        args.extend((0..extra).map(|_| word(&mut rng)));
        match Command::parse(args) {
            Ok(_) => accepted += 1,
            Err(_) => rejected += 1,
        }
    }
    assert!(
        accepted >= 1_000 && rejected >= 5_000,
        "{accepted} / {rejected}"
    );
}
