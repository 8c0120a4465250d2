//! Seeded inputs: corpora from `qual_cgen` and the single-function edit
//! script applied to them. Everything here is a pure function of the
//! seed, so one seed always yields byte-identical inputs.

use qual_cgen::{generate, huge_profile};

/// The generated C corpus of `lines` lines for `seed`: the uucp
/// composition of `huge_profile()`, scaled, with the benchmark's seed.
pub fn corpus(lines: usize, seed: u64) -> String {
    let profile = huge_profile().scaled(lines);
    generate(&qual_cgen::Profile { seed, ..profile })
}

/// SplitMix64 over `(seed, stream, index)`: independent, reproducible
/// draws for each use of the seed without an RNG object to thread
/// through.
pub fn draw(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xA076_1D64_78BD_642F))
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const EDIT_STREAM: u64 = 1;

/// One generated function's header: its name and the byte offset just
/// past the header line (where the body's first statement starts).
struct FnStart<'a> {
    name: &'a str,
    body: usize,
}

/// Every function `qual_cgen` emitted from its categorized generator —
/// a one-line header `int|void NAME_<n>(...) {` — in source order. The
/// fixed helpers (`skip_ws`, `scan_a`, `main`, ...) carry no numeric
/// suffix and are left alone.
fn generated_functions(src: &str) -> Vec<FnStart<'_>> {
    let mut out = Vec::new();
    let mut offset = 0;
    for line in src.split_inclusive('\n') {
        offset += line.len();
        let head = line.trim_end();
        let Some(rest) = head
            .strip_prefix("int ")
            .or_else(|| head.strip_prefix("void "))
        else {
            continue;
        };
        if !head.ends_with(") {") {
            continue;
        }
        let Some(name) = rest.split('(').next() else {
            continue;
        };
        let numbered = name.rsplit_once('_').is_some_and(|(stem, n)| {
            !stem.is_empty() && !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit())
        });
        if numbered {
            out.push(FnStart { name, body: offset });
        }
    }
    out
}

/// Applies edit number `index` of the seed's edit script: one statement
/// `g_count += k;` inserted after the opening brace of one seeded-random
/// generated function. Returns the edited source and the function's
/// name. Edits compose: edit `i + 1` applies to the output of edit `i`.
pub fn apply_edit(src: &str, seed: u64, index: u64) -> (String, String) {
    let fns = generated_functions(src);
    assert!(!fns.is_empty(), "corpus has no generated functions to edit");
    let r = draw(seed, EDIT_STREAM, index);
    let target = &fns[(r % fns.len() as u64) as usize];
    let k = 1 + (r >> 32) % 97;
    let mut out = String::with_capacity(src.len() + 24);
    out.push_str(&src[..target.body]);
    out.push_str(&format!("  g_count += {k};\n"));
    out.push_str(&src[target.body..]);
    (out, target.name.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qual_cfront::pretty::render_item_text;

    fn item_texts(src: &str) -> Vec<String> {
        let prog = qual_cfront::parse(src).expect("generated corpus parses");
        prog.items.iter().map(render_item_text).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for seed in [1, 42] {
            let a = corpus(3000, seed);
            let b = corpus(3000, seed);
            assert_eq!(a, b);
            let (mut ea, mut eb) = (a.clone(), b);
            for i in 0..20 {
                ea = apply_edit(&ea, seed, i).0;
                eb = apply_edit(&eb, seed, i).0;
                assert_eq!(ea, eb);
            }
        }
        assert_ne!(corpus(3000, 1), corpus(3000, 2));
    }

    #[test]
    fn each_edit_changes_exactly_one_function() {
        let seed = 7;
        let mut src = corpus(3000, seed);
        for i in 0..20 {
            let (next, name) = apply_edit(&src, seed, i);
            let before = item_texts(&src);
            let after = item_texts(&next);
            assert_eq!(before.len(), after.len());
            let changed: Vec<usize> = (0..before.len())
                .filter(|&j| before[j] != after[j])
                .collect();
            assert_eq!(changed.len(), 1, "edit {i} changed {changed:?}");
            let prog = qual_cfront::parse(&next).expect("edited corpus parses");
            let fn_name = match &prog.items[changed[0]] {
                qual_cfront::Item::Func(f) => f.name.clone(),
                other => panic!("edit {i} changed a non-function item: {other:?}"),
            };
            assert_eq!(fn_name, name);
            src = next;
        }
    }
}
