//! Seeded inputs. Every edit, serve request and schedule seed is a pure
//! function of the workload seed and an index, so two runs with the same
//! seed send the program the same inputs however far each one gets in its
//! time budget.

use fearless_syntax::parse_program;

/// Stream tags keep the draws of different plans independent.
const EDIT_STREAM: u64 = 1;
const SERVE_STREAM: u64 = 2;
const SCHEDULE_STREAM: u64 = 3;
const ORDER_STREAM: u64 = 4;

/// SplitMix64 finalizer.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The `index`-th draw of `stream` under `seed`.
pub fn draw(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix(splitmix(seed ^ splitmix(stream)) ^ index)
}

/// The synth options every workload derives its programs from. The
/// programs are fixed (synth seed 42, the reference program of the
/// project's performance figures) so that run-to-run differences come
/// from the edits and schedules the workload seed picks, not from
/// programs of different sizes.
pub fn synth_options(functions: usize) -> fearless_synth::SynthOptions {
    fearless_synth::SynthOptions {
        seed: 42,
        functions,
        ..fearless_synth::SynthOptions::default()
    }
}

/// The serve-bench-sized body: the motif prelude plus a few generated
/// functions, with the options `fearlessc serve-bench` uses.
pub fn serve_base() -> String {
    fearless_synth::synthesize(&fearless_synth::SynthOptions {
        seed: 42,
        functions: 3,
        boxes: 1,
        max_ops: 4,
        window: 8,
    })
}

/// One single-literal edit of a base program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Edit {
    /// Index into [`Editable::sites`].
    pub site: usize,
    /// Index into the site's literal ranges.
    pub literal: usize,
    /// The replacement value (never the literal's current value).
    pub value: u64,
}

/// A base program prepared for single-literal edits. Changing an integer
/// literal moves the function's fingerprint but never its signature, so
/// each edit re-derives exactly one function.
#[derive(Clone, Debug)]
pub struct Editable {
    /// The base source text.
    pub base: String,
    /// Per function with at least one integer literal in its body, the
    /// byte ranges of those literals.
    pub sites: Vec<Vec<(usize, usize)>>,
}

impl Editable {
    /// Parses `base` and indexes its literals.
    pub fn new(base: String) -> Result<Editable, String> {
        let program = parse_program(&base).map_err(|e| e.render(&base))?;
        let bytes = base.as_bytes();
        let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
        let mut sites = Vec::new();
        for f in &program.funcs {
            let (lo, hi) = (f.span.lo as usize, (f.span.hi as usize).min(bytes.len()));
            // The body starts at the first brace; literals before it would
            // sit in the signature.
            let Some(open) = base[lo..hi].find('{') else {
                continue;
            };
            let mut literals = Vec::new();
            let mut i = lo + open;
            while i < hi {
                if bytes[i].is_ascii_digit() && !ident(bytes[i - 1]) {
                    let start = i;
                    while i < hi && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    if i >= bytes.len() || !ident(bytes[i]) {
                        literals.push((start, i));
                    }
                } else {
                    i += 1;
                }
            }
            if !literals.is_empty() {
                sites.push(literals);
            }
        }
        if sites.is_empty() {
            return Err("base program has no integer literals to edit".into());
        }
        Ok(Editable { base, sites })
    }

    /// Picks a site and literal from `r`, giving it `value` (bumped by one
    /// if that is the literal's current value).
    pub fn pick(&self, r: u64, value: u64) -> Edit {
        let site = (r % self.sites.len() as u64) as usize;
        let lits = &self.sites[site];
        let literal = ((r >> 20) % lits.len() as u64) as usize;
        let (lo, hi) = lits[literal];
        let current: u64 = self.base[lo..hi].parse().unwrap_or(u64::MAX);
        let value = if value == current { value + 1 } else { value };
        Edit {
            site,
            literal,
            value,
        }
    }

    /// The base text with `edit` applied.
    pub fn apply(&self, edit: &Edit) -> String {
        let (lo, hi) = self.sites[edit.site][edit.literal];
        let mut out = String::with_capacity(self.base.len() + 8);
        out.push_str(&self.base[..lo]);
        out.push_str(&edit.value.to_string());
        out.push_str(&self.base[hi..]);
        out
    }
}

/// The `step`-th edit of the edit loop.
pub fn edit_step(ed: &Editable, seed: u64, step: u64) -> Edit {
    let r = draw(seed, EDIT_STREAM, step);
    ed.pick(r, 1 + (r >> 40) % 997)
}

/// Work kinds of the serve mix.
pub const SERVE_KINDS: [&str; 3] = ["check", "flow", "lint"];

/// One planned serve request: its kind and the index of the request that
/// first sent this body (itself, unless it repeats an earlier one).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeRequest {
    /// Index into [`SERVE_KINDS`].
    pub kind: usize,
    /// The request whose body (and kind) this one sends.
    pub origin: u64,
}

/// Request `g` of the serve mix. One request in four repeats an earlier
/// request exactly; the rest are fresh single-literal edits whose kinds
/// run check:flow:lint = 3:1:1.
pub fn serve_request(seed: u64, mut g: u64) -> ServeRequest {
    loop {
        let r = draw(seed, SERVE_STREAM, g);
        if g > 0 && r.is_multiple_of(4) {
            g = (r >> 8) % g;
            continue;
        }
        let kind = match (r >> 2) % 5 {
            0..=2 => 0,
            3 => 1,
            _ => 2,
        };
        return ServeRequest { kind, origin: g };
    }
}

/// The body edit of a fresh serve request. Values start above the
/// literals the synthesizer writes, so fresh bodies differ from the base
/// and from each other.
pub fn serve_edit(ed: &Editable, seed: u64, origin: u64) -> Edit {
    let r = draw(seed, SERVE_STREAM ^ 0xff, origin);
    ed.pick(r, 2000 + origin)
}

/// The schedule seed of one machine run in a sanitized sweep.
pub fn schedule_seed(seed: u64, sweep: u64, scenario: u64) -> u64 {
    draw(seed, SCHEDULE_STREAM, sweep * 64 + scenario)
}

/// A seeded permutation of `0..n` for round `round`.
pub fn order(seed: u64, round: u64, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (draw(seed, ORDER_STREAM, round * 64 + i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}
