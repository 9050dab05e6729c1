//! # fearless-synth — seeded corpus synthesizer
//!
//! Deterministically generates large well-typed tempered-domination
//! programs: a motif *prelude* (the corpus SLL/DLL/red-black-tree
//! libraries plus the message-passing pipeline and worklist functions)
//! followed by `--functions K` generated definitions that call into the
//! prelude and into each other over a seeded random call graph.
//!
//! The generator is **well-typed by construction**: every generated
//! body is assembled from statement templates that are each proven
//! against the tempered checker (non-consuming traversals, `consumes`
//! hand-offs of freshly built values, `after: l.hd ~ result` tracking
//! wrappers, `iso`-field box structs, rendezvous `send`/`recv` pairs).
//! A proptest (`tests/synth_props.rs`) holds the generator to that
//! contract across random seeds.
//!
//! ## Determinism contract
//!
//! `synthesize` is a pure function of [`SynthOptions`]: the same
//! `(seed, functions, boxes, max_ops, window)` tuple produces
//! byte-identical source on every run, every platform. The generator
//! draws exclusively from a seeded [`rand::rngs::StdRng`] and keeps its
//! candidate pools in `Vec`s (no hash-order dependence). CI re-runs the
//! same seed twice and byte-compares the outputs.
//!
//! ## Size knobs
//!
//! - `functions`: number of generated `def`s, on top of the ~60-function
//!   motif prelude. `fearlessc synth --functions 1000` yields a
//!   1000+-function program.
//! - `boxes`: caps the generated `syn_box*` struct families (each adds
//!   an `iso`-field struct plus 2–3 accessor functions).
//! - `max_ops`: caps statements per generated body (bigger bodies, more
//!   derivation work per function).
//! - `window`: callee-sampling locality. Generated functions call other
//!   generated functions at most `window` definitions back, so smaller
//!   windows produce deeper call-graph chains.
//!
//! See `docs/CORPUS.md` for the full grammar/motif spec and how the
//! synthesized corpus feeds the check, chaos, fuzz, and lint layers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Size and shape knobs for the synthesizer.
///
/// The output is a pure function of this struct: identical options
/// produce byte-identical source (see the crate docs for the
/// determinism contract).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthOptions {
    /// RNG seed. Same seed (and same other knobs) ⇒ same program.
    pub seed: u64,
    /// Number of generated `def`s (the motif prelude adds its own).
    pub functions: usize,
    /// Maximum number of generated `syn_box*` struct families.
    pub boxes: usize,
    /// Maximum statements per generated function body (≥ 1).
    pub max_ops: usize,
    /// Callee-sampling locality window (≥ 1): calls reach at most this
    /// many generated definitions back, so smaller windows make deeper
    /// call-graph chains.
    pub window: usize,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions {
            seed: 0,
            functions: 200,
            boxes: 8,
            max_ops: 4,
            window: 48,
        }
    }
}

/// The motif prelude every synthesized program starts with: corpus
/// structs, the packet struct, the red-black-tree structs (via
/// [`fearless_corpus::rbt::RBT_TREE_STRUCTS`], so `struct data` is not
/// duplicated), and the SLL/DLL/RBT/pipeline/worklist function
/// libraries.
pub fn prelude() -> String {
    format!(
        "{structs}{packet}{rbt_structs}{sll}{dll}{rbt}{pipeline}{worklist}",
        structs = fearless_corpus::STRUCTS,
        packet = fearless_corpus::msg::PACKET_STRUCT,
        rbt_structs = fearless_corpus::rbt::RBT_TREE_STRUCTS,
        sll = fearless_corpus::sll::SLL_FUNCS,
        dll = fearless_corpus::dll::DLL_FUNCS,
        rbt = fearless_corpus::rbt::RBT_FUNCS,
        pipeline = fearless_corpus::msg::PIPELINE,
        worklist = fearless_corpus::msg::WORKLIST,
    )
}

/// Synthesize a well-typed program as source text.
pub fn synthesize(opts: &SynthOptions) -> String {
    let mut out = String::with_capacity(64 * 1024 + opts.functions * 256);
    out.push_str(&format!(
        "// fearless-synth seed={} functions={} boxes={} max_ops={} window={}\n\
         // Deterministic: identical options produce byte-identical source.\n",
        opts.seed, opts.functions, opts.boxes, opts.max_ops, opts.window
    ));
    out.push_str(&prelude());
    out.push_str("\n// ---- generated definitions ----\n");
    Gen::new(opts).run(&mut out);
    out
}

/// Synthesize and parse. Panics if the generator ever emits something
/// the parser rejects — that is a generator bug, and the proptests
/// exist to keep it impossible.
pub fn synthesize_program(opts: &SynthOptions) -> fearless_syntax::ast::Program {
    let src = synthesize(opts);
    fearless_syntax::parse_program(&src).unwrap_or_else(|e| {
        panic!(
            "fearless-synth generated an unparseable program (seed {}): {e}",
            opts.seed
        )
    })
}

/// What a generated definition is shaped like. Weights in
/// [`Gen::pick_kind`] control the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `(int, int) -> int` arithmetic with calls into earlier int fns.
    Int,
    /// Non-consuming `(sll, int) -> int` list operation.
    SllOp,
    /// `(int) -> sll` list builder.
    SllBuild,
    /// `(sll, int) -> int consumes l` — consumes its list.
    SllConsume,
    /// Non-consuming `(dll, int) -> int` circular-list operation.
    DllOp,
    /// `(int) -> dll` builder.
    DllBuild,
    /// Non-consuming `(rbt, int) -> int` tree operation.
    RbtOp,
    /// `(int) -> rbt` builder.
    RbtBuild,
    /// Local worklist drain (build a queue, pop it dry).
    Queue,
    /// Rendezvous sender: `(int) -> unit` with `send(new data(..))`.
    PipeSrc,
    /// Rendezvous receiver: `(int) -> int` with `recv(data)`.
    PipeSnk,
    /// `(dll, int) -> dll_node? after: l.hd ~ result` tracking wrapper.
    AfterWrap,
    /// A `syn_box*` struct family: iso-field struct + accessors.
    BoxFamily,
}

/// What a generated box struct stores in its `iso item` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BoxItem {
    Data,
    Sll,
    Rbt,
}

#[derive(Debug, Clone)]
struct BoxInfo {
    id: usize,
    linked: bool,
}

struct Gen {
    rng: StdRng,
    functions: usize,
    max_boxes: usize,
    max_ops: usize,
    window: usize,
    /// Total generated defs so far (sf* and syn_* alike).
    emitted: usize,
    /// Counter for `sf{n}` names.
    next_sf: usize,
    int_fns: Vec<String>,
    sll_ops: Vec<String>,
    sll_builders: Vec<String>,
    sll_consumers: Vec<String>,
    dll_ops: Vec<String>,
    dll_builders: Vec<String>,
    rbt_ops: Vec<String>,
    rbt_builders: Vec<String>,
    after_wrappers: Vec<String>,
    boxes: Vec<BoxInfo>,
}

impl Gen {
    fn new(opts: &SynthOptions) -> Gen {
        Gen {
            rng: StdRng::seed_from_u64(opts.seed),
            functions: opts.functions,
            max_boxes: opts.boxes,
            max_ops: opts.max_ops.max(1),
            window: opts.window.max(1),
            emitted: 0,
            next_sf: 0,
            int_fns: Vec::new(),
            sll_ops: Vec::new(),
            sll_builders: Vec::new(),
            sll_consumers: Vec::new(),
            dll_ops: Vec::new(),
            dll_builders: Vec::new(),
            rbt_ops: Vec::new(),
            rbt_builders: Vec::new(),
            after_wrappers: Vec::new(),
            boxes: Vec::new(),
        }
    }

    fn run(mut self, out: &mut String) {
        while self.emitted < self.functions {
            match self.pick_kind() {
                Kind::Int => self.emit_int(out),
                Kind::SllOp => self.emit_sll_op(out, false),
                Kind::SllConsume => self.emit_sll_op(out, true),
                Kind::SllBuild => self.emit_sll_build(out),
                Kind::DllOp => self.emit_dll_op(out),
                Kind::DllBuild => self.emit_dll_build(out),
                Kind::RbtOp => self.emit_rbt_op(out),
                Kind::RbtBuild => self.emit_rbt_build(out),
                Kind::Queue => self.emit_queue(out),
                Kind::PipeSrc => self.emit_pipe_src(out),
                Kind::PipeSnk => self.emit_pipe_snk(out),
                Kind::AfterWrap => self.emit_after_wrap(out),
                Kind::BoxFamily => self.emit_box_family(out),
            }
        }
    }

    fn fresh_sf(&mut self) -> String {
        let n = self.next_sf;
        self.next_sf += 1;
        format!("sf{n}")
    }

    /// Pick an index into a pool of `len` earlier definitions, biased to
    /// the trailing `window` so chains of calls build real depth.
    fn recent(&mut self, len: usize) -> usize {
        let lo = len.saturating_sub(self.window);
        self.rng.gen_range(lo..len)
    }

    fn pick_kind(&mut self) -> Kind {
        let remaining = self.functions - self.emitted;
        let mut kinds: Vec<Kind> = Vec::with_capacity(32);
        let mut push = |k: Kind, w: usize| {
            for _ in 0..w {
                kinds.push(k);
            }
        };
        push(Kind::Int, 4);
        push(Kind::SllOp, 3);
        push(Kind::SllBuild, 2);
        push(Kind::SllConsume, 1);
        push(Kind::DllOp, 3);
        push(Kind::DllBuild, 2);
        push(Kind::RbtOp, 3);
        push(Kind::RbtBuild, 2);
        push(Kind::Queue, 1);
        push(Kind::PipeSrc, 1);
        push(Kind::PipeSnk, 1);
        push(Kind::AfterWrap, 1);
        if self.boxes.len() < self.max_boxes && remaining >= 3 {
            push(Kind::BoxFamily, 2);
        }
        kinds[self.rng.gen_range(0..kinds.len())]
    }

    // ---- int arithmetic ----

    fn emit_int(&mut self, out: &mut String) {
        let name = self.fresh_sf();
        let c1 = self.rng.gen_range(2..=5);
        let c2 = self.rng.gen_range(2..=9);
        out.push_str(&format!(
            "def {name}(a : int, b : int) : int {{\n  let acc = a * {c1} + b % {c2};\n"
        ));
        let n_ops = self.rng.gen_range(1..=self.max_ops);
        for u in 0..n_ops {
            let stmt = self.int_stmt(u);
            out.push_str(&stmt);
        }
        out.push_str("  acc\n}\n");
        self.int_fns.push(name);
        self.emitted += 1;
    }

    fn int_stmt(&mut self, u: usize) -> String {
        let c = self.rng.gen_range(2..=9);
        let mut choices = vec![0, 1, 2, 3];
        if !self.int_fns.is_empty() {
            choices.push(4);
        }
        if !self.boxes.is_empty() {
            choices.push(5);
            if self.boxes.iter().any(|b| b.linked) {
                choices.push(6);
            }
        }
        match choices[self.rng.gen_range(0..choices.len())] {
            0 => {
                let k = self.rng.gen_range(0..=30);
                format!("  acc = acc + (a % {c} + {k});\n")
            }
            1 => {
                let m = self.rng.gen_range(2..=3);
                format!("  acc = acc * {m} - b;\n")
            }
            2 => format!(
                "  if (acc > b) {{ acc = acc - {c}; }} else {{ acc = acc + {c}; }};\n"
            ),
            3 => format!(
                "  let i{u} = b % {c} + 1;\n  while (i{u} > 0) {{ acc = acc + i{u}; i{u} = i{u} - 1 }};\n"
            ),
            4 => {
                let j = self.recent(self.int_fns.len());
                let callee = self.int_fns[j].clone();
                format!("  acc = acc + {callee}(acc % {c}, b);\n")
            }
            5 => {
                let j = self.recent(self.boxes.len());
                let b = self.boxes[j].id;
                format!("  acc = acc + syn_rd{b}(syn_mk{b}(acc % {c} + 1));\n")
            }
            _ => {
                let linked: Vec<usize> =
                    self.boxes.iter().filter(|b| b.linked).map(|b| b.id).collect();
                let b = linked[self.rng.gen_range(0..linked.len())];
                let k = self.rng.gen_range(1..=20);
                format!(
                    "  let x{u} = syn_mk{b}(acc % {c} + 1);\n  syn_ln{b}(x{u}, {k});\n  acc = acc + syn_rd{b}(x{u});\n"
                )
            }
        }
    }

    // ---- singly linked list ----

    fn emit_sll_op(&mut self, out: &mut String, consumes: bool) {
        let name = self.fresh_sf();
        let c = self.rng.gen_range(2..=9);
        let sig_tail = if consumes { " consumes l" } else { "" };
        out.push_str(&format!(
            "def {name}(l : sll, k : int) : int{sig_tail} {{\n  let acc = k % {c};\n"
        ));
        let n_ops = self.rng.gen_range(1..=self.max_ops);
        for u in 0..n_ops {
            let stmt = self.sll_stmt(u);
            out.push_str(&stmt);
        }
        out.push_str("  acc\n}\n");
        if consumes {
            self.sll_consumers.push(name);
        } else {
            self.sll_ops.push(name);
        }
        self.emitted += 1;
    }

    fn sll_stmt(&mut self, u: usize) -> String {
        let c = self.rng.gen_range(2..=9);
        let mut choices = vec![0, 1, 2, 3, 4];
        if !self.sll_ops.is_empty() {
            choices.push(5);
        }
        if !self.sll_builders.is_empty() && !self.sll_consumers.is_empty() {
            choices.push(6);
        }
        if !self.int_fns.is_empty() {
            choices.push(7);
        }
        match choices[self.rng.gen_range(0..choices.len())] {
            0 => "  acc = acc + sll_sum_list(l);\n".to_string(),
            1 => "  acc = acc + sll_length_list(l);\n".to_string(),
            2 => format!("  sll_push_front(l, new data(k % {c} + 1));\n"),
            3 => format!(
                "  let m{u} = sll_pop_front(l);\n  let some(d{u}) = m{u} in {{ acc = acc + d{u}.value; }} else {{ unit }};\n"
            ),
            4 => format!(
                "  let m{u} = sll_remove_tail_list(l);\n  let some(d{u}) = m{u} in {{ acc = acc + d{u}.value; }} else {{ unit }};\n"
            ),
            5 => {
                let j = self.recent(self.sll_ops.len());
                let callee = self.sll_ops[j].clone();
                format!("  acc = acc + {callee}(l, acc % {c});\n")
            }
            6 => {
                let bj = self.recent(self.sll_builders.len());
                let cj = self.recent(self.sll_consumers.len());
                let builder = self.sll_builders[bj].clone();
                let consumer = self.sll_consumers[cj].clone();
                let c2 = self.rng.gen_range(2..=9);
                format!(
                    "  let f{u} = {builder}({c});\n  acc = acc + {consumer}(f{u}, k % {c2});\n"
                )
            }
            _ => {
                let j = self.recent(self.int_fns.len());
                let callee = self.int_fns[j].clone();
                format!("  acc = acc + {callee}(k, acc);\n")
            }
        }
    }

    fn emit_sll_build(&mut self, out: &mut String) {
        let name = self.fresh_sf();
        let c = self.rng.gen_range(2..=6);
        out.push_str(&format!(
            "def {name}(n : int) : sll {{\n  let l = sll_make(n % {c} + 1);\n"
        ));
        let n_ops = self.rng.gen_range(1..=2usize);
        for u in 0..n_ops {
            let c2 = self.rng.gen_range(2..=9);
            let use_op = !self.sll_ops.is_empty() && self.rng.gen_range(0..2) == 0;
            if use_op {
                let j = self.recent(self.sll_ops.len());
                let callee = self.sll_ops[j].clone();
                out.push_str(&format!(
                    "  let t{u} = {callee}(l, n % {c2});\n  sll_push_front(l, new data(t{u} % {c2} + 1));\n"
                ));
            } else {
                out.push_str(&format!("  sll_push_front(l, new data(n % {c2} + 1));\n"));
            }
        }
        out.push_str("  l\n}\n");
        self.sll_builders.push(name);
        self.emitted += 1;
    }

    // ---- circular doubly linked list ----

    fn emit_dll_op(&mut self, out: &mut String) {
        let name = self.fresh_sf();
        let c = self.rng.gen_range(2..=9);
        out.push_str(&format!(
            "def {name}(l : dll, k : int) : int {{\n  let acc = k % {c};\n"
        ));
        let n_ops = self.rng.gen_range(1..=self.max_ops);
        for u in 0..n_ops {
            let stmt = self.dll_stmt(u);
            out.push_str(&stmt);
        }
        out.push_str("  acc\n}\n");
        self.dll_ops.push(name);
        self.emitted += 1;
    }

    fn dll_stmt(&mut self, u: usize) -> String {
        let c = self.rng.gen_range(2..=9);
        let mut choices = vec![0, 1, 2, 3, 4];
        if !self.dll_ops.is_empty() {
            choices.push(5);
        }
        if !self.after_wrappers.is_empty() {
            choices.push(6);
        }
        match choices[self.rng.gen_range(0..choices.len())] {
            0 => format!("  acc = acc + dll_sum(l, k % {c});\n"),
            1 => format!("  acc = acc + dll_nth_value(l, k % {c});\n"),
            2 => format!("  dll_push_front(l, new data(k % {c} + 1));\n"),
            3 => format!("  dll_push_back(l, new data(k % {c} + 1));\n"),
            4 => format!(
                "  let m{u} = dll_remove_tail(l);\n  let some(d{u}) = m{u} in {{ acc = acc + d{u}.value; }} else {{ unit }};\n"
            ),
            5 => {
                let j = self.recent(self.dll_ops.len());
                let callee = self.dll_ops[j].clone();
                format!("  acc = acc + {callee}(l, acc % {c});\n")
            }
            _ => {
                let j = self.recent(self.after_wrappers.len());
                let callee = self.after_wrappers[j].clone();
                format!(
                    "  let m{u} = {callee}(l, acc % {c});\n  let some(n{u}) = m{u} in {{ acc = acc + n{u}.payload.value; }} else {{ unit }};\n"
                )
            }
        }
    }

    fn emit_dll_build(&mut self, out: &mut String) {
        let name = self.fresh_sf();
        let c = self.rng.gen_range(2..=6);
        out.push_str(&format!(
            "def {name}(n : int) : dll {{\n  let l = dll_make(n % {c} + 1);\n"
        ));
        let n_ops = self.rng.gen_range(1..=2usize);
        for _ in 0..n_ops {
            let c2 = self.rng.gen_range(2..=9);
            if self.rng.gen_range(0..2) == 0 {
                out.push_str(&format!("  dll_push_front(l, new data(n % {c2} + 1));\n"));
            } else {
                out.push_str(&format!("  dll_push_back(l, new data(n % {c2} + 1));\n"));
            }
        }
        out.push_str("  l\n}\n");
        self.dll_builders.push(name);
        self.emitted += 1;
    }

    // ---- red-black tree ----

    fn emit_rbt_op(&mut self, out: &mut String) {
        let name = self.fresh_sf();
        let c = self.rng.gen_range(2..=9);
        out.push_str(&format!(
            "def {name}(t : rbt, k : int) : int {{\n  let acc = k % {c};\n"
        ));
        let n_ops = self.rng.gen_range(1..=self.max_ops);
        for _ in 0..n_ops {
            let stmt = self.rbt_stmt();
            out.push_str(&stmt);
        }
        out.push_str("  acc\n}\n");
        self.rbt_ops.push(name);
        self.emitted += 1;
    }

    fn rbt_stmt(&mut self) -> String {
        const PRIMES: [u32; 4] = [101, 211, 503, 1009];
        let p = PRIMES[self.rng.gen_range(0..PRIMES.len())];
        let c = self.rng.gen_range(2..=9);
        let mut choices = vec![0, 1, 2, 3, 4];
        if !self.rbt_ops.is_empty() {
            choices.push(5);
        }
        match choices[self.rng.gen_range(0..choices.len())] {
            0 => {
                let c1 = self.rng.gen_range(2..=37);
                format!("  rbt_insert(t, (k * {c1}) % {p}, new data(k % {c}));\n")
            }
            1 => "  acc = acc + rbt_size(t);\n".to_string(),
            2 => format!("  acc = acc + rbt_value_of(t, k % {p});\n"),
            3 => format!("  if (rbt_contains(t, k % {p})) {{ acc = acc + 1; }} else {{ unit }};\n"),
            4 => "  if (rbt_valid(t)) { acc = acc + 1; } else { unit };\n".to_string(),
            _ => {
                let j = self.recent(self.rbt_ops.len());
                let callee = self.rbt_ops[j].clone();
                format!("  acc = acc + {callee}(t, acc % {c});\n")
            }
        }
    }

    fn emit_rbt_build(&mut self, out: &mut String) {
        let name = self.fresh_sf();
        let c = self.rng.gen_range(2..=6);
        out.push_str(&format!(
            "def {name}(n : int) : rbt {{\n  let t = rbt_fill(n % {c} + 1);\n"
        ));
        const PRIMES: [u32; 4] = [101, 211, 503, 1009];
        let n_ops = self.rng.gen_range(1..=2usize);
        for u in 0..n_ops {
            let p = PRIMES[self.rng.gen_range(0..PRIMES.len())];
            let c1 = self.rng.gen_range(2..=37);
            let c2 = self.rng.gen_range(2..=9);
            let use_op = !self.rbt_ops.is_empty() && self.rng.gen_range(0..2) == 0;
            if use_op {
                let j = self.recent(self.rbt_ops.len());
                let callee = self.rbt_ops[j].clone();
                out.push_str(&format!(
                    "  let r{u} = {callee}(t, n % {c2});\n  rbt_insert(t, (r{u} * {c1}) % {p}, new data(n % {c2}));\n"
                ));
            } else {
                out.push_str(&format!(
                    "  rbt_insert(t, (n * {c1}) % {p}, new data(n % {c2}));\n"
                ));
            }
        }
        out.push_str("  t\n}\n");
        self.rbt_builders.push(name);
        self.emitted += 1;
    }

    // ---- message passing and queues ----

    fn emit_queue(&mut self, out: &mut String) {
        let name = self.fresh_sf();
        let c = self.rng.gen_range(2..=9);
        out.push_str(&format!(
            "def {name}(n : int) : int {{\n\
             \x20 let q = new sll(none);\n\
             \x20 let i = n % {c} + 1;\n\
             \x20 while (i > 0) {{ sll_push_front(q, new data(i)); i = i - 1 }};\n\
             \x20 let acc = 0;\n\
             \x20 let going = true;\n\
             \x20 while (going) {{\n\
             \x20   let m = sll_pop_front(q);\n\
             \x20   let some(d) = m in {{ acc = acc + d.value; }} else {{ going = false; }};\n\
             \x20   unit\n\
             \x20 }};\n\
             \x20 acc\n}}\n"
        ));
        self.emitted += 1;
    }

    fn emit_pipe_src(&mut self, out: &mut String) {
        let name = self.fresh_sf();
        let c = self.rng.gen_range(2..=6);
        out.push_str(&format!(
            "def {name}(n : int) : unit {{\n\
             \x20 let c0 = n % {c} + 1;\n\
             \x20 while (c0 > 0) {{ send(new data(c0)); c0 = c0 - 1 }};\n\
             \x20 unit\n}}\n"
        ));
        self.emitted += 1;
    }

    fn emit_pipe_snk(&mut self, out: &mut String) {
        let name = self.fresh_sf();
        let c = self.rng.gen_range(2..=6);
        out.push_str(&format!(
            "def {name}(n : int) : int {{\n\
             \x20 let acc = 0;\n\
             \x20 let c0 = n % {c} + 1;\n\
             \x20 while (c0 > 0) {{ acc = acc + recv(data).value; c0 = c0 - 1 }};\n\
             \x20 acc\n}}\n"
        ));
        self.emitted += 1;
    }

    // ---- tracking annotations ----

    fn emit_after_wrap(&mut self, out: &mut String) {
        let name = self.fresh_sf();
        let c = self.rng.gen_range(2..=9);
        out.push_str(&format!(
            "def {name}(l : dll, pos : int) : dll_node?\n\
             \x20   after: l.hd ~ result {{\n\
             \x20 dll_get_nth_node(l, pos % {c})\n}}\n"
        ));
        self.after_wrappers.push(name);
        self.emitted += 1;
    }

    // ---- iso-field box structs ----

    fn emit_box_family(&mut self, out: &mut String) {
        let b = self.boxes.len();
        let item = match self.rng.gen_range(0..3) {
            0 => BoxItem::Data,
            1 => BoxItem::Sll,
            _ => BoxItem::Rbt,
        };
        let linked = b > 0 && self.rng.gen_range(0..2) == 0;
        let c = self.rng.gen_range(2..=6);
        let item_ty = match item {
            BoxItem::Data => "data",
            BoxItem::Sll => "sll",
            BoxItem::Rbt => "rbt",
        };
        let ctor = match item {
            BoxItem::Data => "new data(v)".to_string(),
            BoxItem::Sll => format!("sll_make(v % {c} + 1)"),
            BoxItem::Rbt => format!("rbt_fill(v % {c} + 1)"),
        };
        let probe = match item {
            BoxItem::Data => "x.item.value".to_string(),
            BoxItem::Sll => "sll_length_list(x.item)".to_string(),
            BoxItem::Rbt => "rbt_size(x.item)".to_string(),
        };
        let link_field = if linked {
            format!("\n  iso link : syn_box{}?;", b - 1)
        } else {
            String::new()
        };
        let link_ctor = if linked { ", none" } else { "" };
        out.push_str(&format!(
            "struct syn_box{b} {{\n  tag : int;\n  iso item : {item_ty};{link_field}\n}}\n\
             def syn_mk{b}(v : int) : syn_box{b} {{ new syn_box{b}(v, {ctor}{link_ctor}) }}\n\
             def syn_rd{b}(x : syn_box{b}) : int {{ x.tag + {probe} }}\n"
        ));
        self.emitted += 2;
        if linked {
            let p = b - 1;
            out.push_str(&format!(
                "def syn_ln{b}(x : syn_box{b}, v : int) : unit {{ x.link = some(syn_mk{p}(v)); }}\n"
            ));
            self.emitted += 1;
        }
        self.boxes.push(BoxInfo { id: b, linked });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_is_byte_identical() {
        let opts = SynthOptions::default();
        assert_eq!(synthesize(&opts), synthesize(&opts));
    }

    #[test]
    fn different_seeds_differ() {
        let a = synthesize(&SynthOptions {
            seed: 1,
            ..SynthOptions::default()
        });
        let b = synthesize(&SynthOptions {
            seed: 2,
            ..SynthOptions::default()
        });
        assert_ne!(a, b);
    }

    #[test]
    fn generated_function_budget_is_exact() {
        let prelude_fns = fearless_syntax::parse_program(&prelude())
            .unwrap()
            .funcs
            .len();
        for (seed, functions) in [(0u64, 0usize), (1, 1), (2, 17), (3, 120)] {
            let opts = SynthOptions {
                seed,
                functions,
                ..SynthOptions::default()
            };
            let program = synthesize_program(&opts);
            assert_eq!(
                program.funcs.len(),
                prelude_fns + functions,
                "seed {seed} functions {functions}"
            );
        }
    }

    #[test]
    fn thousand_function_scale_parses() {
        let opts = SynthOptions {
            seed: 7,
            functions: 1000,
            ..SynthOptions::default()
        };
        let program = synthesize_program(&opts);
        assert!(program.funcs.len() >= 1000);
    }
}
