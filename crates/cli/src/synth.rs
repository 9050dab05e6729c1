//! `fearlessc synth`.

use fearless_synth::SynthOptions;

/// `fearlessc synth`: generate a seeded, deterministic well-typed program
/// (`fearless-synth`; see docs/CORPUS.md), to stdout or to `out`.
pub(crate) fn synth(opts: &SynthOptions, out: Option<&str>) -> Result<String, String> {
    let source = fearless_synth::synthesize(opts);
    match out {
        Some(path) => {
            std::fs::write(path, &source).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            Ok(format!(
                "synthesized {} bytes (seed {}, {} generated functions) to {path}\n",
                source.len(),
                opts.seed,
                opts.functions
            ))
        }
        None => Ok(source),
    }
}
