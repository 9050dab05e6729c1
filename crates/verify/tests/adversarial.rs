//! Adversarial verifier tests: forged or corrupted derivations must be
//! rejected. The verifier is the trusted core of the prover–verifier
//! architecture (§5); a prover bug that fabricates capability must not
//! slip through.

use fearless_core::{check_source, CheckedProgram, CheckerOptions, RegionId, VirStep};
use fearless_verify::verify_program;

const SRC: &str = "
struct data { value: int }
struct sll_node { iso payload : data; iso next : sll_node? }

def remove_tail(n : sll_node) : data? {
  let some(next) = n.next in {
    if (is_none(next.next)) {
      n.next = none;
      some(next.payload)
    } else { remove_tail(next) }
  } else { none }
}

def ship(n : sll_node) : unit consumes n { send(n); }
";

fn checked() -> CheckedProgram {
    check_source(SRC, &CheckerOptions::default()).expect("accepted")
}

#[test]
fn baseline_verifies() {
    verify_program(&checked()).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn derivations_meet_their_own_definitions() {
    // Out of definition order, each derivation still replays against its
    // own definition (the index pairing falls back to the name), and a
    // derivation naming no definition is rejected.
    let base = checked();
    let mut reordered = base.clone();
    reordered.derivations.reverse();
    assert_eq!(
        verify_program(&reordered).unwrap_or_else(|e| panic!("{e}")),
        verify_program(&base).unwrap_or_else(|e| panic!("{e}"))
    );
    let mut unknown = base;
    unknown.derivations[0].func = "nosuch".into();
    assert!(verify_program(&unknown).is_err());
}

#[test]
fn dropping_any_single_vir_node_fails() {
    // Removing any TS1 step from any chain must break replay (each step is
    // load-bearing).
    let base = checked();
    let mut rejected = 0;
    let mut total = 0;
    for (fi, d) in base.derivations.iter().enumerate() {
        for idx in 0..d.nodes.len() {
            if d.nodes[idx].vir.is_none() {
                continue;
            }
            total += 1;
            let mut forged = base.clone();
            // Remove idx from every chain that references it.
            let df = &mut forged.derivations[fi];
            df.root_chain.retain(|&i| i != idx);
            for node in &mut df.nodes {
                for chain in &mut node.chains {
                    chain.retain(|&i| i != idx);
                }
            }
            if verify_program(&forged).is_err() {
                rejected += 1;
            }
        }
    }
    assert!(total > 10, "expected many vir steps, found {total}");
    assert_eq!(rejected, total, "every dropped step must be caught");
}

#[test]
fn forging_extra_capability_fails() {
    // Granting the output a region the chain never created must fail.
    let mut forged = checked();
    let d = &mut forged.derivations[0];
    d.output
        .heap
        .insert(RegionId(555), fearless_core::TrackCtx::empty());
    assert!(verify_program(&forged).is_err());
}

#[test]
fn retargeting_a_retract_fails() {
    let mut forged = checked();
    let mut tampered = false;
    'outer: for d in &mut forged.derivations {
        for node in &mut d.nodes {
            if let Some(VirStep::Retract { target, .. }) = &mut node.vir {
                *target = RegionId(target.0 + 900);
                tampered = true;
                break 'outer;
            }
        }
    }
    assert!(tampered);
    assert!(verify_program(&forged).is_err());
}

#[test]
fn skipping_send_discharge_fails() {
    // Make the send node claim its input still had tracked contents by
    // splicing tracking into its recorded input — the replayed chain will
    // disagree.
    let mut forged = checked();
    let ship = forged
        .derivations
        .iter_mut()
        .find(|d| d.func.as_str() == "ship")
        .expect("ship derivation");
    let mut tampered = false;
    for node in &mut ship.nodes {
        if node.rule == fearless_core::Rule::Send {
            // Pretend the sent region had a focused variable.
            let region = node.data[0];
            if let Some(ctx) = node.input.heap.tracking_mut(region) {
                ctx.vars
                    .insert(fearless_syntax::Symbol::new("n"), Default::default());
                tampered = true;
            }
        }
    }
    assert!(tampered);
    assert!(verify_program(&forged).is_err());
}

#[test]
fn swapping_branch_chains_fails() {
    // Swapping the then/else chains of the `if` must break the condition
    // threading or result typing.
    let mut forged = checked();
    let d = forged
        .derivations
        .iter_mut()
        .find(|d| d.func.as_str() == "remove_tail")
        .expect("remove_tail");
    let mut tampered = false;
    for node in &mut d.nodes {
        if node.rule == fearless_core::Rule::If && node.chains.len() == 3 {
            node.chains.swap(1, 2);
            tampered = true;
            break;
        }
    }
    assert!(tampered);
    assert!(verify_program(&forged).is_err());
}

#[test]
fn changing_result_type_fails() {
    let mut forged = checked();
    forged.derivations[0].result.ty = fearless_syntax::Type::Int;
    assert!(verify_program(&forged).is_err());
}

#[test]
fn reordering_vir_steps_is_caught_or_harmless() {
    // Swapping two adjacent vir steps either still replays (when they
    // commute) or is rejected — but never verifies into a *different*
    // final context.
    let base = checked();
    for (fi, d) in base.derivations.iter().enumerate() {
        let vir_positions: Vec<usize> = d
            .root_chain
            .iter()
            .copied()
            .filter(|&i| d.nodes[i].vir.is_some())
            .collect();
        for w in vir_positions.windows(2) {
            let mut forged = base.clone();
            let df = &mut forged.derivations[fi];
            let (a, b) = (w[0], w[1]);
            let pa = df.root_chain.iter().position(|&i| i == a).unwrap();
            let pb = df.root_chain.iter().position(|&i| i == b).unwrap();
            df.root_chain.swap(pa, pb);
            // Accepted ⇒ the recorded output still matched; fine either way.
            let _ = verify_program(&forged);
        }
    }
}

#[test]
fn gd_take_shape_rejected_under_tempered() {
    // Forging a tempered `take` node into the global-domination
    // destructive-read shape must not verify: that shape mints a fresh
    // capability without a domination proof, which only the GD discipline
    // justifies.
    let src = "
        struct data { value: int }
        struct sll_node { iso payload : data; iso next : sll_node? }
        def grab(n : sll_node) : sll_node? { take(n.next) }";
    let mut forged = check_source(src, &CheckerOptions::default()).expect("accepted");
    let mut tampered = false;
    for d in &mut forged.derivations {
        for node in &mut d.nodes {
            if node.rule == fearless_core::Rule::Take && node.data.len() == 2 {
                let fresh = node.data[1];
                node.data = vec![fresh];
                tampered = true;
            }
        }
    }
    assert!(tampered);
    assert!(verify_program(&forged).is_err());
}
