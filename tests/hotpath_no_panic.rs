//! Source-level gate for the deployment hot path: the SGD inner loop, its
//! gradient accumulator, optimizer and regularizer, the linear model, the
//! sparse kernel, the durable-segment primitive and the checkpoint codec
//! must not carry `.unwrap()` / `.expect(` outside their test modules. A
//! panic annotation in these files is a latent crash in the deployment loop;
//! invariants that are genuinely unreachable are written as
//! `match`/`unreachable!` with a comment explaining why, so the gate also
//! forces the justification to exist.

/// Everything before the first `#[cfg(test)]` marker — the shipped region.
fn non_test_region(source: &str) -> &str {
    source.split("#[cfg(test)]").next().unwrap_or(source)
}

#[test]
fn sgd_and_sparse_hot_paths_carry_no_panic_annotations() {
    let gated = [
        (
            "crates/ml/src/sgd.rs",
            include_str!("../crates/ml/src/sgd.rs"),
        ),
        (
            "crates/ml/src/accumulator.rs",
            include_str!("../crates/ml/src/accumulator.rs"),
        ),
        (
            "crates/ml/src/optimizer.rs",
            include_str!("../crates/ml/src/optimizer.rs"),
        ),
        (
            "crates/ml/src/regularizer.rs",
            include_str!("../crates/ml/src/regularizer.rs"),
        ),
        (
            "crates/ml/src/model.rs",
            include_str!("../crates/ml/src/model.rs"),
        ),
        (
            "crates/linalg/src/sparse.rs",
            include_str!("../crates/linalg/src/sparse.rs"),
        ),
        (
            "crates/storage/src/segment.rs",
            include_str!("../crates/storage/src/segment.rs"),
        ),
        (
            "crates/core/src/checkpoint.rs",
            include_str!("../crates/core/src/checkpoint.rs"),
        ),
    ];
    for (name, source) in gated {
        let shipped = non_test_region(source);
        assert!(
            shipped.len() < source.len(),
            "{name}: expected a #[cfg(test)] module splitting the file"
        );
        for token in [".unwrap()", ".expect("] {
            assert!(
                !shipped.contains(token),
                "{name}: `{token}` found outside #[cfg(test)] — rewrite the \
                 call as a match with an unreachable!/typed-error arm and a \
                 comment documenting the invariant"
            );
        }
    }
}
