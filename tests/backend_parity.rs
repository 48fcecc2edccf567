//! Cross-checks of the batched execution backends against the scalar `ops::` oracle
//! and the naive time-domain kernels, plus the batch-vs-single factorization
//! regression.
//!
//! These are the repository-level guarantees the `VsaBackend` seam rests on:
//!
//! 1. every backend reproduces `ops::` (bitwise for Hadamard ops, the planned FFT,
//!    bundling and projection; within float tolerance when compared against the
//!    `O(d²)` kernel, and within the 1e-4 cosine contract for similarity and cleanup);
//! 2. `PackedBackend` reproduces `ops::` exactly where the bit-packed algebra applies
//!    (bipolar Hadamard bind/unbind, integer dot products, vote-count bundling) and
//!    within the 1e-4 cosine contract for the Hamming→cosine cleanup mapping, on
//!    power-of-two and non-power-of-two dimensions (tail-word padding included);
//! 3. batching is a pure performance transform — `factorize_batch` returns exactly the
//!    per-query `factorize` results.

use cogsys_factorizer::{Factorizer, FactorizerConfig};
use cogsys_vsa::batch::{BackendKind, HvMatrix};
use cogsys_vsa::codebook::BindingOp;
use cogsys_vsa::packed::BitMatrix;
use cogsys_vsa::{ops, rng, CodebookSet, Hypervector, Precision};
use proptest::prelude::*;

fn random_batch(rows: usize, dim: usize, seed: u64) -> (Vec<Hypervector>, HvMatrix) {
    let mut r = rng(seed);
    let hvs: Vec<Hypervector> = (0..rows)
        .map(|_| Hypervector::random_bipolar(dim, &mut r))
        .collect();
    let m = HvMatrix::from_rows(&hvs).expect("rows share a dimension");
    (hvs, m)
}

/// The scalar cleanup oracle: the `ops::cosine_similarity` argmax and its cosine.
fn ops_cleanup(code: &[Hypervector], query: &Hypervector) -> (usize, f32) {
    let cosines: Vec<f32> = code
        .iter()
        .map(|row| ops::cosine_similarity(row, query))
        .collect();
    let best = ops::argmax(&cosines).expect("non-empty codebook");
    (best, cosines[best])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every backend, `ops::` and the naive O(d²) kernel agree on circular-convolution
    /// binding for random dimensions — power-of-two (FFT path) and not (naive path).
    #[test]
    fn prop_backends_match_naive_convolution(seed in 0u64..1000, d_pow in 2u32..9, odd in 0usize..7) {
        // Mix of power-of-two dims (64..512) and non-power-of-two neighbours.
        let dim = (1usize << d_pow) + [0, 1, 3, 5, 7, 11, 13][odd];
        let (rows_a, a) = random_batch(3, dim, seed);
        let (rows_b, b) = random_batch(3, dim, seed ^ 0x5eed);

        for kind in BackendKind::ALL {
            let bound = kind.create().bind_batch(&a, &b, BindingOp::CircularConvolution).unwrap();
            for i in 0..3 {
                // Bitwise equal to the scalar op (planned FFT or naive loop alike).
                let scalar = ops::try_circular_convolve(&rows_a[i], &rows_b[i]).unwrap();
                prop_assert!(bound.row(i) == scalar.values(), "{} row {}", kind, i);
                // And within float tolerance of the O(d²) time-domain definition.
                let naive = ops::circular_convolve_naive(rows_a[i].values(), rows_b[i].values());
                for (x, y) in bound.row(i).iter().zip(&naive) {
                    prop_assert!((x - y).abs() < 1e-2 * dim as f32, "{x} vs {y} at dim {dim}");
                }
            }
        }
    }

    /// Unbinding (Hadamard and circular correlation) equals `ops::` on random dims.
    #[test]
    fn prop_backends_match_on_unbind(seed in 0u64..1000, dim in 2usize..160) {
        let (rows_a, a) = random_batch(2, dim, seed);
        let (rows_b, b) = random_batch(2, dim, seed + 17);
        for kind in BackendKind::ALL {
            let backend = kind.create();
            let had = backend.unbind_batch(&a, &b, BindingOp::Hadamard).unwrap();
            let corr = backend.unbind_batch(&a, &b, BindingOp::CircularConvolution).unwrap();
            for i in 0..2 {
                let scalar = ops::hadamard_unbind(&rows_a[i], &rows_b[i]).unwrap();
                prop_assert!(had.row(i) == scalar.values(), "{} row {}", kind, i);
                let scalar = ops::try_circular_correlate(&rows_a[i], &rows_b[i]).unwrap();
                prop_assert!(corr.row(i) == scalar.values(), "{} row {}", kind, i);
            }
        }
    }

    /// Similarity GEMM, cleanup and bundling agree with `ops::` on random shapes.
    #[test]
    fn prop_backends_match_on_similarity_and_cleanup(
        seed in 0u64..1000,
        dim in 4usize..200,
        code_rows in 2usize..24,
        queries in 1usize..12,
    ) {
        let (code, cb) = random_batch(code_rows, dim, seed);
        let (rows_q, q) = random_batch(queries, dim, seed + 101);
        for kind in BackendKind::ALL {
            let backend = kind.create();
            let sims = backend.similarity_matrix(&cb, &q).unwrap();
            let cleanup = backend.cleanup_batch(&cb, &q).unwrap();
            for (i, query) in rows_q.iter().enumerate() {
                let scalar = ops::matvec_similarity(&code, query).unwrap();
                for (x, y) in sims.row(i).iter().zip(&scalar) {
                    // Dots of bipolar rows grow with dim; bound the reordering error
                    // relative to the dimension.
                    prop_assert!((x - y).abs() < 1e-4 * dim as f32, "{}: {} vs {}", kind, x, y);
                }
                let (best, cosine) = ops_cleanup(&code, query);
                prop_assert!(cleanup[i].0 == best, "{} query {}", kind, i);
                prop_assert!((cleanup[i].1 - cosine).abs() < 1e-4);
            }
            prop_assert_eq!(
                backend.bundle(&q).unwrap().values(),
                ops::bundle(&rows_q).unwrap().values()
            );
        }
    }

    /// PackedBackend parity on bipolar inputs: bind/unbind are *exact* (XOR equals the
    /// Hadamard product of signs), across power-of-two and non-power-of-two dims so
    /// tail-word padding is exercised.
    #[test]
    fn prop_packed_bind_unbind_exact_on_bipolar(seed in 0u64..1000, d_pow in 2u32..9, odd in 0usize..7) {
        let dim = (1usize << d_pow) + [0, 1, 3, 5, 7, 11, 13][odd];
        let (rows_a, a) = random_batch(3, dim, seed);
        let (rows_b, b) = random_batch(3, dim, seed ^ 0xb17);
        let packed = BackendKind::Packed.create();
        let p = packed.bind_batch(&a, &b, BindingOp::Hadamard).unwrap();
        let pu = packed.unbind_batch(&a, &b, BindingOp::Hadamard).unwrap();
        for i in 0..3 {
            let bound = ops::hadamard_bind(&rows_a[i], &rows_b[i]).unwrap();
            prop_assert_eq!(p.row(i), bound.values());
            let unbound = ops::hadamard_unbind(&rows_a[i], &rows_b[i]).unwrap();
            prop_assert_eq!(pu.row(i), unbound.values());
        }
        // Packed round trip through the BitMatrix representation is lossless.
        let bits = BitMatrix::from_matrix(&a).expect("bipolar rows pack");
        prop_assert_eq!(bits.to_matrix(), a);
        prop_assert_eq!(bits.words_per_row(), dim.div_ceil(64));
    }

    /// PackedBackend similarity is the exact integer dot product and its cleanup
    /// agrees with `ops::` within 1e-4 cosine after the Hamming→cosine mapping;
    /// bundling (vote counters) matches `ops::bundle` exactly, which pins down the
    /// tie behaviour of any later sign threshold.
    #[test]
    fn prop_packed_similarity_cleanup_bundle(
        seed in 0u64..1000,
        d_pow in 2u32..9,
        odd in 0usize..7,
        code_rows in 2usize..24,
        queries in 1usize..10,
    ) {
        let dim = (1usize << d_pow) + [0, 1, 3, 5, 7, 11, 13][odd];
        let (code, cb) = random_batch(code_rows, dim, seed);
        let (rows_q, q) = random_batch(queries, dim, seed + 131);
        let packed = BackendKind::Packed.create();
        let sims = packed.similarity_matrix(&cb, &q).unwrap();
        let pc = packed.cleanup_batch(&cb, &q).unwrap();
        for (i, query) in rows_q.iter().enumerate() {
            // Dots of ±1 rows are exact in f32, so popcount similarity is bitwise equal.
            let scalar = ops::matvec_similarity(&code, query).unwrap();
            prop_assert_eq!(sims.row(i), scalar.as_slice());
            let (best, cosine) = ops_cleanup(&code, query);
            prop_assert_eq!(pc[i].0, best);
            prop_assert!((pc[i].1 - cosine).abs() < 1e-4, "{} vs {}", pc[i].1, cosine);
        }
        prop_assert_eq!(
            ops::bundle(&rows_q).unwrap().values(),
            packed.bundle(&q).unwrap().values()
        );
    }

    /// The fused packed weighted-projection kernel (per-dimension f32 accumulators
    /// over sign planes + fused perturbation + sign threshold) equals the scalar
    /// `ops::weighted_superposition` followed by the same perturbation and threshold —
    /// **bitwise**, with and without noise, across power-of-two and non-power-of-two
    /// dimensions (tail words included).
    #[test]
    fn prop_packed_projection_matches_dense(
        seed in 0u64..1000,
        d_pow in 2u32..9,
        odd in 0usize..7,
        code_rows in 2usize..16,
        queries in 1usize..6,
        noise_sel in 0usize..2,
    ) {
        use cogsys_vsa::packed::PackedBackend;
        use rand::SeedableRng;
        use rand_distr::{Distribution, Normal};

        let with_noise = noise_sel == 1;
        let dim = (1usize << d_pow) + [0, 1, 3, 5, 7, 11, 13][odd];
        let (code, cb) = random_batch(code_rows, dim, seed);
        let cb_bits = BitMatrix::from_matrix(&cb).expect("bipolar codebook packs");
        // Real-valued weights, as the resonator's (noise-injected) similarity rows are.
        let mut r = rng(seed ^ 0xfeed);
        let weights = HvMatrix::from_rows(
            &(0..queries)
                .map(|_| Hypervector::random_real(code_rows, &mut r))
                .collect::<Vec<_>>(),
        ).unwrap();

        let noise = Normal::new(0.0_f32, 0.75).unwrap();
        // Scalar path: project, perturb with a per-query stream, sign-threshold.
        let mut expected = Vec::new();
        for q in 0..queries {
            let mut row = ops::weighted_superposition(&code, weights.row(q)).unwrap().values().to_vec();
            if with_noise {
                let mut stream = rand::rngs::StdRng::seed_from_u64(seed + q as u64);
                for v in &mut row {
                    *v += noise.sample(&mut stream);
                }
            }
            expected.push(row.iter().map(|&v| if v < 0.0 { -1.0 } else { 1.0 }).collect::<Vec<f32>>());
        }

        // Packed path: the same perturbation runs fused inside the kernel.
        let packed = PackedBackend::new();
        let (mut out, mut acc) = (BitMatrix::default(), Vec::new());
        packed.project_signs_packed_into(&cb_bits, &weights, |_| f32::INFINITY, |q, row| {
            if with_noise {
                let mut stream = rand::rngs::StdRng::seed_from_u64(seed + q as u64);
                for v in row.iter_mut() {
                    *v += noise.sample(&mut stream);
                }
            }
        }, &mut acc, &mut out);

        let unpacked = out.to_matrix();
        for (q, row) in expected.iter().enumerate() {
            prop_assert_eq!(unpacked.row(q), row.as_slice());
        }
    }

    /// Pre-packed `BitMatrix` queries through `Codebook::cleanup_batch_bits` decode
    /// exactly like the same queries through the f32 `cleanup_batch` surface, on every
    /// backend — the end-to-end packed query path changes cost, never results.
    #[test]
    fn prop_packed_query_cleanup_equals_dense_query(
        seed in 0u64..1000,
        d_pow in 2u32..9,
        odd in 0usize..7,
        code_rows in 2usize..24,
        queries in 1usize..10,
    ) {
        use cogsys_vsa::Codebook;

        let dim = (1usize << d_pow) + [0, 1, 3, 5, 7, 11, 13][odd];
        let mut r = rng(seed);
        let cb = Codebook::random("p", code_rows, dim, &mut r);
        let (_, q) = random_batch(queries, dim, seed + 211);
        let bits = BitMatrix::from_matrix(&q).expect("bipolar queries pack");
        for kind in BackendKind::ALL {
            let backend = kind.create();
            let dense = cb.cleanup_batch(backend.as_ref(), &q).unwrap();
            let packed = cb.cleanup_batch_bits(backend.as_ref(), &bits).unwrap();
            for ((di, dsim), (pi, psim)) in dense.iter().zip(&packed) {
                prop_assert_eq!(di, pi);
                prop_assert!((dsim - psim).abs() < 1e-4, "{}: {} vs {}", kind, dsim, psim);
            }
        }
    }

    /// Non-bipolar operands must not silently lose magnitude: the packed backend's
    /// results match the dense fallback bitwise.
    #[test]
    fn prop_packed_falls_back_on_real_inputs(seed in 0u64..500, dim in 2usize..130) {
        let mut r = rng(seed);
        let hvs: Vec<Hypervector> = (0..3)
            .map(|_| Hypervector::random_real(dim, &mut r))
            .collect();
        let a = HvMatrix::from_rows(&hvs).unwrap();
        let (_, b) = random_batch(3, dim, seed + 7);
        let dense = BackendKind::Dense.create();
        let packed = BackendKind::Packed.create();
        for op in [BindingOp::Hadamard, BindingOp::CircularConvolution] {
            prop_assert_eq!(
                dense.bind_batch(&a, &b, op).unwrap(),
                packed.bind_batch(&a, &b, op).unwrap()
            );
        }
        prop_assert_eq!(
            dense.similarity_matrix(&a, &b).unwrap(),
            packed.similarity_matrix(&a, &b).unwrap()
        );
    }
}

#[test]
fn factorize_batch_regression_matches_per_query_results() {
    // Satellite regression at the repository level: run a harder configuration than
    // the unit test (circular-convolution binding + INT8) and require exact equality
    // of decoded indices between the batch and per-query paths.
    let mut setup = rng(2024);
    let set = CodebookSet::random(&[6, 6], 1024, BindingOp::CircularConvolution, &mut setup);
    let tuples = [[0usize, 5], [3, 2], [5, 5], [1, 0], [4, 3], [2, 1]];
    let queries: Vec<Hypervector> = tuples
        .iter()
        .map(|t| set.bind_indices(t).unwrap())
        .collect();
    let config = FactorizerConfig {
        convergence_threshold: 0.3,
        ..FactorizerConfig::default()
    }
    .with_precision(Precision::Int8);
    let factorizer = Factorizer::new(config);

    let mut rng_batch = rng(1);
    let batch = factorizer
        .factorize_batch(&set, &queries, &mut rng_batch)
        .unwrap();

    let mut rng_single = rng(1);
    for (q, query) in queries.iter().enumerate() {
        let single = factorizer.factorize(&set, query, &mut rng_single).unwrap();
        assert_eq!(
            batch[q].indices, single.indices,
            "indices differ at query {q}"
        );
        assert_eq!(batch[q], single, "full result differs at query {q}");
    }
    // And the decode itself is correct.
    for (result, expected) in batch.iter().zip(&tuples) {
        assert_eq!(result.indices, expected.to_vec());
    }
}

#[test]
fn backends_agree_through_the_factorizer_on_both_bindings() {
    for (binding, threshold) in [
        (BindingOp::Hadamard, 0.9f32),
        (BindingOp::CircularConvolution, 0.3),
    ] {
        let mut setup = rng(7);
        let set = CodebookSet::random(&[5, 5], 1024, binding, &mut setup);
        let query = set.bind_indices(&[2, 4]).unwrap();
        let config = FactorizerConfig {
            convergence_threshold: threshold,
            ..FactorizerConfig::default()
        };
        let mut r1 = rng(3);
        let mut r2 = rng(3);
        let a = Factorizer::new(config.clone().with_backend(BackendKind::Dense))
            .factorize(&set, &query, &mut r1)
            .unwrap();
        let b = Factorizer::new(config.with_backend(BackendKind::Packed))
            .factorize(&set, &query, &mut r2)
            .unwrap();
        assert_eq!(a.indices, b.indices, "backends disagree under {binding:?}");
        assert_eq!(a.converged, b.converged);
        assert!((a.similarity - b.similarity).abs() < 1e-4);
        assert_eq!(a.indices, vec![2, 4]);
    }
}
