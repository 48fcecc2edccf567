//! Layer-by-layer replay of one solve call through public entry points.
//!
//! `solve_batch_with` runs encode → factorize → polish → predict → score as one
//! call, so its inside is invisible from the benchmark. The replay takes the same
//! problems and calls each layer separately, one span per call:
//!
//! * `workloads.encode`: the solver's packed encode route, spelled with the
//!   public sign-plane kernels — per block, `BitMatrix::gather_into` of the
//!   first factor's codebook planes and `BitMatrix::xor_gather_assign` of the
//!   others, then `BitMatrix::and_assign` to superpose the two blocks. (The
//!   public `encode_panels` runs the f32 route instead, about five times the
//!   cost of what a solve call spends on encoding.)
//! * `factorizer.decode`: one `Factorizer::factorize_matrix_bits_scratch` per
//!   attribute block, on block codebook sets built from `solver.codebooks()` with
//!   the threshold of `NeurosymbolicSolver::block_convergence_threshold`;
//! * `factorizer.polish`: the one-sweep unbind-and-cleanup repair, with one
//!   `vsa.cleanup` child span per `Codebook::cleanup_batch_bits_into` call.
//!
//! Interface bit flips are applied at the solver's `encoding_noise` rate in a
//! `replay.noise` span that belongs to no layer. Every noise stream is seeded from
//! the problem's position in the input stream, so a problem's factorization
//! result does not depend on which call it was batched into.

use crate::trace::{SpanId, Tracer};
use crate::{NOISE_TAG, STREAM_TAG};
use cogsys_datasets::{Panel, Problem};
use cogsys_factorizer::{FactorizationResult, Factorizer, FactorizerConfig, FactorizerScratch};
use cogsys_vsa::codebook::{BindingOp, CodebookSet};
use cogsys_vsa::{BitMatrix, CleanupScratch, VsaError};
use cogsys_workloads::NeurosymbolicSolver;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Attribute indices of the solver's two encoding blocks, (position ⊙ number ⊙
/// type) and (size ⊙ color) — the `[9, 9, 5 | 6, 10]` codebook split.
const BLOCKS: [&[usize]; 2] = [&[0, 1, 2], &[3, 4]];

/// SplitMix64 over a sequence of words: a seed that depends on every input.
pub fn mix(words: &[u64]) -> u64 {
    let mut h = 0x243f_6a88_85a3_08d3u64;
    for &w in words {
        h = h.wrapping_add(w).wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = h;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h = z ^ (z >> 31);
    }
    h
}

/// Replay state for one solver: block codebooks, a factorizer configured as the
/// solver's own, and reusable buffers.
pub struct Replay {
    blocks: Vec<CodebookSet>,
    factorizer: Factorizer,
    encoding_noise: f64,
    scratch: FactorizerScratch,
    panels: Vec<Panel>,
    streams: Vec<StdRng>,
    tuples: Vec<Vec<usize>>,
    idx: Vec<usize>,
    scenes: BitMatrix,
    block_scenes: BitMatrix,
    unbound: BitMatrix,
    est: BitMatrix,
    cleanup: CleanupScratch,
    cleaned: Vec<(usize, f32)>,
}

impl Replay {
    /// Builds the replay for `solver`.
    ///
    /// # Errors
    /// Propagates [`VsaError`] when a block codebook set cannot be built.
    pub fn new(solver: &NeurosymbolicSolver) -> Result<Self, VsaError> {
        let codebooks = solver.codebooks();
        let blocks = BLOCKS
            .iter()
            .map(|attrs| {
                let members = attrs
                    .iter()
                    .map(|&a| codebooks.factor(a).cloned())
                    .collect::<Result<Vec<_>, _>>()?;
                CodebookSet::new(members, BindingOp::Hadamard)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let config = solver.config();
        let threshold = NeurosymbolicSolver::block_convergence_threshold(BLOCKS.len())
            .min(config.factorizer.convergence_threshold);
        let factorizer_config = FactorizerConfig {
            convergence_threshold: threshold,
            ..config.factorizer.clone()
        }
        .with_backend(config.backend);
        Ok(Self {
            blocks,
            factorizer: Factorizer::with_backend(factorizer_config, Arc::clone(solver.backend())),
            encoding_noise: config.encoding_noise,
            scratch: FactorizerScratch::default(),
            panels: Vec::new(),
            streams: Vec::new(),
            tuples: Vec::new(),
            idx: Vec::new(),
            scenes: BitMatrix::default(),
            block_scenes: BitMatrix::default(),
            unbound: BitMatrix::default(),
            est: BitMatrix::default(),
            cleanup: CleanupScratch::default(),
            cleaned: Vec::new(),
        })
    }

    /// The factorizer's iteration budget (a query that ran it out hit the budget).
    pub fn max_iterations(&self) -> usize {
        self.factorizer.config().max_iterations
    }

    /// Replays `problems` (input positions `first_id ..`) under a `replay` span of
    /// call `batch`, appending every block's factorization rows to `rows`.
    ///
    /// # Errors
    /// Propagates [`VsaError`] from the layer calls.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        solver: &NeurosymbolicSolver,
        problems: &[Problem],
        first_id: u64,
        seed: u64,
        tracer: &mut Tracer,
        batch: u64,
        rows: &mut Vec<FactorizationResult>,
    ) -> Result<(), VsaError> {
        let root = tracer.open("replay", None, batch);
        self.panels.clear();
        for problem in problems {
            self.panels.extend_from_slice(&problem.context);
        }
        let span = tracer.open("workloads.encode", Some(root), batch);
        self.encode()?;
        tracer.close(span);
        let mut bits = std::mem::take(&mut self.scenes);

        let span = tracer.open("replay.noise", Some(root), batch);
        let panel_id = |row: usize| -> [u64; 2] {
            let per = NeurosymbolicSolver::CONTEXT_PANELS;
            [first_id + (row / per) as u64, (row % per) as u64]
        };
        for row in 0..bits.rows() {
            let [id, panel] = panel_id(row);
            let mut rng = StdRng::seed_from_u64(mix(&[seed, NOISE_TAG, id, panel]));
            flip_bernoulli(&mut bits, row, self.encoding_noise, &mut rng);
        }
        tracer.close(span);

        for b in 0..self.blocks.len() {
            self.streams.clear();
            self.streams.extend((0..bits.rows()).map(|row| {
                let [id, panel] = panel_id(row);
                StdRng::seed_from_u64(mix(&[seed, STREAM_TAG, id, panel, b as u64]))
            }));
            let span = tracer.open("factorizer.decode", Some(root), batch);
            let results = self.factorizer.factorize_matrix_bits_scratch(
                &self.blocks[b],
                &bits,
                &mut self.streams,
                &mut self.scratch,
            )?;
            tracer.close(span);
            let polish = tracer.open("factorizer.polish", Some(root), batch);
            self.polish(solver, b, &bits, &results, tracer, polish, batch)?;
            tracer.close(polish);
            rows.extend(results);
        }
        self.scenes = bits;
        tracer.close(root);
        Ok(())
    }

    /// Encodes `self.panels` into scene sign planes in `self.scenes`: each
    /// block's bound product is XOR-composed from the codebook planes, and the
    /// sign of the two-block superposition is the word-wise AND of the products.
    fn encode(&mut self) -> Result<(), VsaError> {
        for (b, (set, attrs)) in self.blocks.iter().zip(BLOCKS).enumerate() {
            let dst = if b == 0 {
                &mut self.scenes
            } else {
                &mut self.block_scenes
            };
            for (f, &attr) in attrs.iter().enumerate() {
                self.idx.clear();
                self.idx
                    .extend(self.panels.iter().map(|p| p.values()[attr]));
                let planes = set.factor(f)?.packed().ok_or(VsaError::Unsupported {
                    what: "replay encode needs packed codebooks",
                })?;
                if f == 0 {
                    planes.gather_into(&self.idx, dst)?;
                } else {
                    dst.xor_gather_assign(planes, &self.idx)?;
                }
            }
        }
        self.scenes.and_assign(&self.block_scenes)
    }

    /// The solver's one-sweep polish over block `b`: per factor, unbind the other
    /// factors' current estimates from the scene and clean up the remainder.
    #[allow(clippy::too_many_arguments)]
    fn polish(
        &mut self,
        solver: &NeurosymbolicSolver,
        b: usize,
        bits: &BitMatrix,
        results: &[FactorizationResult],
        tracer: &mut Tracer,
        parent: SpanId,
        batch: u64,
    ) -> Result<(), VsaError> {
        let set = &self.blocks[b];
        self.tuples.resize_with(results.len(), Vec::new);
        for (t, r) in self.tuples.iter_mut().zip(results) {
            t.clear();
            t.extend_from_slice(&r.indices);
        }
        for f in 0..set.num_factors() {
            self.unbound.copy_from(bits);
            for g in (0..set.num_factors()).filter(|&g| g != f) {
                self.idx.clear();
                self.idx.extend(self.tuples.iter().map(|t| t[g]));
                set.factor(g)?
                    .packed()
                    .ok_or(VsaError::Unsupported {
                        what: "replay polish needs packed codebooks",
                    })?
                    .gather_into(&self.idx, &mut self.est)?;
                self.unbound.xor_assign(&self.est)?;
            }
            let span = tracer.open("vsa.cleanup", Some(parent), batch);
            set.factor(f)?.cleanup_batch_bits_into(
                solver.backend().as_ref(),
                &self.unbound,
                &mut self.cleanup,
                &mut self.cleaned,
            )?;
            tracer.close(span);
            for (t, &(best, _)) in self.tuples.iter_mut().zip(&self.cleaned) {
                t[f] = best;
            }
        }
        Ok(())
    }
}

/// Flips each bit of row `row` independently with probability `p`, drawing
/// geometric gaps between flips instead of one coin per bit.
fn flip_bernoulli(bits: &mut BitMatrix, row: usize, p: f64, rng: &mut StdRng) {
    if p <= 0.0 {
        return;
    }
    let dim = bits.dim();
    let log_q = (1.0 - p.min(1.0)).ln();
    let mut j = 0usize;
    loop {
        let gap = if log_q == f64::NEG_INFINITY {
            0.0
        } else {
            ((1.0 - rng.gen::<f64>()).ln() / log_q).floor()
        };
        if gap >= (dim - j) as f64 {
            return;
        }
        j += gap as usize;
        bits.flip_bit(row, j);
        j += 1;
        if j >= dim {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogsys_datasets::{DatasetKind, ProblemGenerator};
    use cogsys_workloads::SolverConfig;

    #[test]
    fn packed_encode_matches_the_solver_encode() {
        let config = SolverConfig {
            vector_dim: 512,
            ..SolverConfig::default()
        };
        let solver = NeurosymbolicSolver::new(config, &mut StdRng::seed_from_u64(1));
        let problems = ProblemGenerator::new(DatasetKind::Raven)
            .generate_batch(4, &mut StdRng::seed_from_u64(2));
        let mut replay = Replay::new(&solver).unwrap();
        replay.panels = problems.iter().flat_map(|p| p.context.clone()).collect();
        replay.encode().unwrap();
        let dense = solver.encode_panels(&replay.panels).unwrap();
        assert_eq!(Some(replay.scenes), BitMatrix::from_matrix(&dense));
    }

    #[test]
    fn bernoulli_flips_match_their_rate() {
        let mut bits = BitMatrix::zeros(64, 4096);
        let before = bits.clone();
        let mut rng = StdRng::seed_from_u64(3);
        for row in 0..64 {
            flip_bernoulli(&mut bits, row, 0.01, &mut rng);
        }
        let flipped: i64 = (0..64)
            .map(|r| i64::from(4096 - before.dot_rows(r, &bits, r)) / 2)
            .sum();
        // 64 × 4096 × 0.01 ≈ 2621 expected flips, standard deviation ≈ 51.
        assert!((2300..2950).contains(&flipped), "flipped {flipped}");
    }

    #[test]
    fn mix_depends_on_every_word() {
        assert_ne!(mix(&[1, 2]), mix(&[2, 1]));
        assert_ne!(mix(&[1, 2]), mix(&[1, 2, 0]));
        assert_eq!(mix(&[7, 9]), mix(&[7, 9]));
    }
}
