//! Batched VSA execution engine.
//!
//! The paper's performance story (Sec. IV–VI) treats circular convolution, similarity
//! search and bundling as *batch* kernels mapped onto a shared compute array. This
//! module is the software seam for that view: a contiguous row-major matrix of
//! hypervectors ([`HvMatrix`]) plus a pluggable execution backend ([`VsaBackend`])
//! exposing the array-level operations — batched binding/unbinding, bundling,
//! codebook-vs-queries similarity (GEMM-style) and batched cleanup.
//!
//! Two implementations ship:
//!
//! * [`DenseBackend`] — `f32` rows on the calling thread, with cached FFT plans
//!   (precomputed twiddle/bit-reversal tables), reusable FFT scratch and lane-split
//!   similarity;
//! * [`PackedBackend`] (the default) — bit-packed sign planes with XOR binding and
//!   popcount similarity for the bipolar MAP/Hadamard algebra, falling back to
//!   [`DenseBackend`] elsewhere, and accepting pre-packed
//!   [`crate::packed::BitMatrix`] queries through the `*_bits` surface.
//!
//! The scalar functions in [`crate::ops`] are the oracle both backends are tested
//! against. Compatibility contract: binding/unbinding (Hadamard and circular, planned
//! FFT included — the plans replay the [`crate::ops`] twiddle recurrence), bundling and
//! projection are **bitwise identical** to [`crate::ops`] per row; the similarity
//! kernels (`similarity_matrix`, `cleanup_batch`) use lane-split accumulation for SIMD
//! throughput and agree with [`crate::ops::matvec_similarity`] and the
//! [`crate::ops::cosine_similarity`] argmax within **1e-4 cosine**.

use crate::codebook::BindingOp;
use crate::error::VsaError;
use crate::fft::{self, Complex, FftPlan};
use crate::hypervector::{Hypervector, VsaKind};
use crate::packed::{BitMatrix, PackedBackend};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// A dense, row-major, contiguous batch of `rows` hypervectors of dimension `dim`.
///
/// This is the storage layout the accelerator's SRAM model assumes and the unit of
/// work every [`VsaBackend`] operation consumes: one row per hypervector, rows packed
/// back to back in a single `Vec<f32>`.
///
/// # Example
/// ```
/// use cogsys_vsa::batch::HvMatrix;
/// use cogsys_vsa::Hypervector;
///
/// let rows = vec![
///     Hypervector::from_values(vec![1.0, 2.0]),
///     Hypervector::from_values(vec![3.0, 4.0]),
/// ];
/// let m = HvMatrix::from_rows(&rows).unwrap();
/// assert_eq!((m.rows(), m.dim()), (2, 2));
/// assert_eq!(m.row(1), &[3.0, 4.0]);
/// assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HvMatrix {
    data: Vec<f32>,
    rows: usize,
    dim: usize,
}

impl HvMatrix {
    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        Self {
            data: vec![0.0; rows * dim],
            rows,
            dim,
        }
    }

    /// Wraps an existing contiguous buffer.
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] when `data.len() != rows * dim`.
    pub fn from_vec(data: Vec<f32>, rows: usize, dim: usize) -> Result<Self, VsaError> {
        if data.len() != rows * dim {
            return Err(VsaError::DimensionMismatch {
                left: data.len(),
                right: rows * dim,
            });
        }
        Ok(Self { data, rows, dim })
    }

    /// Packs a slice of hypervectors into a contiguous matrix (one row each).
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] if the vectors disagree in dimension.
    /// An empty slice yields the empty `0 × 0` matrix.
    pub fn from_rows(rows: &[Hypervector]) -> Result<Self, VsaError> {
        let Some(first) = rows.first() else {
            return Ok(Self::default());
        };
        let dim = first.dim();
        let mut data = Vec::with_capacity(rows.len() * dim);
        for hv in rows {
            if hv.dim() != dim {
                return Err(VsaError::DimensionMismatch {
                    left: dim,
                    right: hv.dim(),
                });
            }
            data.extend_from_slice(hv.values());
        }
        Ok(Self {
            data,
            rows: rows.len(),
            dim,
        })
    }

    /// A single-row matrix holding a copy of `hv`.
    pub fn from_hypervector(hv: &Hypervector) -> Self {
        Self {
            data: hv.values().to_vec(),
            rows: 1,
            dim: hv.dim(),
        }
    }

    /// A matrix whose every row is a copy of `hv`.
    pub fn broadcast(hv: &Hypervector, rows: usize) -> Self {
        let mut data = Vec::with_capacity(rows * hv.dim());
        for _ in 0..rows {
            data.extend_from_slice(hv.values());
        }
        Self {
            data,
            rows,
            dim: hv.dim(),
        }
    }

    /// Number of rows (hypervectors).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Dimensionality of each row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Returns `true` when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The whole matrix as one contiguous slice, row-major.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the contiguous storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    /// Panics when `i >= rows()`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutable row `i`.
    ///
    /// # Panics
    /// Panics when `i >= rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterates over the rows as slices.
    pub fn row_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.dim.max(1))
    }

    /// Overwrites row `i` with `values`.
    ///
    /// # Errors
    /// Returns [`VsaError::IndexOutOfRange`] / [`VsaError::DimensionMismatch`] on a bad
    /// row index or length.
    pub fn set_row(&mut self, i: usize, values: &[f32]) -> Result<(), VsaError> {
        if i >= self.rows {
            return Err(VsaError::IndexOutOfRange {
                index: i,
                len: self.rows,
            });
        }
        if values.len() != self.dim {
            return Err(VsaError::DimensionMismatch {
                left: values.len(),
                right: self.dim,
            });
        }
        self.row_mut(i).copy_from_slice(values);
        Ok(())
    }

    /// Appends one row.
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] if `values.len()` differs from `dim()`
    /// (the first pushed row fixes the dimension of an empty matrix).
    pub fn push_row(&mut self, values: &[f32]) -> Result<(), VsaError> {
        if self.rows == 0 && self.dim == 0 {
            self.dim = values.len();
        }
        if values.len() != self.dim {
            return Err(VsaError::DimensionMismatch {
                left: values.len(),
                right: self.dim,
            });
        }
        self.data.extend_from_slice(values);
        self.rows += 1;
        Ok(())
    }

    /// Capacity of the backing element buffer — a reallocation fingerprint for
    /// steady-state-allocation regression tests ([`HvMatrix::ensure_shape`]
    /// never shrinks it).
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Reshapes the buffer to `rows × dim` for reuse as an output buffer (avoids
    /// reallocation when the capacity already suffices). Contents are preserved when
    /// the shape is unchanged and **zeroed on any shape change** — a plain `resize`
    /// would silently reinterpret stale elements under the new `(rows, dim)` layout.
    pub fn ensure_shape(&mut self, rows: usize, dim: usize) {
        if self.rows == rows && self.dim == dim {
            return;
        }
        // clear() drops the length to zero first, so resize() zero-fills everything.
        self.data.clear();
        self.data.resize(rows * dim, 0.0);
        self.rows = rows;
        self.dim = dim;
    }

    /// Selects `indices` rows into a new matrix (used to gather decoded codevectors).
    ///
    /// # Errors
    /// Returns [`VsaError::IndexOutOfRange`] on a bad row index.
    pub fn gather(&self, indices: &[usize]) -> Result<Self, VsaError> {
        let mut data = Vec::with_capacity(indices.len() * self.dim);
        for &i in indices {
            if i >= self.rows {
                return Err(VsaError::IndexOutOfRange {
                    index: i,
                    len: self.rows,
                });
            }
            data.extend_from_slice(self.row(i));
        }
        Ok(Self {
            data,
            rows: indices.len(),
            dim: self.dim,
        })
    }

    /// Allocation-free [`HvMatrix::gather`]: selects `indices` rows into `out`
    /// (reshaped as needed). `out` must not alias `self`.
    ///
    /// # Errors
    /// Returns [`VsaError::IndexOutOfRange`] on a bad row index.
    pub fn gather_into(&self, indices: &[usize], out: &mut Self) -> Result<(), VsaError> {
        out.ensure_shape(indices.len(), self.dim);
        for (slot, &i) in indices.iter().enumerate() {
            if i >= self.rows {
                return Err(VsaError::IndexOutOfRange {
                    index: i,
                    len: self.rows,
                });
            }
            out.row_mut(slot).copy_from_slice(self.row(i));
        }
        Ok(())
    }

    /// Copies `src` into `self`, reshaping as needed (allocation-free once warm).
    pub fn copy_from(&mut self, src: &Self) {
        self.ensure_shape(src.rows, src.dim);
        self.data.copy_from_slice(&src.data);
    }

    /// Converts row `i` into an owned [`Hypervector`] with the given kind tag.
    ///
    /// # Errors
    /// Returns [`VsaError::IndexOutOfRange`] on a bad row index.
    pub fn row_hypervector(&self, i: usize, kind: VsaKind) -> Result<Hypervector, VsaError> {
        if i >= self.rows {
            return Err(VsaError::IndexOutOfRange {
                index: i,
                len: self.rows,
            });
        }
        Ok(Hypervector::with_kind(self.row(i).to_vec(), kind))
    }

    /// Unpacks into owned hypervectors, all tagged `kind`.
    pub fn to_hypervectors(&self, kind: VsaKind) -> Vec<Hypervector> {
        (0..self.rows)
            .map(|i| Hypervector::with_kind(self.row(i).to_vec(), kind))
            .collect()
    }

    /// Consumes the matrix and returns the contiguous storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }
}

/// Which [`VsaBackend`] implementation a pipeline runs on.
///
/// Threaded through `SolverConfig` / `FactorizerConfig` so backend selection reaches
/// every layer from `cogsys-core` down without plumbing trait objects through config
/// structs (configs stay `Clone + PartialEq + Serialize`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum BackendKind {
    /// Dense `f32` execution with cached FFT plans ([`DenseBackend`]).
    Dense,
    /// Bit-packed bipolar execution — XOR binding and popcount similarity for the
    /// MAP/Hadamard algebra, dense fallback otherwise ([`PackedBackend`]).
    ///
    /// The **default**: every hot pipeline in the repository runs bipolar Hadamard
    /// configurations, where the packed kernels are exact and several times faster;
    /// HRR/circular-convolution and non-bipolar workloads transparently run on the
    /// wrapped [`DenseBackend`].
    #[default]
    Packed,
}

impl BackendKind {
    /// Every selectable backend.
    pub const ALL: [BackendKind; 2] = [BackendKind::Dense, BackendKind::Packed];

    /// Instantiates the backend this kind names.
    pub fn create(self) -> Arc<dyn VsaBackend> {
        match self {
            BackendKind::Dense => Arc::new(DenseBackend::new()),
            BackendKind::Packed => Arc::new(PackedBackend::new()),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::Dense => write!(f, "dense"),
            BackendKind::Packed => write!(f, "packed"),
        }
    }
}

fn check_same_shape(a: &HvMatrix, b: &HvMatrix) -> Result<(), VsaError> {
    if a.rows() != b.rows() {
        return Err(VsaError::DimensionMismatch {
            left: a.rows(),
            right: b.rows(),
        });
    }
    if a.dim() != b.dim() {
        return Err(VsaError::DimensionMismatch {
            left: a.dim(),
            right: b.dim(),
        });
    }
    Ok(())
}

/// The batched execution engine every pipeline layer talks to.
///
/// All operations are *batch*-shaped: operands are [`HvMatrix`] values and the
/// per-row semantics exactly match the scalar functions in [`crate::ops`]. The
/// `*_into` variants are the required methods so implementations can be allocation-free
/// in steady state; the allocating variants are provided conveniences.
pub trait VsaBackend: Send + Sync + std::fmt::Debug {
    /// Short identifier for logs and benchmark output.
    fn name(&self) -> &'static str;

    /// The bit-packed bipolar fast path, when this backend has one.
    ///
    /// Layers that cache packed operands (codebook sign planes, the factorizer's
    /// packed estimates) probe this to route around the `f32` surface; the default of
    /// `None` keeps the dense backend on the dense path.
    fn as_packed(&self) -> Option<&PackedBackend> {
        None
    }

    /// Row-wise binding: `out[i] = bind(a[i], b[i])` under `op`, writing into `out`
    /// (reshaped as needed).
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] when `a` and `b` disagree in shape.
    fn bind_batch_into(
        &self,
        a: &HvMatrix,
        b: &HvMatrix,
        op: BindingOp,
        out: &mut HvMatrix,
    ) -> Result<(), VsaError>;

    /// Row-wise unbinding, the approximate inverse of [`VsaBackend::bind_batch_into`]
    /// (`⊘` for Hadamard, circular correlation for convolution binding).
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] when `a` and `b` disagree in shape.
    fn unbind_batch_into(
        &self,
        a: &HvMatrix,
        b: &HvMatrix,
        op: BindingOp,
        out: &mut HvMatrix,
    ) -> Result<(), VsaError>;

    /// GEMM-style similarity: `out[q][m] = queries[q] · codebook[m]`, with `out`
    /// reshaped to `queries.rows() × codebook.rows()`.
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] when the dimensionalities disagree.
    fn similarity_matrix_into(
        &self,
        codebook: &HvMatrix,
        queries: &HvMatrix,
        out: &mut HvMatrix,
    ) -> Result<(), VsaError>;

    /// Batched weighted superposition (the factorizer's projection step):
    /// `out[q] = Σ_m weights[q][m] · codebook[m]`, with `out` reshaped to
    /// `weights.rows() × codebook.dim()`.
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] when `weights.dim() != codebook.rows()`
    /// and [`VsaError::Empty`] for an empty codebook.
    fn project_batch_into(
        &self,
        codebook: &HvMatrix,
        weights: &HvMatrix,
        out: &mut HvMatrix,
    ) -> Result<(), VsaError>;

    /// Bundles (superposes) all rows into a single hypervector, matching
    /// [`crate::ops::bundle`].
    ///
    /// # Errors
    /// Returns [`VsaError::Empty`] for a matrix with no rows.
    fn bundle(&self, items: &HvMatrix) -> Result<Hypervector, VsaError>;

    /// Batched cleanup: for each query row, the index and cosine similarity of the
    /// best-matching codebook row (ties resolve to the first, zero-norm pairs score 0).
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] when the dimensionalities disagree and
    /// [`VsaError::Empty`] for an empty codebook.
    fn cleanup_batch(
        &self,
        codebook: &HvMatrix,
        queries: &HvMatrix,
    ) -> Result<Vec<(usize, f32)>, VsaError>;

    /// Batched cleanup with **bit-packed** queries: callers that already hold sign
    /// planes (the packed resonator's estimates, a packed-encoded scene batch) pass
    /// them directly instead of round-tripping through `f32` and re-packing per call.
    ///
    /// The default unpacks the queries and delegates to
    /// [`VsaBackend::cleanup_batch`]; [`PackedBackend`] overrides it to stay entirely
    /// in sign planes. Results are identical to cleaning up the unpacked queries.
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] when the dimensionalities disagree and
    /// [`VsaError::Empty`] for an empty codebook.
    fn cleanup_batch_bits(
        &self,
        codebook: &HvMatrix,
        queries: &BitMatrix,
    ) -> Result<Vec<(usize, f32)>, VsaError> {
        let mut dense = HvMatrix::default();
        queries.unpack_into(&mut dense);
        self.cleanup_batch(codebook, &dense)
    }

    /// GEMM-style similarity with **bit-packed** queries (see
    /// [`VsaBackend::cleanup_batch_bits`] for the motivation). The default unpacks and
    /// delegates to [`VsaBackend::similarity_matrix_into`].
    ///
    /// # Errors
    /// Returns [`VsaError::DimensionMismatch`] when the dimensionalities disagree.
    fn similarity_matrix_bits_into(
        &self,
        codebook: &HvMatrix,
        queries: &BitMatrix,
        out: &mut HvMatrix,
    ) -> Result<(), VsaError> {
        let mut dense = HvMatrix::default();
        queries.unpack_into(&mut dense);
        self.similarity_matrix_into(codebook, &dense, out)
    }

    /// Allocating variant of [`VsaBackend::bind_batch_into`].
    ///
    /// # Errors
    /// See [`VsaBackend::bind_batch_into`].
    fn bind_batch(&self, a: &HvMatrix, b: &HvMatrix, op: BindingOp) -> Result<HvMatrix, VsaError> {
        let mut out = HvMatrix::default();
        self.bind_batch_into(a, b, op, &mut out)?;
        Ok(out)
    }

    /// Allocating variant of [`VsaBackend::unbind_batch_into`].
    ///
    /// # Errors
    /// See [`VsaBackend::unbind_batch_into`].
    fn unbind_batch(
        &self,
        a: &HvMatrix,
        b: &HvMatrix,
        op: BindingOp,
    ) -> Result<HvMatrix, VsaError> {
        let mut out = HvMatrix::default();
        self.unbind_batch_into(a, b, op, &mut out)?;
        Ok(out)
    }

    /// Allocating variant of [`VsaBackend::similarity_matrix_into`].
    ///
    /// # Errors
    /// See [`VsaBackend::similarity_matrix_into`].
    fn similarity_matrix(
        &self,
        codebook: &HvMatrix,
        queries: &HvMatrix,
    ) -> Result<HvMatrix, VsaError> {
        let mut out = HvMatrix::default();
        self.similarity_matrix_into(codebook, queries, &mut out)?;
        Ok(out)
    }

    /// Allocating variant of [`VsaBackend::project_batch_into`].
    ///
    /// # Errors
    /// See [`VsaBackend::project_batch_into`].
    fn project_batch(&self, codebook: &HvMatrix, weights: &HvMatrix) -> Result<HvMatrix, VsaError> {
        let mut out = HvMatrix::default();
        self.project_batch_into(codebook, weights, &mut out)?;
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Row kernels
// ---------------------------------------------------------------------------

fn hadamard_row(a: &[f32], b: &[f32], out: &mut [f32]) {
    for ((slot, x), y) in out.iter_mut().zip(a).zip(b) {
        *slot = x * y;
    }
}

fn convolve_row_naive(a: &[f32], b: &[f32], out: &mut [f32]) {
    let d = a.len();
    for (n, slot) in out.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for k in 0..d {
            acc += a[k] * b[(n + d - k) % d];
        }
        *slot = acc;
    }
}

fn correlate_row_naive(a: &[f32], b: &[f32], out: &mut [f32]) {
    let d = a.len();
    for (n, slot) in out.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for k in 0..d {
            acc += a[k] * b[(n + k) % d];
        }
        *slot = acc;
    }
}

/// Dot product with eight independent accumulators.
///
/// The [`crate::ops`] dot is a strict left-to-right f32 sum — a serial dependency
/// chain the compiler may not reorder, so it can neither vectorise nor hide FP
/// latency. Splitting the sum across lanes breaks the chain (SIMD + ILP) at the cost
/// of a different — not worse — rounding order; the backend contract only promises
/// 1e-4 cosine agreement for the similarity kernels.
fn dot_row_fast(a: &[f32], b: &[f32]) -> f32 {
    const LANES: usize = 8;
    let mut acc = [0.0f32; LANES];
    let chunks_a = a.chunks_exact(LANES);
    let chunks_b = b.chunks_exact(LANES);
    let tail: f32 = chunks_a
        .remainder()
        .iter()
        .zip(chunks_b.remainder())
        .map(|(x, y)| x * y)
        .sum();
    for (xa, xb) in chunks_a.zip(chunks_b) {
        for l in 0..LANES {
            acc[l] += xa[l] * xb[l];
        }
    }
    let p0 = (acc[0] + acc[4]) + (acc[1] + acc[5]);
    let p1 = (acc[2] + acc[6]) + (acc[3] + acc[7]);
    p0 + p1 + tail
}

fn norm_row_fast(a: &[f32]) -> f32 {
    dot_row_fast(a, a).sqrt()
}

fn cleanup_row_fast(codebook: &HvMatrix, codebook_norms: &[f32], query: &[f32]) -> (usize, f32) {
    let q_norm = norm_row_fast(query);
    let mut best = (0usize, f32::NEG_INFINITY);
    for (m, row) in codebook.row_iter().enumerate() {
        let denom = codebook_norms[m] * q_norm;
        let sim = if denom == 0.0 {
            0.0
        } else {
            dot_row_fast(row, query) / denom
        };
        if sim > best.1 {
            best = (m, sim);
        }
    }
    best
}

fn project_row(codebook: &HvMatrix, weights: &[f32], out: &mut [f32]) {
    out.fill(0.0);
    for (row, &w) in codebook.row_iter().zip(weights) {
        for (slot, v) in out.iter_mut().zip(row) {
            *slot += w * v;
        }
    }
}

fn check_gemm_shapes(codebook: &HvMatrix, queries: &HvMatrix) -> Result<(), VsaError> {
    if codebook.dim() != queries.dim() {
        return Err(VsaError::DimensionMismatch {
            left: codebook.dim(),
            right: queries.dim(),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Dense backend
// ---------------------------------------------------------------------------

/// The dense `f32` batch backend, one row at a time on the calling thread.
///
/// * Power-of-two circular convolution/correlation uses cached [`FftPlan`]s —
///   twiddle factors and the bit-reversal permutation are computed once per dimension
///   and shared across calls — and is bitwise identical to [`crate::ops`]. The FFT
///   scratch buffers live in a thread-local, so the factorizer's inner loop performs
///   no per-iteration allocation beyond first use.
/// * The similarity kernels use eight-lane accumulation ([`dot_row_fast`]) so they
///   vectorise; they agree with [`crate::ops`] within the 1e-4 cosine contract.
/// * Hadamard binding, bundling and projection keep the [`crate::ops`] summation
///   order and are bitwise identical to it.
#[derive(Debug, Default)]
pub struct DenseBackend {
    plans: Mutex<HashMap<usize, Arc<FftPlan>>>,
}

impl DenseBackend {
    /// Creates a dense backend with an empty FFT plan cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetches (or builds and caches) the FFT plan for power-of-two `dim`.
    fn plan(&self, dim: usize) -> Option<Arc<FftPlan>> {
        if !fft::is_power_of_two(dim) {
            return None;
        }
        // The cache only holds immutable plans, so a panic while the lock was held
        // cannot have left it inconsistent: recover the guard instead of panicking.
        let mut plans = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
        Some(Arc::clone(
            plans
                .entry(dim)
                .or_insert_with(|| Arc::new(FftPlan::new(dim))),
        ))
    }

    fn bind_or_unbind_into(
        &self,
        a: &HvMatrix,
        b: &HvMatrix,
        op: BindingOp,
        correlate: bool,
        out: &mut HvMatrix,
    ) -> Result<(), VsaError> {
        check_same_shape(a, b)?;
        out.ensure_shape(a.rows(), a.dim());
        let rows = 0..a.rows();
        match op {
            BindingOp::Hadamard => {
                for i in rows {
                    hadamard_row(a.row(i), b.row(i), out.row_mut(i));
                }
            }
            BindingOp::CircularConvolution => match self.plan(a.dim()) {
                Some(plan) => {
                    // O(d log d) planned path; the scratch buffers are reused across
                    // rows and calls.
                    thread_local! {
                        static FFT_SCRATCH: RefCell<(Vec<Complex>, Vec<Complex>)> =
                            const { RefCell::new((Vec::new(), Vec::new())) };
                    }
                    FFT_SCRATCH.with(|cell| {
                        let (scratch_a, scratch_b) = &mut *cell.borrow_mut();
                        for i in rows {
                            let (ra, rb, row) = (a.row(i), b.row(i), out.row_mut(i));
                            if correlate {
                                plan.circular_correlate_into(ra, rb, row, scratch_a, scratch_b);
                            } else {
                                plan.circular_convolve_into(ra, rb, row, scratch_a, scratch_b);
                            }
                        }
                    });
                }
                None => {
                    for i in rows {
                        if correlate {
                            correlate_row_naive(a.row(i), b.row(i), out.row_mut(i));
                        } else {
                            convolve_row_naive(a.row(i), b.row(i), out.row_mut(i));
                        }
                    }
                }
            },
        }
        Ok(())
    }
}

impl VsaBackend for DenseBackend {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn bind_batch_into(
        &self,
        a: &HvMatrix,
        b: &HvMatrix,
        op: BindingOp,
        out: &mut HvMatrix,
    ) -> Result<(), VsaError> {
        self.bind_or_unbind_into(a, b, op, false, out)
    }

    fn unbind_batch_into(
        &self,
        a: &HvMatrix,
        b: &HvMatrix,
        op: BindingOp,
        out: &mut HvMatrix,
    ) -> Result<(), VsaError> {
        self.bind_or_unbind_into(a, b, op, true, out)
    }

    fn similarity_matrix_into(
        &self,
        codebook: &HvMatrix,
        queries: &HvMatrix,
        out: &mut HvMatrix,
    ) -> Result<(), VsaError> {
        check_gemm_shapes(codebook, queries)?;
        out.ensure_shape(queries.rows(), codebook.rows());
        for q in 0..queries.rows() {
            let query = queries.row(q);
            for (slot, row) in out.row_mut(q).iter_mut().zip(codebook.row_iter()) {
                *slot = dot_row_fast(row, query);
            }
        }
        Ok(())
    }

    fn project_batch_into(
        &self,
        codebook: &HvMatrix,
        weights: &HvMatrix,
        out: &mut HvMatrix,
    ) -> Result<(), VsaError> {
        if codebook.rows() == 0 {
            return Err(VsaError::Empty { what: "codebook" });
        }
        if weights.dim() != codebook.rows() {
            return Err(VsaError::DimensionMismatch {
                left: weights.dim(),
                right: codebook.rows(),
            });
        }
        out.ensure_shape(weights.rows(), codebook.dim());
        for q in 0..weights.rows() {
            project_row(codebook, weights.row(q), out.row_mut(q));
        }
        Ok(())
    }

    fn bundle(&self, items: &HvMatrix) -> Result<Hypervector, VsaError> {
        // Sequential column accumulation in row order, the `ops::bundle` order.
        if items.rows() == 0 {
            return Err(VsaError::Empty {
                what: "bundle input",
            });
        }
        let mut acc = items.row(0).to_vec();
        for row in items.row_iter().skip(1) {
            for (slot, v) in acc.iter_mut().zip(row) {
                *slot += v;
            }
        }
        Ok(Hypervector::with_kind(acc, VsaKind::Dense))
    }

    fn cleanup_batch(
        &self,
        codebook: &HvMatrix,
        queries: &HvMatrix,
    ) -> Result<Vec<(usize, f32)>, VsaError> {
        if codebook.rows() == 0 {
            return Err(VsaError::Empty { what: "codebook" });
        }
        check_gemm_shapes(codebook, queries)?;
        let norms: Vec<f32> = codebook.row_iter().map(norm_row_fast).collect();
        Ok((0..queries.rows())
            .map(|q| cleanup_row_fast(codebook, &norms, queries.row(q)))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ops, rng};

    fn random_matrix(rows: usize, dim: usize, seed: u64) -> HvMatrix {
        let mut r = rng(seed);
        let hvs: Vec<Hypervector> = (0..rows)
            .map(|_| Hypervector::random_real(dim, &mut r))
            .collect();
        HvMatrix::from_rows(&hvs).unwrap()
    }

    #[test]
    fn hv_matrix_round_trips_hypervectors() {
        let mut r = rng(1);
        let hvs: Vec<Hypervector> = (0..4)
            .map(|_| Hypervector::random_bipolar(16, &mut r))
            .collect();
        let m = HvMatrix::from_rows(&hvs).unwrap();
        assert_eq!(m.rows(), 4);
        assert_eq!(m.dim(), 16);
        let back = m.to_hypervectors(VsaKind::Bipolar);
        for (orig, round) in hvs.iter().zip(&back) {
            assert_eq!(orig.values(), round.values());
        }
    }

    #[test]
    fn hv_matrix_rejects_ragged_rows() {
        let bad = vec![Hypervector::zeros(4), Hypervector::zeros(8)];
        assert!(matches!(
            HvMatrix::from_rows(&bad),
            Err(VsaError::DimensionMismatch { .. })
        ));
        assert!(HvMatrix::from_vec(vec![0.0; 7], 2, 4).is_err());
    }

    #[test]
    fn hv_matrix_push_and_gather() {
        let mut m = HvMatrix::default();
        m.push_row(&[1.0, 2.0]).unwrap();
        m.push_row(&[3.0, 4.0]).unwrap();
        assert!(m.push_row(&[5.0]).is_err());
        let g = m.gather(&[1, 0, 1]).unwrap();
        assert_eq!(g.rows(), 3);
        assert_eq!(g.row(0), &[3.0, 4.0]);
        assert_eq!(g.row(2), &[3.0, 4.0]);
        assert!(m.gather(&[2]).is_err());
    }

    #[test]
    fn every_backend_matches_the_ops_oracle() {
        for backend in BackendKind::ALL.map(BackendKind::create) {
            let name = backend.name();
            for dim in [8usize, 12, 64, 100] {
                let a = random_matrix(5, dim, 10 + dim as u64);
                let b = random_matrix(5, dim, 20 + dim as u64);
                let (ha, hb) = (
                    a.to_hypervectors(VsaKind::Real),
                    b.to_hypervectors(VsaKind::Real),
                );
                // Binding and unbinding are bitwise identical to the scalar ops per row.
                let bind = backend.bind_batch(&a, &b, BindingOp::Hadamard).unwrap();
                let unbind = backend.unbind_batch(&a, &b, BindingOp::Hadamard).unwrap();
                let conv = backend
                    .bind_batch(&a, &b, BindingOp::CircularConvolution)
                    .unwrap();
                let corr = backend
                    .unbind_batch(&a, &b, BindingOp::CircularConvolution)
                    .unwrap();
                for i in 0..5 {
                    let had = ops::hadamard_bind(&ha[i], &hb[i]).unwrap();
                    assert_eq!(bind.row(i), had.values(), "{name} bind dim {dim}");
                    assert_eq!(unbind.row(i), had.values(), "{name} unbind dim {dim}");
                    let c = ops::try_circular_convolve(&ha[i], &hb[i]).unwrap();
                    assert_eq!(conv.row(i), c.values(), "{name} convolve dim {dim}");
                    let c = ops::try_circular_correlate(&ha[i], &hb[i]).unwrap();
                    assert_eq!(corr.row(i), c.values(), "{name} correlate dim {dim}");
                }
                assert_eq!(
                    backend.bundle(&a).unwrap().values(),
                    ops::bundle(&ha).unwrap().values(),
                    "{name} bundle dim {dim}"
                );
                // The similarity kernels use lane-split accumulation; they agree with
                // the strict scalar sums within the documented tolerance.
                let codebook = random_matrix(9, dim, 30 + dim as u64);
                let code = codebook.to_hypervectors(VsaKind::Real);
                let sims = backend.similarity_matrix(&codebook, &a).unwrap();
                let cleanup = backend.cleanup_batch(&codebook, &a).unwrap();
                let projected = backend.project_batch(&codebook, &sims).unwrap();
                for (q, query) in ha.iter().enumerate() {
                    let scalar = ops::matvec_similarity(&code, query).unwrap();
                    for (x, y) in sims.row(q).iter().zip(&scalar) {
                        assert!(
                            (x - y).abs() < 1e-4,
                            "{name} similarity dim {dim}: {x} vs {y}"
                        );
                    }
                    let cosines: Vec<f32> = code
                        .iter()
                        .map(|row| ops::cosine_similarity(row, query))
                        .collect();
                    let best = ops::argmax(&cosines).unwrap();
                    assert_eq!(cleanup[q].0, best, "{name} cleanup index dim {dim}");
                    assert!(
                        (cleanup[q].1 - cosines[best]).abs() < 1e-4,
                        "{name} cleanup sim dim {dim}"
                    );
                    // Projection keeps the scalar summation order: bitwise identical.
                    let expected = ops::weighted_superposition(&code, sims.row(q)).unwrap();
                    assert_eq!(
                        projected.row(q),
                        expected.values(),
                        "{name} project dim {dim}"
                    );
                }
            }
        }
    }

    #[test]
    fn poisoned_plan_cache_still_serves_plans() {
        let backend = DenseBackend::new();
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = backend.plans.lock().unwrap();
            panic!("poisoning the plan cache on purpose");
        }));
        assert!(poisoned.is_err());
        assert!(backend.plans.is_poisoned());
        let a = random_matrix(2, 64, 40);
        let b = random_matrix(2, 64, 41);
        let bound = backend
            .bind_batch(&a, &b, BindingOp::CircularConvolution)
            .unwrap();
        for i in 0..2 {
            let expected = ops::try_circular_convolve(
                &Hypervector::from_values(a.row(i).to_vec()),
                &Hypervector::from_values(b.row(i).to_vec()),
            )
            .unwrap();
            assert_eq!(bound.row(i), expected.values(), "row {i}");
        }
    }

    #[test]
    fn bind_batch_matches_scalar_ops() {
        let mut r = rng(33);
        let a: Vec<Hypervector> = (0..3)
            .map(|_| Hypervector::random_bipolar(32, &mut r))
            .collect();
        let b: Vec<Hypervector> = (0..3)
            .map(|_| Hypervector::random_bipolar(32, &mut r))
            .collect();
        let ma = HvMatrix::from_rows(&a).unwrap();
        let mb = HvMatrix::from_rows(&b).unwrap();
        for backend in BackendKind::ALL.map(BackendKind::create) {
            let bound = backend
                .bind_batch(&ma, &mb, BindingOp::CircularConvolution)
                .unwrap();
            for i in 0..3 {
                let scalar = ops::circular_convolve(&a[i], &b[i]);
                assert_eq!(bound.row(i), scalar.values(), "{} row {i}", backend.name());
            }
            let had = backend.bind_batch(&ma, &mb, BindingOp::Hadamard).unwrap();
            for i in 0..3 {
                let scalar = ops::hadamard_bind(&a[i], &b[i]).unwrap();
                assert_eq!(had.row(i), scalar.values());
            }
        }
    }

    #[test]
    fn similarity_matrix_matches_matvec() {
        let mut r = rng(34);
        let code: Vec<Hypervector> = (0..6)
            .map(|_| Hypervector::random_bipolar(64, &mut r))
            .collect();
        let query = Hypervector::random_bipolar(64, &mut r);
        let cb = HvMatrix::from_rows(&code).unwrap();
        let q = HvMatrix::from_hypervector(&query);
        let scalar = ops::matvec_similarity(&code, &query).unwrap();
        for backend in BackendKind::ALL.map(BackendKind::create) {
            let sims = backend.similarity_matrix(&cb, &q).unwrap();
            for (x, y) in sims.row(0).iter().zip(&scalar) {
                assert!((x - y).abs() < 1e-3, "{}: {x} vs {y}", backend.name());
            }
        }
    }

    #[test]
    fn cleanup_batch_matches_codebook_cleanup() {
        let mut r = rng(35);
        let cb = crate::Codebook::random("c", 12, 256, &mut r);
        let queries: Vec<Hypervector> = (0..5)
            .map(|i| ops::flip_noise(cb.vector(i * 2).unwrap(), 0.15, &mut r))
            .collect();
        let qm = HvMatrix::from_rows(&queries).unwrap();
        let cbm = HvMatrix::from_rows(cb.as_slice()).unwrap();
        for backend in BackendKind::ALL.map(BackendKind::create) {
            let batch = backend.cleanup_batch(&cbm, &qm).unwrap();
            for (q, hv) in queries.iter().enumerate() {
                let (idx, sim) = cb.cleanup(hv).unwrap();
                assert_eq!(batch[q].0, idx, "{} query {q}", backend.name());
                assert!((batch[q].1 - sim).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let backend = DenseBackend::new();
        let a = HvMatrix::zeros(2, 8);
        let b = HvMatrix::zeros(3, 8);
        let c = HvMatrix::zeros(2, 4);
        assert!(backend.bind_batch(&a, &b, BindingOp::Hadamard).is_err());
        assert!(backend.bind_batch(&a, &c, BindingOp::Hadamard).is_err());
        assert!(backend.similarity_matrix(&c, &a).is_err());
        assert!(backend.cleanup_batch(&HvMatrix::default(), &a).is_err());
        assert!(backend.bundle(&HvMatrix::default()).is_err());
        let w = HvMatrix::zeros(2, 5);
        assert!(backend.project_batch(&a, &w).is_err());
    }

    #[test]
    fn ensure_shape_zeroes_stale_data_on_reshape() {
        // Regression: a populated buffer reshaped to a new (rows, dim) must not
        // reinterpret the old elements under the new row layout.
        let mut m = HvMatrix::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3).unwrap();
        m.ensure_shape(3, 2);
        assert_eq!((m.rows(), m.dim()), (3, 2));
        assert!(
            m.as_slice().iter().all(|&v| v == 0.0),
            "stale data survived the reshape: {:?}",
            m.as_slice()
        );
        // Same-shape calls preserve contents (in-place scratch reuse stays valid).
        let mut m = HvMatrix::from_vec(vec![1.0, 2.0, 3.0, 4.0], 2, 2).unwrap();
        m.ensure_shape(2, 2);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn packed_query_cleanup_matches_dense_query_cleanup() {
        use crate::packed::BitMatrix;
        let mut r = rng(91);
        let hvs: Vec<Hypervector> = (0..6)
            .map(|_| Hypervector::random_bipolar(130, &mut r))
            .collect();
        let cb = HvMatrix::from_rows(&hvs).unwrap();
        let q = random_matrix(4, 130, 92);
        // Bipolar queries so both the packed kernel and the dense default apply.
        let mut qb = q.clone();
        for v in qb.as_mut_slice() {
            *v = if *v < 0.0 { -1.0 } else { 1.0 };
        }
        let bits = BitMatrix::from_matrix(&qb).unwrap();
        for kind in BackendKind::ALL {
            let backend = kind.create();
            let dense = backend.cleanup_batch(&cb, &qb).unwrap();
            let packed = backend.cleanup_batch_bits(&cb, &bits).unwrap();
            for ((di, dsim), (pi, psim)) in dense.iter().zip(&packed) {
                assert_eq!(di, pi, "{kind}");
                assert!((dsim - psim).abs() < 1e-4, "{kind}: {dsim} vs {psim}");
            }
            let mut from_bits = HvMatrix::default();
            backend
                .similarity_matrix_bits_into(&cb, &bits, &mut from_bits)
                .unwrap();
            let dense_sims = backend.similarity_matrix(&cb, &qb).unwrap();
            for (x, y) in from_bits.as_slice().iter().zip(dense_sims.as_slice()) {
                assert!((x - y).abs() < 1e-3, "{kind}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn backend_kind_round_trip() {
        for kind in BackendKind::ALL {
            let backend = kind.create();
            assert_eq!(backend.name(), kind.to_string());
        }
        assert_eq!(BackendKind::default(), BackendKind::Packed);
    }

    #[test]
    fn broadcast_replicates_rows() {
        let hv = Hypervector::from_values(vec![1.0, -1.0]);
        let m = HvMatrix::broadcast(&hv, 3);
        assert_eq!(m.rows(), 3);
        for i in 0..3 {
            assert_eq!(m.row(i), hv.values());
        }
    }
}
