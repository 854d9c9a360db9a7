//! Checkpoint/restart for the continuation driver.
//!
//! A [`SolverCheckpoint`] captures everything the Gauss-Newton-Krylov
//! continuation loop needs to resume *bitwise identically* after a crash:
//! the β-continuation level, the number of Newton iterations completed at
//! that level, the level's reference gradient norm `‖g₀‖` (the Newton
//! relative-tolerance anchor), and this rank's slab of the velocity iterate.
//! Everything else the solver holds (state/adjoint trajectories, scatter
//! plans, spectral symbols) is a pure function of the iterate and the
//! inputs, and is rebuilt on resume — that is what makes the restart exact
//! rather than approximate.
//!
//! Checkpoints are *per rank*: each rank serializes its local slab, so no
//! extra communication happens on the checkpoint path and a restart must use
//! the same grid and process decomposition (validated by [`SolverCheckpoint::
//! velocity_field`]).
//!
//! The `DRCK` v2 wire format is self-validating: the header carries the
//! payload length and an FNV-1a 64 checksum of the payload, so a torn write
//! (truncation, bit rot, a crash mid-`write`) is *detected* at load time and
//! reported as a typed [`CheckpointError`] instead of deserializing garbage
//! velocity data into the solver.
//!
//! [`CheckpointStore`] abstracts where the bytes go: `Disabled` (no-op),
//! `Memory` (a shared map — what the tests and in-process retries use), or
//! `File` (one file per rank, written atomically via a temp file + rename).
//! Both writable backends keep **two generations** per rank: `save` rotates
//! the current checkpoint into the previous-generation slot before
//! publishing the new one, and [`CheckpointStore::load_for_resume`] falls
//! back to the previous good generation when the current one fails
//! validation. A corrupt checkpoint therefore costs at most one
//! checkpoint interval of recomputation, never the whole run.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use diffreg_comm::fnv1a64;
use diffreg_grid::{Block, VectorField};

/// Serialization magic ("DRCK") + format version.
const MAGIC: &[u8; 4] = b"DRCK";
const VERSION: u32 = 2;

/// Byte length of the v2 header: magic + version + payload length + FNV-1a
/// checksum of the payload.
const HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// Why a checkpoint failed to load: the typed surface of the validation
/// path. Every variant means "this generation is unusable", and the caller
/// ([`CheckpointStore::load_for_resume`]) falls back to the previous
/// generation or a fresh start instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Fewer bytes than `need` were available at offset `at` — a truncated
    /// (torn) write.
    Truncated {
        /// Bytes the parser needed at the failure offset.
        need: usize,
        /// Offset at which the payload ran out.
        at: usize,
    },
    /// The first four bytes are not `DRCK`.
    BadMagic,
    /// A `DRCK` header with a version this build does not speak.
    BadVersion(u32),
    /// The header-declared payload length disagrees with the bytes present.
    LengthMismatch {
        /// Payload length the header promised.
        expect: usize,
        /// Payload length actually present.
        got: usize,
    },
    /// The payload hash does not match the header checksum — bit corruption
    /// within a length-consistent payload.
    ChecksumMismatch {
        /// Checksum the header promised.
        expect: u64,
        /// Checksum of the payload as found.
        got: u64,
    },
    /// Well-formed checkpoint followed by garbage bytes.
    TrailingBytes(usize),
    /// A filesystem operation failed while persisting or rotating a
    /// checkpoint generation (`op` names the step, `detail` carries the OS
    /// error text).
    Io {
        /// The save step that failed (`"create dir"`, `"write temp"`, ...).
        op: &'static str,
        /// The underlying I/O error, rendered.
        detail: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Truncated { need, at } => {
                write!(f, "truncated checkpoint: need {need} bytes at {at}")
            }
            CheckpointError::BadMagic => write!(f, "bad checkpoint magic (want {MAGIC:?})"),
            CheckpointError::BadVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (want {VERSION})")
            }
            CheckpointError::LengthMismatch { expect, got } => {
                write!(f, "checkpoint length mismatch: header says {expect} payload bytes, got {got}")
            }
            CheckpointError::ChecksumMismatch { expect, got } => {
                write!(
                    f,
                    "checkpoint checksum mismatch: header says {expect:#018x}, payload hashes to {got:#018x}"
                )
            }
            CheckpointError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after checkpoint payload")
            }
            CheckpointError::Io { op, detail } => {
                write!(f, "checkpoint I/O failure during {op}: {detail}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One rank's resumable snapshot of the continuation solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverCheckpoint {
    /// Index into the β schedule of the level being solved.
    pub level: usize,
    /// β of that level (consistency check on restore).
    pub beta: f64,
    /// Newton iterations already accepted at this level. `0` means the
    /// level has not started: resume warm-starts it from `velocity` through
    /// the ordinary (projecting) entry path.
    pub completed_iters: usize,
    /// The level's initial gradient norm (NaN when `completed_iters == 0`;
    /// the fresh level recomputes it).
    pub g0norm: f64,
    /// This rank's local slab of the three velocity components.
    pub velocity: [Vec<f64>; 3],
}

impl SolverCheckpoint {
    /// Captures a checkpoint from a velocity iterate.
    pub fn capture(
        level: usize,
        beta: f64,
        completed_iters: usize,
        g0norm: f64,
        v: &VectorField,
    ) -> Self {
        let velocity =
            [v.comps[0].data().to_vec(), v.comps[1].data().to_vec(), v.comps[2].data().to_vec()];
        Self { level, beta, completed_iters, g0norm, velocity }
    }

    /// Reconstructs the velocity iterate on `block`. Panics if the
    /// checkpointed slab length does not match the block (i.e. the restart
    /// uses a different grid or decomposition than the checkpoint).
    pub fn velocity_field(&self, block: Block) -> VectorField {
        assert_eq!(
            self.velocity[0].len(),
            block.len(),
            "checkpoint slab length does not match this rank's block: the \
             restart must use the same grid and process decomposition"
        );
        let mut v = VectorField::zeros(block);
        for c in 0..3 {
            v.comps[c].data_mut().copy_from_slice(&self.velocity[c]);
        }
        v
    }

    /// Serializes to the `DRCK` v2 little-endian wire format: a header with
    /// payload length and FNV-1a checksum, then the payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.velocity[0].len();
        assert!(self.velocity.iter().all(|c| c.len() == n), "ragged velocity components");
        let mut payload = Vec::with_capacity(8 * 5 + 24 * n);
        payload.extend_from_slice(&(self.level as u64).to_le_bytes());
        payload.extend_from_slice(&(self.completed_iters as u64).to_le_bytes());
        payload.extend_from_slice(&self.beta.to_le_bytes());
        payload.extend_from_slice(&self.g0norm.to_le_bytes());
        payload.extend_from_slice(&(n as u64).to_le_bytes());
        for comp in &self.velocity {
            for x in comp {
                payload.extend_from_slice(&x.to_le_bytes());
            }
        }
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Parses the `DRCK` wire format; rejects bad magic, unknown versions,
    /// truncated or over-long payloads, and checksum mismatches with a
    /// typed [`CheckpointError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut off = 0usize;
        let magic = take_slice(bytes, &mut off, 4)?;
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = u32::from_le_bytes(take_array::<4>(bytes, &mut off)?);
        if version != VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let u64_at = |off: &mut usize| -> Result<u64, CheckpointError> {
            Ok(u64::from_le_bytes(take_array::<8>(bytes, off)?))
        };
        let payload_len = u64_at(&mut off)? as usize;
        let checksum = u64_at(&mut off)?;
        let got = bytes.len().saturating_sub(HEADER_LEN);
        if got < payload_len {
            return Err(CheckpointError::LengthMismatch { expect: payload_len, got });
        }
        let payload = &bytes[HEADER_LEN..HEADER_LEN + payload_len];
        let found = fnv1a64(payload);
        if found != checksum {
            return Err(CheckpointError::ChecksumMismatch { expect: checksum, got: found });
        }
        let level = u64_at(&mut off)? as usize;
        let completed_iters = u64_at(&mut off)? as usize;
        let beta = f64::from_le_bytes(take_array::<8>(bytes, &mut off)?);
        let g0norm = f64::from_le_bytes(take_array::<8>(bytes, &mut off)?);
        let n = u64_at(&mut off)? as usize;
        // The slab length must account for the checksummed payload length
        // exactly, or the reserve below could balloon on a hostile header.
        // `n` is untrusted, so the arithmetic is checked.
        let expect = n.checked_mul(24).and_then(|body| body.checked_add(8 * 5));
        if expect != Some(payload_len) {
            let expect = expect.unwrap_or(usize::MAX);
            return Err(CheckpointError::LengthMismatch { expect, got: payload_len });
        }
        let mut velocity: [Vec<f64>; 3] = [vec![], vec![], vec![]];
        for comp in velocity.iter_mut() {
            comp.reserve_exact(n);
            for _ in 0..n {
                comp.push(f64::from_le_bytes(take_array::<8>(bytes, &mut off)?));
            }
        }
        if off != bytes.len() {
            return Err(CheckpointError::TrailingBytes(bytes.len() - off));
        }
        Ok(Self { level, beta, completed_iters, g0norm, velocity })
    }
}

/// Takes `n` bytes at `*off`, advancing it; typed error on underrun.
fn take_slice<'a>(
    bytes: &'a [u8],
    off: &mut usize,
    n: usize,
) -> Result<&'a [u8], CheckpointError> {
    let s = bytes.get(*off..*off + n).ok_or(CheckpointError::Truncated { need: n, at: *off })?;
    *off += n;
    Ok(s)
}

/// Takes exactly `N` bytes at `*off` as a fixed array, advancing it; typed
/// error on underrun (no panicking conversions on the decode path).
fn take_array<const N: usize>(bytes: &[u8], off: &mut usize) -> Result<[u8; N], CheckpointError> {
    let s = take_slice(bytes, off, N)?;
    let mut a = [0u8; N];
    a.copy_from_slice(s);
    Ok(a)
}

/// How [`CheckpointStore::load_for_resume`] obtained (or failed to obtain)
/// a checkpoint, for recovery accounting and operator logs.
#[derive(Debug, Clone, Default)]
pub struct ResumeLoad {
    /// The validated checkpoint, if any generation parsed cleanly.
    pub checkpoint: Option<SolverCheckpoint>,
    /// The current generation was unusable and the previous good generation
    /// was used instead.
    pub fell_back: bool,
    /// Validation errors encountered on the way (current generation first).
    /// Non-empty with `checkpoint: Some(..)` means a fallback happened;
    /// non-empty with `checkpoint: None` means every generation was corrupt
    /// and the caller must start fresh.
    pub errors: Vec<CheckpointError>,
}

/// Per-rank checkpoint generations held by the `Memory` backend: the
/// current checkpoint plus the previous good one (the fallback).
#[derive(Debug, Clone, Default)]
pub struct Generations {
    current: Vec<u8>,
    previous: Option<Vec<u8>>,
}

fn lock_map(
    map: &Mutex<HashMap<usize, Generations>>,
) -> std::sync::MutexGuard<'_, HashMap<usize, Generations>> {
    // Proceed through lock poisoning: a rank that panics mid-save must not
    // take the shared store down with it — recovery is the whole point.
    map.lock().unwrap_or_else(|e| e.into_inner())
}

/// Where checkpoints are kept. Cheap to clone; the `Memory` variant shares
/// its map across clones (so the store survives a rank's panic and a
/// restarted solve can read it back).
#[derive(Debug, Clone)]
pub enum CheckpointStore {
    /// Checkpointing disabled: saves are no-ops, loads return `None`.
    Disabled,
    /// In-memory per-rank map, shared between clones. Keeps the current and
    /// previous generation per rank.
    Memory(Arc<Mutex<HashMap<usize, Generations>>>),
    /// One file per rank under this directory (`ckpt.rank{r}.drck`, previous
    /// generation `ckpt.rank{r}.prev.drck`), written atomically (temp file +
    /// rename).
    File(PathBuf),
}

impl CheckpointStore {
    /// A fresh shared in-memory store.
    pub fn memory() -> Self {
        CheckpointStore::Memory(Arc::new(Mutex::new(HashMap::new())))
    }

    /// A file-backed store rooted at `dir` (created on first save).
    pub fn file(dir: impl Into<PathBuf>) -> Self {
        CheckpointStore::File(dir.into())
    }

    /// Whether saves actually persist anything.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, CheckpointStore::Disabled)
    }

    fn rank_path(dir: &std::path::Path, rank: usize) -> PathBuf {
        dir.join(format!("ckpt.rank{rank}.drck"))
    }

    fn prev_path(dir: &std::path::Path, rank: usize) -> PathBuf {
        dir.join(format!("ckpt.rank{rank}.prev.drck"))
    }

    /// Persists `rank`'s checkpoint bytes, rotating the previous checkpoint
    /// into the fallback generation. File saves are atomic: a crash
    /// mid-save leaves the old checkpoint intact. A failed save surfaces as
    /// a typed [`CheckpointError::Io`] — it must not abort a long solve,
    /// but the caller decides that, not this layer.
    pub fn save(&self, rank: usize, bytes: &[u8]) -> Result<(), CheckpointError> {
        match self {
            CheckpointStore::Disabled => Ok(()),
            CheckpointStore::Memory(map) => {
                let mut map = lock_map(map);
                let gens = map.entry(rank).or_default();
                if !gens.current.is_empty() {
                    gens.previous = Some(std::mem::take(&mut gens.current));
                }
                gens.current = bytes.to_vec();
                Ok(())
            }
            CheckpointStore::File(dir) => {
                let io = |op: &'static str| {
                    move |e: std::io::Error| CheckpointError::Io { op, detail: e.to_string() }
                };
                std::fs::create_dir_all(dir).map_err(io("create dir"))?;
                let path = Self::rank_path(dir, rank);
                if path.exists() {
                    // Rotate before publishing; if the process dies between
                    // the two renames the previous generation still holds a
                    // good checkpoint.
                    #[expect(
                        clippy::let_underscore_must_use,
                        reason = "best effort: if the rotation fails, the publish below still replaces the current generation"
                    )]
                    let _ = std::fs::rename(&path, Self::prev_path(dir, rank));
                }
                let tmp = path.with_extension("drck.tmp");
                std::fs::write(&tmp, bytes).map_err(io("write temp"))?;
                std::fs::rename(&tmp, &path).map_err(io("publish"))?;
                Ok(())
            }
        }
    }

    /// Loads `rank`'s most recent checkpoint bytes, if any. Raw and
    /// unvalidated — resume paths should prefer
    /// [`CheckpointStore::load_for_resume`].
    pub fn load(&self, rank: usize) -> Option<Vec<u8>> {
        match self {
            CheckpointStore::Disabled => None,
            CheckpointStore::Memory(map) => {
                lock_map(map).get(&rank).map(|g| g.current.clone())
            }
            CheckpointStore::File(dir) => std::fs::read(Self::rank_path(dir, rank)).ok(),
        }
    }

    /// Loads `rank`'s previous-generation checkpoint bytes, if any.
    pub fn load_previous(&self, rank: usize) -> Option<Vec<u8>> {
        match self {
            CheckpointStore::Disabled => None,
            CheckpointStore::Memory(map) => {
                lock_map(map).get(&rank).and_then(|g| g.previous.clone())
            }
            CheckpointStore::File(dir) => std::fs::read(Self::prev_path(dir, rank)).ok(),
        }
    }

    /// Validated load with fallback: parses the current generation, and on
    /// any [`CheckpointError`] falls back to the previous good generation.
    /// Never panics; if every generation is corrupt the caller gets
    /// `checkpoint: None` plus the errors, and resumes fresh.
    pub fn load_for_resume(&self, rank: usize) -> ResumeLoad {
        let mut out = ResumeLoad::default();
        if let Some(bytes) = self.load(rank) {
            match SolverCheckpoint::from_bytes(&bytes) {
                Ok(ck) => {
                    out.checkpoint = Some(ck);
                    return out;
                }
                Err(e) => out.errors.push(e),
            }
        } else {
            return out;
        }
        // Current generation present but corrupt: try the fallback.
        if let Some(bytes) = self.load_previous(rank) {
            match SolverCheckpoint::from_bytes(&bytes) {
                Ok(ck) => {
                    out.checkpoint = Some(ck);
                    out.fell_back = true;
                }
                Err(e) => out.errors.push(e),
            }
        }
        out
    }

    /// Fault drill: corrupts `rank`'s *current* checkpoint generation in
    /// place, simulating a torn write (truncation plus a flipped byte).
    /// Returns `true` if there was a checkpoint to corrupt. The previous
    /// generation is left untouched, which is exactly what
    /// [`CheckpointStore::load_for_resume`] recovers from.
    pub fn inject_corruption(&self, rank: usize) -> bool {
        let torn = |bytes: &[u8]| -> Vec<u8> {
            let mut t = bytes[..bytes.len() / 2].to_vec();
            if let Some(b) = t.last_mut() {
                *b ^= 0x5a;
            }
            t
        };
        match self {
            CheckpointStore::Disabled => false,
            CheckpointStore::Memory(map) => {
                let mut map = lock_map(map);
                match map.get_mut(&rank) {
                    Some(g) if !g.current.is_empty() => {
                        g.current = torn(&g.current);
                        true
                    }
                    _ => false,
                }
            }
            CheckpointStore::File(dir) => {
                let path = Self::rank_path(dir, rank);
                match std::fs::read(&path) {
                    // A torn write bypasses the tmp+rename protocol by
                    // definition: scribble the published file directly.
                    Ok(bytes) if !bytes.is_empty() => {
                        std::fs::write(&path, torn(&bytes)).is_ok()
                    }
                    _ => false,
                }
            }
        }
    }

    /// Drops `rank`'s checkpoint generations (after a successful run, so a
    /// later solve does not accidentally resume from a stale snapshot).
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best effort: a generation that is already gone is the state this asks for"
    )]
    pub fn clear(&self, rank: usize) {
        match self {
            CheckpointStore::Disabled => {}
            CheckpointStore::Memory(map) => {
                lock_map(map).remove(&rank);
            }
            CheckpointStore::File(dir) => {
                let _ = std::fs::remove_file(Self::rank_path(dir, rank));
                let _ = std::fs::remove_file(Self::prev_path(dir, rank));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SolverCheckpoint {
        SolverCheckpoint {
            level: 1,
            beta: 1e-3,
            completed_iters: 2,
            g0norm: 0.123456789,
            velocity: [
                vec![0.25, -1.5, 3.0e-17],
                vec![f64::MIN_POSITIVE, 0.0, -0.0],
                vec![1.0, 2.0, 3.0],
            ],
        }
    }

    #[test]
    fn roundtrip_is_bitwise_exact() {
        let ck = sample();
        let back = SolverCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(back.level, ck.level);
        assert_eq!(back.completed_iters, ck.completed_iters);
        assert_eq!(back.beta.to_bits(), ck.beta.to_bits());
        assert_eq!(back.g0norm.to_bits(), ck.g0norm.to_bits());
        for c in 0..3 {
            let a: Vec<u64> = ck.velocity[c].iter().map(|x| x.to_bits()).collect();
            let b: Vec<u64> = back.velocity[c].iter().map(|x| x.to_bits()).collect();
            assert_eq!(a, b, "component {c} not bitwise identical");
        }
    }

    /// The DRCK v2 bytes of [`sample`] are pinned: a checksum or layout
    /// change would orphan every checkpoint already on disk.
    #[test]
    fn wire_bytes_are_pinned() {
        let bytes = sample().to_bytes();
        assert_eq!(bytes.len(), 136);
        let payload_sum = u64::from_le_bytes(bytes[16..HEADER_LEN].try_into().unwrap());
        assert_eq!(payload_sum, 0x6f9e_a0a6_63d5_36bb, "header checksum of the payload");
        assert_eq!(fnv1a64(&bytes), 0xd10c_d44a_999d_bdcd, "the whole file");
    }

    #[test]
    fn nan_g0norm_survives_roundtrip() {
        // Fresh-level boundary checkpoints carry g0norm = NaN.
        let mut ck = sample();
        ck.completed_iters = 0;
        ck.g0norm = f64::NAN;
        let back = SolverCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert!(back.g0norm.is_nan());
        assert_eq!(back.g0norm.to_bits(), ck.g0norm.to_bits());
    }

    #[test]
    fn corrupt_and_truncated_payloads_are_rejected() {
        let bytes = sample().to_bytes();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(SolverCheckpoint::from_bytes(&bad).unwrap_err(), CheckpointError::BadMagic);
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert_eq!(
            SolverCheckpoint::from_bytes(&wrong_version).unwrap_err(),
            CheckpointError::BadVersion(99)
        );
        let truncated = &bytes[..bytes.len() - 5];
        assert!(matches!(
            SolverCheckpoint::from_bytes(truncated).unwrap_err(),
            CheckpointError::LengthMismatch { .. }
        ));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(SolverCheckpoint::from_bytes(&trailing).unwrap_err(), CheckpointError::TrailingBytes(1));
    }

    #[test]
    fn bit_corruption_fails_the_checksum() {
        let mut bytes = sample().to_bytes();
        // Flip one payload bit; length stays consistent so only the
        // checksum can catch it.
        let k = bytes.len() - 9;
        bytes[k] ^= 0x01;
        assert!(matches!(
            SolverCheckpoint::from_bytes(&bytes).unwrap_err(),
            CheckpointError::ChecksumMismatch { .. }
        ));
    }

    /// Rewrites the header checksum over the payload the header declares (as
    /// much of it as is present), so a mutation reaches the later checks.
    fn reseal(bytes: &mut [u8]) {
        if bytes.len() < HEADER_LEN {
            return;
        }
        let declared = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let end = HEADER_LEN.saturating_add(declared).min(bytes.len());
        let sum = fnv1a64(&bytes[HEADER_LEN..end]);
        bytes[16..24].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn crafted_slab_length_is_a_typed_error() {
        let velocity = [vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let mut bytes = SolverCheckpoint { velocity, ..sample() }.to_bytes();
        // 24 · (2 + 2^61) wraps to 48, the true body length of n = 2.
        let n = 2u64 + (1 << 61);
        bytes[HEADER_LEN + 32..HEADER_LEN + 40].copy_from_slice(&n.to_le_bytes());
        reseal(&mut bytes);
        let err = SolverCheckpoint::from_bytes(&bytes).unwrap_err();
        assert_eq!(err, CheckpointError::LengthMismatch { expect: usize::MAX, got: 88 });
    }

    /// Hostile input: truncations, bit flips and random values in the u64
    /// fields, each resealed. The decoder answers with a typed error, or
    /// accepts bytes that re-encode exactly; it never panics.
    #[test]
    fn hostile_bytes_give_a_typed_error_or_an_exact_round_trip() {
        diffreg_testkit::prop_check!(cases = 256, |rng| {
            let n = rng.len_scaled(0, 6);
            let velocity = [(); 3].map(|_| rng.vec_uniform(n, -1.0, 1.0));
            let mut bytes = SolverCheckpoint { velocity, ..sample() }.to_bytes();
            // Payload length, level, iterations, β, ‖g₀‖, slab length.
            let at = [8, 24, 32, 40, 48, 56][rng.index(6)];
            let v = match rng.index(3) {
                0 => rng.next_u64() >> rng.index(64),
                1 => (n as u64).wrapping_add(1 << (58 + rng.index(6))),
                _ => u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) ^ 1 << rng.index(64),
            };
            bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
            if rng.chance(0.3) {
                bytes.truncate(rng.index(bytes.len()));
            }
            reseal(&mut bytes);
            if let Ok(back) = SolverCheckpoint::from_bytes(&bytes) {
                assert!(back.to_bytes() == bytes, "accepted bytes must re-encode exactly");
            }
        });
    }

    #[test]
    fn header_truncation_is_typed() {
        let bytes = sample().to_bytes();
        assert!(matches!(
            SolverCheckpoint::from_bytes(&bytes[..10]).unwrap_err(),
            CheckpointError::Truncated { .. }
        ));
    }

    #[test]
    fn memory_store_survives_clone_and_clear() {
        let store = CheckpointStore::memory();
        assert!(store.is_enabled());
        assert!(store.load(0).is_none());
        let clone = store.clone();
        clone.save(0, b"abc").expect("save");
        clone.save(3, b"xyz").expect("save");
        assert_eq!(store.load(0).as_deref(), Some(&b"abc"[..]));
        assert_eq!(store.load(3).as_deref(), Some(&b"xyz"[..]));
        store.clear(0);
        assert!(store.load(0).is_none());
        assert!(store.load(3).is_some());
    }

    #[test]
    fn save_rotates_generations() {
        let store = CheckpointStore::memory();
        store.save(1, b"first").expect("save");
        assert!(store.load_previous(1).is_none());
        store.save(1, b"second").expect("save");
        assert_eq!(store.load(1).as_deref(), Some(&b"second"[..]));
        assert_eq!(store.load_previous(1).as_deref(), Some(&b"first"[..]));
        store.clear(1);
        assert!(store.load(1).is_none() && store.load_previous(1).is_none());
    }

    #[test]
    fn disabled_store_is_a_no_op() {
        let store = CheckpointStore::Disabled;
        assert!(!store.is_enabled());
        store.save(0, b"abc").expect("save");
        assert!(store.load(0).is_none());
        assert!(!store.inject_corruption(0));
        assert!(store.load_for_resume(0).checkpoint.is_none());
    }

    #[test]
    fn file_store_roundtrips_atomically() {
        let dir = std::env::temp_dir()
            .join(format!("diffreg-ckpt-test-{}-{:?}", std::process::id(), std::thread::current().id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::file(&dir);
        let ck = sample();
        store.save(2, &ck.to_bytes()).expect("save");
        // No temp file left behind after the rename.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let back = SolverCheckpoint::from_bytes(&store.load(2).unwrap()).unwrap();
        assert_eq!(back, ck);
        store.clear(2);
        assert!(store.load(2).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The satellite acceptance drill: a torn write to the current
    /// generation must be detected by validation and recovered from via the
    /// previous good generation — on both writable backends.
    #[test]
    fn torn_write_falls_back_to_previous_good_checkpoint() {
        let dir = std::env::temp_dir().join(format!(
            "diffreg-ckpt-torn-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        for store in [CheckpointStore::memory(), CheckpointStore::file(&dir)] {
            let older = SolverCheckpoint { completed_iters: 1, ..sample() };
            let newer = SolverCheckpoint { completed_iters: 2, ..sample() };
            store.save(0, &older.to_bytes()).expect("save");
            store.save(0, &newer.to_bytes()).expect("save");

            // Healthy path: the current generation wins.
            let healthy = store.load_for_resume(0);
            assert_eq!(healthy.checkpoint.as_ref().unwrap().completed_iters, 2);
            assert!(!healthy.fell_back && healthy.errors.is_empty());

            // Tear the current generation mid-write.
            assert!(store.inject_corruption(0));
            let recovered = store.load_for_resume(0);
            let ck = recovered.checkpoint.expect("fallback generation must load");
            assert_eq!(ck.completed_iters, 1, "must recover the previous good checkpoint");
            assert!(recovered.fell_back, "recovery must be reported as a fallback");
            assert_eq!(recovered.errors.len(), 1, "the torn generation yields one typed error");

            // Corrupting the fallback too leaves a clean fresh start.
            match &store {
                CheckpointStore::Memory(map) => {
                    let mut m = lock_map(map);
                    let g = m.get_mut(&0).unwrap();
                    g.previous = Some(b"garbage".to_vec());
                }
                CheckpointStore::File(d) => {
                    std::fs::write(CheckpointStore::prev_path(d, 0), b"garbage").unwrap();
                }
                CheckpointStore::Disabled => unreachable!(),
            }
            let fresh = store.load_for_resume(0);
            assert!(fresh.checkpoint.is_none(), "double corruption resumes fresh");
            assert_eq!(fresh.errors.len(), 2, "both generations report typed errors");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
