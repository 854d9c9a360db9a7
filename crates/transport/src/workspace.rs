//! The per-rank execution context shared by transport solvers and the
//! registration operators, and the parts it is lent from.

use diffreg_comm::{Comm, Timers};
use diffreg_grid::{Block, Decomp, Grid};
use diffreg_interp::Kernel;
use diffreg_pfft::PencilFft;

/// Borrowed bundle of everything a distributed kernel needs on one rank:
/// the communicator, the decomposition, the FFT plan, the interpolation
/// kernel choice, and the phase timers. Lent by [`SessionParts::workspace`].
pub struct Workspace<'a, C: Comm> {
    /// Communicator for this rank.
    pub comm: &'a C,
    /// Domain decomposition (shared by all ranks).
    pub decomp: &'a Decomp,
    /// Distributed FFT plan.
    pub fft: &'a PencilFft<C>,
    /// Interpolation kernel (tricubic by default).
    pub kernel: Kernel,
    /// Phase timers (fft_comm / fft_exec / interp_comm / interp_exec, ...).
    pub timers: &'a Timers,
}

impl<'a, C: Comm> Workspace<'a, C> {
    /// Creates a workspace over the plan's decomposition with the default
    /// (tricubic) kernel.
    pub(crate) fn new(comm: &'a C, fft: &'a PencilFft<C>, timers: &'a Timers) -> Self {
        Self { comm, decomp: fft.decomp(), fft, kernel: Kernel::Tricubic, timers }
    }

    /// The global grid.
    pub fn grid(&self) -> Grid {
        self.decomp.grid
    }

    /// This rank's spatial-layout block.
    pub fn block(&self) -> Block {
        self.decomp.block(self.comm.rank())
    }
}

impl<C: Comm> Clone for Workspace<'_, C> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<C: Comm> Copy for Workspace<'_, C> {}

impl<C: Comm> std::fmt::Debug for Workspace<'_, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workspace")
            .field("rank", &self.comm.rank())
            .field("decomp", self.decomp)
            .field("kernel", &self.kernel)
            .finish()
    }
}

/// Owns everything a rank needs besides its communicator — the FFT plan
/// (which holds the decomposition) and the phase timers — and lends them as
/// a [`Workspace`]. The one way to stand up a rank, serial or distributed.
pub struct SessionParts<C: Comm> {
    fft: PencilFft<C>,
    timers: Timers,
}

impl<C: Comm> SessionParts<C> {
    /// Builds the default decomposition of `grid` over `comm.size()` ranks
    /// and its FFT plan (collective).
    pub fn new(comm: &C, grid: Grid) -> Self {
        Self::with_decomp(comm, Decomp::new(grid, comm.size()))
    }

    /// Builds the FFT plan for a given decomposition, e.g. one that pins
    /// the process grid (collective).
    pub fn with_decomp(comm: &C, decomp: Decomp) -> Self {
        Self { fft: PencilFft::new(comm, decomp), timers: Timers::new() }
    }

    /// The global grid.
    pub fn grid(&self) -> Grid {
        self.fft.grid()
    }

    /// The phase timers accumulated by every operation run through the
    /// workspace.
    pub fn timers(&self) -> &Timers {
        &self.timers
    }

    /// Borrows a workspace (tricubic kernel) for solver calls.
    pub fn workspace<'a>(&'a self, comm: &'a C) -> Workspace<'a, C> {
        Workspace::new(comm, &self.fft, &self.timers)
    }
}
