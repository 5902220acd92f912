//! Kernel framework: problem classes, footprints, code profiles, and the
//! [`Kernel`] trait every NPB implementation satisfies.

use lpomp_runtime::{BumpAllocator, Team};

/// NPB problem classes. `S` is the test class (seconds in the simulator);
/// `W` is the default simulated-evaluation class, scaled so that the
/// footprint ÷ TLB-reach ratios sit in the same regime class B occupies on
/// the real machines; `A` is a larger check; `B` matches the paper's
/// evaluation class (used analytically for Table 2, executable but slow).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Class {
    /// Tiny test class.
    S,
    /// Workstation class — the simulated evaluation default.
    W,
    /// Larger validation class.
    A,
    /// The paper's class (Table 2 footprints).
    B,
}

impl Class {
    /// All classes, smallest first.
    pub const ALL: [Class; 4] = [Class::S, Class::W, Class::A, Class::B];
}

impl std::fmt::Display for Class {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = match self {
            Class::S => 'S',
            Class::W => 'W',
            Class::A => 'A',
            Class::B => 'B',
        };
        write!(f, "{c}")
    }
}

/// Memory footprint of a benchmark instance — the two columns of the
/// paper's Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Footprint {
    /// Binary (instruction) bytes.
    pub instruction_bytes: u64,
    /// Data bytes (shared arrays).
    pub data_bytes: u64,
}

/// Instruction-fetch behaviour of a benchmark (drives the ITLB model and
/// the paper's Fig. 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CodeProfile {
    /// Binary size (Table 2 "Instruction" column).
    pub code_bytes: u64,
    /// Size of the hot loop region.
    pub hot_bytes: u64,
    /// One cold-code excursion per this many compute quanta.
    pub cold_period: u64,
}

/// The interface every NPB kernel implements.
///
/// Lifecycle: `new(class)` → [`setup`](Kernel::setup) (allocate shared
/// arrays from the region allocator and build inputs) → one or more
/// [`run`](Kernel::run) calls on a team → [`verify`](Kernel::verify)
/// against the serial reference.
///
/// `Send` because a multi-tenant machine runs each tenant's kernel on
/// its own coroutine thread (see `lpomp-runtime`'s tenancy module).
pub trait Kernel: Send {
    /// Benchmark name ("CG", "MG", ...).
    fn name(&self) -> &'static str;

    /// Problem class this instance was built for.
    fn class(&self) -> Class;

    /// Memory footprint of this instance.
    fn footprint(&self) -> Footprint;

    /// Instruction-fetch profile.
    fn code_profile(&self) -> CodeProfile;

    /// Allocate shared arrays and build the input data.
    fn setup(&mut self, alloc: &mut BumpAllocator);

    /// Execute the timed benchmark on `team`; returns the checksum.
    fn run(&mut self, team: &mut Team) -> f64;

    /// Serial reference checksum (plain Rust, uninstrumented), used by
    /// [`verify`](Kernel::verify). Requires [`setup`](Kernel::setup).
    fn reference(&self) -> f64;

    /// Whether `checksum` matches the serial reference within floating-
    /// point reassociation tolerance.
    fn verify(&self, checksum: f64) -> bool {
        let r = self.reference();
        verify_close(checksum, r)
    }
}

/// Deterministic, bounded pseudo-random initial value for element `e` of
/// a solution field (golden-ratio low-discrepancy sequence scaled to
/// [0, 0.5)). Used by the structured-grid kernels so repeated runs start
/// from identical state without touching the NPB RNG stream.
pub(crate) fn init_field(e: usize) -> f64 {
    let x = (e as f64) * 0.618_033_988_749_894;
    (x - x.floor()) * 0.5
}

/// Relative-error check tolerant of parallel reduction reassociation.
pub fn verify_close(got: f64, want: f64) -> bool {
    if want == 0.0 {
        return got.abs() < 1e-8;
    }
    ((got - want) / want).abs() < 1e-8
}

/// The benchmarks of the paper's evaluation (§4.2) plus EP as a
/// TLB-insensitive control.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// Block-tridiagonal ADI solver.
    Bt,
    /// Conjugate gradient with a random sparse matrix.
    Cg,
    /// 3-D fast Fourier transform PDE solver.
    Ft,
    /// Scalar-pentadiagonal ADI solver.
    Sp,
    /// Multigrid V-cycle Poisson solver.
    Mg,
    /// Embarrassingly parallel Gaussian-pair generation (extension).
    Ep,
    /// Integer bucket sort (extension).
    Is,
    /// SSOR wavefront solver (extension).
    Lu,
}

impl AppKind {
    /// The five applications of the paper's figures, in figure order.
    pub const PAPER_FIVE: [AppKind; 5] = [
        AppKind::Bt,
        AppKind::Cg,
        AppKind::Ft,
        AppKind::Sp,
        AppKind::Mg,
    ];

    /// All kernels including the EP control and the IS/LU extensions.
    pub const ALL: [AppKind; 8] = [
        AppKind::Bt,
        AppKind::Cg,
        AppKind::Ft,
        AppKind::Sp,
        AppKind::Mg,
        AppKind::Ep,
        AppKind::Is,
        AppKind::Lu,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Bt => "BT",
            AppKind::Cg => "CG",
            AppKind::Ft => "FT",
            AppKind::Sp => "SP",
            AppKind::Mg => "MG",
            AppKind::Ep => "EP",
            AppKind::Is => "IS",
            AppKind::Lu => "LU",
        }
    }

    /// Build the kernel for a class (not yet `setup`).
    pub fn build(self, class: Class) -> Box<dyn Kernel> {
        match self {
            AppKind::Bt => Box::new(crate::bt::Bt::new(class)),
            AppKind::Cg => Box::new(crate::cg::Cg::new(class)),
            AppKind::Ft => Box::new(crate::ft::Ft::new(class)),
            AppKind::Sp => Box::new(crate::sp::Sp::new(class)),
            AppKind::Mg => Box::new(crate::mg::Mg::new(class)),
            AppKind::Ep => Box::new(crate::ep::Ep::new(class)),
            AppKind::Is => Box::new(crate::is::Is::new(class)),
            AppKind::Lu => Box::new(crate::lu::Lu::new(class)),
        }
    }

    /// Footprint without building the kernel (Table 2 regeneration).
    pub fn footprint(self, class: Class) -> Footprint {
        self.build(class).footprint()
    }
}

impl std::fmt::Display for AppKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Run a kernel end to end on a team: setup with an unbounded allocator
/// (native runs) and verify. Returns the checksum. Test helper.
pub fn run_native(kind: AppKind, class: Class, threads: usize) -> (f64, bool) {
    let mut k = kind.build(class);
    let mut alloc = BumpAllocator::unbounded();
    k.setup(&mut alloc);
    let mut team = Team::native(threads);
    let cs = k.run(&mut team);
    let ok = k.verify(cs);
    (cs, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_display() {
        assert_eq!(Class::S.to_string(), "S");
        assert_eq!(Class::B.to_string(), "B");
    }

    #[test]
    fn verify_close_tolerances() {
        assert!(verify_close(1.0, 1.0 + 1e-12));
        assert!(!verify_close(1.0, 1.01));
        assert!(verify_close(0.0, 0.0));
        assert!(!verify_close(1e-3, 0.0));
    }

    #[test]
    fn paper_five_matches_figure_order() {
        let names: Vec<_> = AppKind::PAPER_FIVE.iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["BT", "CG", "FT", "SP", "MG"]);
    }

    #[test]
    fn all_kernels_buildable() {
        for k in AppKind::ALL {
            let b = k.build(Class::S);
            assert_eq!(b.class(), Class::S);
            assert!(!b.name().is_empty());
            let fp = b.footprint();
            assert!(fp.data_bytes > 0);
            assert!(fp.instruction_bytes > 0);
        }
    }

    #[test]
    fn class_b_footprints_are_large() {
        // Table 2 magnitude check: every paper app's class-B data footprint
        // is in the hundreds-of-MB-to-GB range.
        for k in AppKind::PAPER_FIVE {
            let fp = k.footprint(Class::B);
            assert!(
                fp.data_bytes > 100 * 1024 * 1024,
                "{k}: {} bytes",
                fp.data_bytes
            );
        }
    }
}
