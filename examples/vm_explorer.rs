//! Walk through the OS-level substrate by hand: buddy allocator,
//! hugetlbfs map file, shared mappings, page tables and TLBs — the pieces
//! `System::build` assembles automatically.
//!
//! ```sh
//! cargo run --release --example vm_explorer
//! ```

use lpomp::machine::{opteron_2x2, DataKind, Machine};
use lpomp::prof::{Counters, Event};
use lpomp::tlb::TlbOutcome;
use lpomp::vm::{AccessKind, AddressSpace, Backing, PageSize, Populate, PteFlags, SharedSegment};

fn main() {
    let mut machine = Machine::new(opteron_2x2());
    println!(
        "machine: {} — {} bytes RAM",
        machine.config().name,
        machine.frames.total_bytes()
    );

    // 1. A hugetlbfs map file as Omni's global heap, its 2 MB pages all
    //    taken at creation — at "boot", the paper's §3.3 design.
    let seg = SharedSegment::alloc(
        &mut machine.frames,
        "omni-shared-heap",
        8 * 1024 * 1024,
        PageSize::Large2M,
        |_| None,
    )
    .unwrap();
    println!("created {:?}: {} pages", seg.name(), seg.page_count());

    // 2. Two 'processes' mapping the same file share physical frames.
    let mut proc_a = AddressSpace::new(&mut machine.frames).unwrap();
    let mut proc_b = AddressSpace::new(&mut machine.frames).unwrap();
    let va_a = proc_a
        .mmap(
            &mut machine.frames,
            seg.len_bytes(),
            PageSize::Large2M,
            PteFlags::rw(),
            Backing::Shared(seg.clone()),
            Populate::Eager,
            "heap",
        )
        .unwrap();
    let va_b = proc_b
        .mmap(
            &mut machine.frames,
            seg.len_bytes(),
            PageSize::Large2M,
            PteFlags::rw(),
            Backing::Shared(seg),
            Populate::Eager,
            "heap",
        )
        .unwrap();
    let pa_a = proc_a
        .access(&mut machine.frames, va_a.add(0x1234), AccessKind::Read)
        .unwrap();
    let pa_b = proc_b
        .access(&mut machine.frames, va_b.add(0x1234), AccessKind::Read)
        .unwrap();
    println!(
        "process A {va_a} and process B {va_b} -> same frame: {} ({})",
        pa_a.translation().pa == pa_b.translation().pa,
        pa_a.translation().pa
    );

    // 3. Page walks are one level shorter for 2MB pages.
    println!(
        "walk length: 2MB mapping = {} levels (4KB would be 4)",
        pa_a.trace().len()
    );

    // 4. Drive a page-strided scan through the machine and watch the TLB.
    let mut counters = Counters::new();
    for off in (0..seg_len()).step_by(4096) {
        machine
            .data_access(
                &mut proc_a,
                0,
                va_a.add(off as u64),
                DataKind::Read,
                lpomp::machine::AccessMode::Latency,
                &mut counters,
            )
            .unwrap();
    }
    println!(
        "page-strided scan of 8MB with 2MB pages: {} accesses, {} DTLB misses",
        counters.get(Event::Loads),
        counters.get(Event::DtlbMisses)
    );

    // 5. Inspect the core-0 DTLB directly.
    let outcome = machine.dtlb(0);
    println!("core 0 DTLB stats: {:?}", outcome.stats());
    let probe = machine.dtlb(0).config().coverage_bytes(PageSize::Large2M);
    println!("core 0 DTLB 2MB reach: {} MB", probe >> 20);

    // A lookup outcome, straight from the TLB model:
    let mut machine2 = Machine::new(opteron_2x2());
    let mut tlb = lpomp::tlb::Tlb::new(machine2.config().dtlb.clone());
    let va = lpomp::vm::VirtAddr(0x1234_5000);
    assert_eq!(tlb.lookup(va), TlbOutcome::Miss);
    tlb.fill(va, PageSize::Small4K);
    assert_eq!(tlb.lookup(va), TlbOutcome::L1Hit(PageSize::Small4K));
    println!("manual TLB: miss -> fill -> hit, as expected");
    let _ = &mut machine2;
}

fn seg_len() -> usize {
    8 * 1024 * 1024
}
