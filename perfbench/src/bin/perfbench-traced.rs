//! Traced runs (`--trace 1`), on the counting allocator that gives the
//! per-layer `allocs_per_call`.

#[global_allocator]
static ALLOC: perfbench::trace::CountingAlloc = perfbench::trace::CountingAlloc;

fn main() -> std::process::ExitCode {
    perfbench::main_with(true)
}
