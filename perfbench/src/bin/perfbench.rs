//! End-to-end runs (`--trace 0`), on the system allocator.

fn main() -> std::process::ExitCode {
    perfbench::main_with(false)
}
