// BAD: wall-clock reads, which no workspace path may make.
pub fn elapsed_sketch() -> u128 {
    let t0 = std::time::Instant::now();
    let _epoch = std::time::SystemTime::now();
    t0.elapsed().as_nanos()
}
