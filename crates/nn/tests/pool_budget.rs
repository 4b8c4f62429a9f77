//! The worker budget reads no environment variable: outside a worker and
//! without a `with_threads` override it is the machine's core count.
//! `RLSCHED_THREADS` used to cap it; this file is its own test binary, so
//! the variable is set before this process makes its first pool call.

use std::num::NonZeroUsize;

use rlsched_nn::pool;

#[test]
fn budget_is_the_core_count_whatever_rlsched_threads_says() {
    std::env::set_var("RLSCHED_THREADS", "1");
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    assert_eq!(pool::current_num_threads(), cores);
}
