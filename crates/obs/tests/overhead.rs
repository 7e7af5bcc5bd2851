//! Disabled-path overhead guard: with no recording and no trace armed,
//! `span()` / `count()` / `hist()` must be allocation-free — the probes stay cheap enough to leave compiled into every hot path.
//! The counting allocator (the `obs-alloc` feature's global allocator)
//! is the measurement instrument: a probe that allocates moves
//! `bytes_total`.

#![cfg(feature = "obs-alloc")]

use prebond3d_obs as obs;

#[test]
fn disabled_probes_do_not_allocate() {
    assert!(!obs::is_active() && !obs::trace::armed());

    // Warm up first, so any one-time initialization doesn't count
    // against the probes.
    for i in 0..16u64 {
        let _s = obs::span("overhead_warmup");
        obs::count("overhead.warmup", i);
        obs::hist("overhead.warmup", i);
    }

    // The test harness may allocate on other threads; retry a few times
    // and require at least one perfectly clean window.
    let mut clean = false;
    for _ in 0..5 {
        let before = obs::alloc::bytes_total();
        for i in 0..100_000u64 {
            let _s = obs::span("overhead_probe");
            obs::count("overhead.counter", i);
            obs::hist("overhead.hist", i);
        }
        if obs::alloc::bytes_total() == before {
            clean = true;
            break;
        }
    }
    assert!(
        clean,
        "disabled span()/count()/hist() allocated in every measurement window"
    );
}
