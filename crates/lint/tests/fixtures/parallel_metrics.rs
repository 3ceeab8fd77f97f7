// Fixture: parallel-metrics. Observability access inside a plan or route
// function body is a violation; the same access on the serial merge path
// is fine.
pub fn plan_parallel(items: &[u32]) -> Vec<u32> {
    let out = items.to_vec();
    metrics.incr("aas.plans");
    out
}

pub fn route_day(plans: &[u32]) -> Vec<u32> {
    let ops = plans.to_vec();
    obs.metrics.incr("aas.routed");
    ops
}

pub fn plan_member(ops: &[u32]) -> u32 {
    let delivered = ops.iter().sum();
    timings.record("aas.member_plans", 0.0);
    delivered
}

pub fn serial_merge() {
    metrics.incr("aas.apply");
}

pub fn caller(items: &[u32]) -> Vec<u32> {
    // The harness's argument list is a shard path too: the closure runs
    // on worker threads.
    plan_parallel(items, 4, |x| {
        metrics.incr("aas.closure_plans");
        *x
    })
}
