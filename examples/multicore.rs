//! Multicore: the machine layer spreading a fleet of jobs over N CPUs.
//!
//! The paper's prototype ran on a single 400 MHz Pentium II.  The machine
//! layer generalises the same dispatcher to N per-CPU run queues behind
//! the identical API: the control pipeline's Place stage assigns each job
//! a CPU by least-loaded fit at admission and rebalances with
//! threshold-triggered migration, while every CPU advances in lockstep on
//! the shared clock.
//!
//! Run with `cargo run --release --example multicore`.

use realrate::api::{JobHandle, JobSpec, Period, Proportion, Runtime, SimTime};
use realrate::workloads::CpuHog;

fn main() {
    const CPUS: usize = 4;
    let mut host = Runtime::sim().cpus(CPUS).build();

    // A real-time reservation: admitted against one specific CPU and
    // pinned there (real-time jobs never migrate).
    let rt = host
        .add_job(
            "rt",
            JobSpec::real_time(Proportion::from_ppt(400), Period::from_millis(10)),
            Box::new(CpuHog::new()),
        )
        .expect("an empty 4-CPU machine admits 400 ‰");

    // Six adaptive hogs: no reservations, no priorities — the controller
    // discovers that each can use a CPU's worth and the Place stage
    // spreads them over the machine.
    let mut hogs = Vec::new();
    for i in 0..6 {
        hogs.push(
            host.add_job(
                &format!("hog{i}"),
                JobSpec::miscellaneous(),
                Box::new(CpuHog::new()),
            )
            .expect("misc jobs are always admitted"),
        );
    }

    println!("running 10 simulated seconds on a {CPUS}-CPU machine...");
    host.advance(SimTime::from_secs(10));

    println!(
        "\n{:<8} {:>6} {:>10} {:>12}",
        "job", "cpu", "alloc ‰", "cpu-time ms"
    );
    let report = |name: &str, h: JobHandle| {
        println!(
            "{:<8} {:>6} {:>10} {:>12.1}",
            name,
            host.cpu_of(h).map(|c| c.to_string()).unwrap_or_default(),
            host.allocation_ppt(h),
            host.cpu_used(h).as_micros() as f64 / 1e3,
        );
    };
    report("rt", rt);
    for (i, h) in hogs.iter().enumerate() {
        report(&format!("hog{i}"), *h);
    }

    // The simulator keeps the per-CPU time breakdown itself; each CPU's
    // granted load is the sum of the grants of the jobs placed on it.
    let stats = host.stats();
    let mut load_ppt = vec![0u32; host.cpu_count()];
    for &h in std::iter::once(&rt).chain(&hogs) {
        if let Some(cpu) = host.cpu_of(h) {
            load_ppt[cpu.index()] += host.allocation_ppt(h);
        }
    }
    println!(
        "\n{:<6} {:>8} {:>10} {:>9} {:>9}",
        "cpu", "load ‰", "used ms", "idle ms", "migr +/-"
    );
    for (i, cpu) in stats.per_cpu.iter().enumerate() {
        println!(
            "cpu{i:<3} {:>8} {:>10.1} {:>9.1} {:>5}/{}",
            load_ppt[i],
            cpu.used_us as f64 / 1e3,
            cpu.idle_us as f64 / 1e3,
            cpu.migrations_in,
            cpu.migrations_out,
        );
    }

    let throughput = stats.total_used_us() as f64 / host.now().as_micros() as f64;
    println!(
        "\naggregate throughput : {throughput:.2} CPUs of work \
         (one CPU could deliver at most 1.0)"
    );
    println!("cross-CPU migrations : {}", stats.migrations);
    println!(
        "machine-wide grants  : {} ‰ across {CPUS} CPUs",
        load_ppt.iter().sum::<u32>()
    );
    assert!(throughput > 2.0, "a 4-CPU machine must beat one CPU");
}
