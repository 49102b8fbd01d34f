//! `probe` — where does the host time of a simulated instruction go?
//!
//! `probe <q,...> [--rounds N] [--lines N] [--each]` runs the given paper
//! queries on the `hotpath` fixture (steal-free config, so every round does
//! the same work) `--rounds` times (default 20) under a SIGPROF
//! instruction-pointer sampler and prints the 30 functions holding the
//! largest shares of the samples, each with its `--lines` (default 3)
//! hottest `file:line`s — one table over the union of the queries, or with
//! `--each` one table per query from the same run. Shares are comparable
//! across builds only per query: a change that speeds one query up shrinks
//! its weight in a union table and moves every other line's share — so a
//! header first prints each query's best wall over the rounds and its share
//! of the sampled wall, and a union table cannot hide which query holds the
//! host time. `perf` is not in the image; this is the profiler ROADMAP's
//! host-cost item asks for first. Above the walls, `built for:` names the
//! target features the binary was compiled with (`+popcnt +bmi2 +avx2` at
//! the workspace's x86-64-v3): a profile or a before/after pair compares
//! only between builds at one level.
//!
//! The sampler is `setitimer(ITIMER_PROF)` asking for 1 kHz of process CPU
//! time (the kernel tick caps it, typically at 250 Hz); the handler stores
//! the interrupted RIP in a fixed static buffer (nothing else is
//! async-signal-safe). Afterwards the load base from `/proc/self/maps` is
//! subtracted and the offsets are symbolised with `addr2line -f -i -C` (the
//! innermost named function outside the standard library; the release
//! profile keeps line tables), or printed raw when `addr2line` is missing.
//! It times nothing for the record: shares only, and `ci.sh` merely builds
//! it.

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    use std::sync::atomic::{AtomicUsize, Ordering};

    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    /// Byte offset of `uc_mcontext.gregs[REG_RIP]` in glibc's x86-64
    /// `ucontext_t`: flags (8) + link (8) + `stack_t` (24), then greg 16.
    const RIP_OFFSET: usize = 40 + 16 * 8;
    const CAPACITY: usize = 1 << 18;

    /// glibc's x86-64 `struct sigaction`.
    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }

    #[repr(C)]
    struct TimeVal {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct ITimerVal {
        interval: TimeVal,
        value: TimeVal,
    }

    extern "C" {
        fn sigaction(signum: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
    }

    static SAMPLES: [AtomicUsize; CAPACITY] = [const { AtomicUsize::new(0) }; CAPACITY];
    /// Samples taken, including those past `CAPACITY` (dropped).
    static TAKEN: AtomicUsize = AtomicUsize::new(0);

    extern "C" fn on_sigprof(_sig: i32, _info: *mut u8, ucontext: *mut u8) {
        // Relaxed: a slot counter and write-once cells, read only after the
        // timer is disarmed and the worker threads are joined.
        let i = TAKEN.fetch_add(1, Ordering::Relaxed);
        if i < CAPACITY {
            // SAFETY: with SA_SIGINFO the kernel passes a valid
            // `ucontext_t`, whose saved RIP sits at `RIP_OFFSET` on
            // x86-64 Linux (the only target this module compiles for).
            let rip = unsafe { ucontext.add(RIP_OFFSET).cast::<usize>().read() };
            SAMPLES[i].store(rip, Ordering::Relaxed);
        }
    }

    fn set_timer(usec: i64) {
        let tick = || TimeVal { sec: 0, usec };
        let timer = ITimerVal {
            interval: tick(),
            value: tick(),
        };
        // SAFETY: `timer` is a valid `struct itimerval`; the old value is
        // not requested.
        let rc = unsafe { setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "setitimer failed");
    }

    /// Runs `work` with the sampler armed and returns the instruction
    /// pointers sampled during it plus the number dropped for lack of room.
    pub fn sample(work: impl FnOnce()) -> (Vec<usize>, usize) {
        // Relaxed: the timer is disarmed, no handler runs.
        TAKEN.store(0, Ordering::Relaxed);
        let act = SigAction {
            handler: on_sigprof as *const () as usize,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        // SAFETY: `act` matches glibc's `struct sigaction` layout and the
        // handler only touches lock-free statics.
        let rc = unsafe { sigaction(SIGPROF, &act, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "sigaction failed");
        set_timer(1000);
        work();
        set_timer(0);
        let taken = TAKEN.load(Ordering::Relaxed);
        let kept = taken.min(CAPACITY);
        let ips = SAMPLES[..kept]
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect();
        (ips, taken - kept)
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() -> std::process::ExitCode {
    use std::process::ExitCode;
    use stmatch_bench::hotpath;
    use stmatch_core::Engine;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut queries: Vec<usize> = Vec::new();
    let mut rounds = 20usize;
    let mut lines = 3usize;
    let mut each = false;
    let mut it = args.iter();
    let mut usage_ok = true;
    while let Some(a) = it.next() {
        let mut number =
            |into: &mut usize| it.next().and_then(|n| n.parse().ok()).map(|n| *into = n);
        let parsed = match a.as_str() {
            "--rounds" => number(&mut rounds),
            "--lines" => number(&mut lines),
            "--each" => {
                each = true;
                Some(())
            }
            _ => a
                .split(',')
                .map(|q| q.trim_start_matches('q').parse().ok())
                .collect::<Option<Vec<usize>>>()
                .filter(|qs| qs.iter().all(|q| (1..=24).contains(q)))
                .map(|qs| queries.extend(qs)),
        };
        usage_ok &= parsed.is_some();
    }
    if !usage_ok || queries.is_empty() {
        eprintln!(
            "usage: probe <q,...> [--rounds N] [--lines N] [--each]   (paper queries 1..=24)"
        );
        return ExitCode::from(2);
    }

    let g = hotpath::graph();
    let engine = Engine::new(hotpath::config());
    // Per query (by its place in `queries`), every round's wall in ms.
    let mut walls = vec![Vec::with_capacity(rounds); queries.len()];
    let mut run = |i: usize| {
        let start = std::time::Instant::now();
        let out = engine
            .run(&g, &hotpath::query(queries[i]))
            .expect("hotpath query runs");
        walls[i].push(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(out.count);
    };
    let mut tables = Vec::new();
    if each {
        for (i, &qi) in queries.iter().enumerate() {
            let (ips, dropped) = sampler::sample(|| (0..rounds).for_each(|_| run(i)));
            tables.push((ips, dropped, format!("{rounds} round(s) of q{qi}")));
        }
    } else {
        let (ips, dropped) =
            sampler::sample(|| (0..rounds).for_each(|_| (0..queries.len()).for_each(&mut run)));
        tables.push((ips, dropped, format!("{rounds} round(s) of q{queries:?}")));
    }
    let sampled: f64 = walls.iter().flatten().sum();
    // The codegen level: walls and shares compare only between builds at one
    // level (`-popcnt` is a software popcount in the rank row).
    let built_for: Vec<String> = [
        ("popcnt", cfg!(target_feature = "popcnt")),
        ("bmi2", cfg!(target_feature = "bmi2")),
        ("avx2", cfg!(target_feature = "avx2")),
    ]
    .into_iter()
    .map(|(name, on)| format!("{}{name}", if on { '+' } else { '-' }))
    .collect();
    println!("probe: built for: {}", built_for.join(" "));
    println!("probe: wall per query over {rounds} round(s) — best, share of the sampled wall");
    for (qi, w) in queries.iter().zip(&walls) {
        let best = w.iter().copied().fold(f64::INFINITY, f64::min);
        let share = 100.0 * w.iter().sum::<f64>() / sampled.max(f64::MIN_POSITIVE);
        println!("  q{qi:<3} {best:9.3} ms  {share:5.1} %");
    }
    for (ips, dropped, what) in &tables {
        report(ips, *dropped, what, lines);
    }
    ExitCode::SUCCESS
}

/// Symbolises one sample set and prints its table: the 30 hottest functions,
/// each with its `lines` hottest `file:line`s.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn report(ips: &[usize], dropped: usize, what: &str, lines: usize) {
    use std::collections::HashMap;
    use std::io::Write;
    use std::process::{Command, Stdio};

    // Offsets into the executable's image; samples outside it (libc, vdso)
    // are pooled.
    let exe = std::env::current_exe().expect("own path");
    let maps = std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps");
    let exe_name = exe.to_string_lossy();
    let ranges: Vec<(usize, usize)> = maps
        .lines()
        .filter(|l| l.ends_with(exe_name.as_ref()))
        .filter_map(|l| {
            let (lo, hi) = l.split_whitespace().next()?.split_once('-')?;
            Some((
                usize::from_str_radix(lo, 16).ok()?,
                usize::from_str_radix(hi, 16).ok()?,
            ))
        })
        .collect();
    let base = ranges.iter().map(|r| r.0).min().unwrap_or(0);
    let mut by_offset: HashMap<usize, usize> = HashMap::new();
    let mut outside = 0usize;
    for ip in ips {
        if ranges.iter().any(|&(lo, hi)| (lo..hi).contains(ip)) {
            *by_offset.entry(ip - base).or_default() += 1;
        } else {
            outside += 1;
        }
    }

    // One `addr2line` run over the distinct offsets; `-a` echoes each
    // address so the inlined frames that follow it can be told apart.
    let offsets: Vec<usize> = by_offset.keys().copied().collect();
    let symbolised = Command::new("addr2line")
        .args(["-a", "-f", "-i", "-C", "-e"])
        .arg(&exe)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .and_then(|mut child| {
            let mut stdin = child.stdin.take().expect("piped stdin");
            let feed: String = offsets.iter().map(|o| format!("{o:#x}\n")).collect();
            // addr2line answers as it reads: feed from another thread so
            // neither pipe fills up.
            let writer = std::thread::spawn(move || stdin.write_all(feed.as_bytes()));
            let out = child.wait_with_output()?;
            writer.join().expect("feeder thread")?;
            Ok(String::from_utf8_lossy(&out.stdout).into_owned())
        });
    // function → (samples, samples per `file:line`).
    let mut by_func: HashMap<String, (usize, HashMap<String, usize>)> = HashMap::new();
    let mut charge = |func: &str, at: &str, n: usize| {
        let entry = by_func.entry(func.to_string()).or_default();
        entry.0 += n;
        *entry.1.entry(at.to_string()).or_default() += n;
    };
    match symbolised {
        Ok(text) if !text.is_empty() => {
            // Per address: "0x…", then (function, file:line) pairs,
            // innermost first. A sample is charged to the innermost named
            // function outside the standard library (`/rustc/…` paths), so
            // a `partition_point` or a closure body shows as the function
            // and line that called it.
            let mut lines = text.lines().peekable();
            for offset in &offsets {
                let header = lines.next();
                debug_assert!(header.is_some_and(|l| l.starts_with("0x")));
                let mut site = ("??", "??:0");
                let mut settled = false;
                while lines.peek().is_some_and(|l| !l.starts_with("0x")) {
                    let func = lines.next().unwrap_or("??");
                    let at = lines.next().unwrap_or("??:0");
                    if !settled {
                        site = (func, at);
                        settled = !at.starts_with("/rustc/") && !func.starts_with("{closure");
                    }
                }
                // `path::to::Type<generics>::name<generics>` → `name`.
                let mut depth = 0usize;
                let plain: String = site
                    .0
                    .chars()
                    .filter(|&c| {
                        depth += usize::from(c == '<');
                        let keep = depth == 0;
                        depth -= usize::from(c == '>' && depth > 0);
                        keep
                    })
                    .collect();
                let name = plain.rsplit("::").next().unwrap_or(&plain);
                let file = site.1.rsplit('/').next().unwrap_or(site.1);
                charge(name, file, by_offset[offset]);
            }
        }
        _ => {
            eprintln!("probe: addr2line unavailable, printing raw image offsets");
            for (o, n) in &by_offset {
                charge(&format!("{o:#x}"), "", *n);
            }
        }
    }

    let total = ips.len();
    let share = |n: usize| 100.0 * n as f64 / total.max(1) as f64;
    println!(
        "probe: {total} samples ({dropped} dropped, {outside} outside the image) over \
         {what}; share, function, its hottest lines"
    );
    let mut funcs: Vec<_> = by_func.into_iter().collect();
    funcs.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then_with(|| a.0.cmp(&b.0)));
    for (func, (n, at)) in funcs.iter().take(30) {
        let mut at: Vec<_> = at.iter().collect();
        at.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        let hottest: Vec<String> = at
            .iter()
            .take(lines)
            .map(|(at, n)| format!("{at} {:.1}", share(**n)))
            .collect();
        println!("{:6.2} %  {func}  ({})", share(*n), hottest.join(", "));
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    eprintln!("probe: unsupported platform (the sampler needs x86-64 Linux)");
}
