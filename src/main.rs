//! `stmatch` — command-line graph pattern matching.
//!
//! ```text
//! stmatch count  --graph data.lg|edges.txt --pattern q8|triangle|pattern.lg
//!                [--induced] [--no-symmetry] [--labels N[,SEED]]
//!                [--unroll N] [--blocks N] [--warps N] [--timeout SECS]
//!                [--devices N] [--enumerate LIMIT]
//! stmatch stats  --graph data.lg|edges.txt
//! stmatch gen    --kind rmat|er|pa --out edges.txt [--scale S] [--edges M] [--seed K]
//! ```
//!
//! Graph files ending in `.lg` are parsed as labeled graphs; anything else
//! as SNAP edge lists. Patterns are either a catalog name (`triangle`,
//! `wedge`, `square`, `diamond`, `k4`..., `q1`..`q24`) or a `.lg` file.

use std::process::exit;
use std::time::Duration;
use stmatch_core::{Engine, EngineConfig};
use stmatch_gpusim::GridConfig;
use stmatch_graph::{gen, io, Graph, GraphStats};
use stmatch_pattern::{catalog, Pattern};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
        exit(2);
    };
    let opts = Opts::parse(rest);
    match cmd.as_str() {
        "count" => count(&opts),
        "stats" => stats(&opts),
        "gen" => generate(&opts),
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("unknown command `{other}`");
            usage();
            exit(2);
        }
    }
}

#[derive(Default)]
struct Opts {
    graph: Option<String>,
    pattern: Option<String>,
    induced: bool,
    no_symmetry: bool,
    labels: Option<(u32, u64)>,
    unroll: Option<usize>,
    blocks: Option<usize>,
    warps: Option<usize>,
    timeout: Option<u64>,
    devices: usize,
    enumerate: Option<usize>,
    kind: Option<String>,
    out: Option<String>,
    scale: u32,
    edges: usize,
    seed: u64,
}

impl Opts {
    fn parse(args: &[String]) -> Opts {
        let mut o = Opts {
            devices: 1,
            scale: 10,
            edges: 8,
            seed: 42,
            ..Opts::default()
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut next = |what: &str| -> String {
                it.next()
                    .unwrap_or_else(|| {
                        eprintln!("{what} needs a value");
                        exit(2);
                    })
                    .clone()
            };
            match a.as_str() {
                "--graph" => o.graph = Some(next("--graph")),
                "--pattern" => o.pattern = Some(next("--pattern")),
                "--induced" => o.induced = true,
                "--no-symmetry" => o.no_symmetry = true,
                "--labels" => {
                    let v = next("--labels");
                    let mut parts = v.splitn(2, ',');
                    let n: u32 = parts.next().unwrap().parse().expect("label count");
                    let seed: u64 = parts.next().map(|s| s.parse().expect("seed")).unwrap_or(0);
                    o.labels = Some((n, seed));
                }
                "--unroll" => o.unroll = Some(next("--unroll").parse().expect("unroll")),
                "--blocks" => o.blocks = Some(next("--blocks").parse().expect("blocks")),
                "--warps" => o.warps = Some(next("--warps").parse().expect("warps")),
                "--timeout" => o.timeout = Some(next("--timeout").parse().expect("seconds")),
                "--devices" => o.devices = next("--devices").parse().expect("devices"),
                "--enumerate" => o.enumerate = Some(next("--enumerate").parse().expect("limit")),
                "--kind" => o.kind = Some(next("--kind")),
                "--out" => o.out = Some(next("--out")),
                "--scale" => o.scale = next("--scale").parse().expect("scale"),
                "--edges" => o.edges = next("--edges").parse().expect("edges"),
                "--seed" => o.seed = next("--seed").parse().expect("seed"),
                other => {
                    eprintln!("unknown flag `{other}`");
                    usage();
                    exit(2);
                }
            }
        }
        o
    }
}

fn load_graph(opts: &Opts) -> Graph {
    let path = opts.graph.as_deref().unwrap_or_else(|| {
        eprintln!("--graph is required");
        exit(2);
    });
    let g = if path.ends_with(".lg") {
        io::load_lg(path)
    } else {
        io::load_edge_list(path)
    };
    let mut g = g.unwrap_or_else(|e| {
        eprintln!("failed to load `{path}`: {e}");
        exit(1);
    });
    if let Some((n, seed)) = opts.labels {
        g = gen::assign_random_labels(&g, n, seed);
    }
    g.degree_ordered().with_name(path)
}

fn load_pattern(opts: &Opts) -> Pattern {
    let spec = opts.pattern.as_deref().unwrap_or_else(|| {
        eprintln!("--pattern is required");
        exit(2);
    });
    let p = match spec {
        "triangle" => catalog::triangle(),
        "wedge" => catalog::wedge(),
        "square" => catalog::square(),
        "diamond" => catalog::diamond(),
        "star3" => catalog::star3(),
        "k4" => catalog::k4(),
        "k5" => catalog::clique(5),
        "k6" => catalog::clique(6),
        "k7" => catalog::clique(7),
        q if q.starts_with('q') => match q[1..].parse::<usize>() {
            Ok(i) if (1..=24).contains(&i) => catalog::paper_query(i),
            _ => {
                eprintln!("unknown query `{q}` (expect q1..q24)");
                exit(2);
            }
        },
        path => {
            let g = io::load_lg(path).unwrap_or_else(|e| {
                eprintln!("failed to load pattern `{path}`: {e}");
                exit(1);
            });
            Pattern::from_graph(&g)
        }
    };
    match opts.labels {
        Some((n, seed)) if !p.is_labeled() => p.with_random_labels(n, seed),
        _ => p,
    }
}

fn engine_config(opts: &Opts) -> EngineConfig {
    let mut cfg = EngineConfig {
        induced: opts.induced,
        symmetry_breaking: !opts.no_symmetry,
        ..EngineConfig::default()
    };
    if let Some(u) = opts.unroll {
        cfg = cfg.with_unroll(u);
    }
    let mut grid = GridConfig::default();
    if let Some(b) = opts.blocks {
        grid.num_blocks = b;
    }
    if let Some(w) = opts.warps {
        grid.warps_per_block = w;
    }
    // `--devices N`: one shard grid per device over the paper's static
    // split of the outermost loop (§VIII-B) — no cross-device stealing.
    cfg.shard.shards = opts.devices.max(1);
    cfg.shard.cross_steal = false;
    cfg.with_grid(grid)
}

fn count(opts: &Opts) {
    let g = load_graph(opts);
    let p = load_pattern(opts);
    let mut engine = Engine::new(engine_config(opts));
    if let Some(secs) = opts.timeout {
        engine = engine.with_timeout(Duration::from_secs(secs));
    }
    eprintln!(
        "matching `{}` ({} vertices) against {} ({} vertices, induced={}, symmetry={})",
        g.name(),
        g.num_vertices(),
        p.name(),
        p.size(),
        opts.induced,
        !opts.no_symmetry
    );
    if let Some(limit) = opts.enumerate {
        let en = engine.enumerate(&g, &p).unwrap_or_else(|e| {
            eprintln!("launch failed: {e}");
            exit(1);
        });
        for emb in en.embeddings.iter().take(limit) {
            let cells: Vec<String> = emb.iter().map(|v| v.to_string()).collect();
            println!("{}", cells.join(" "));
        }
        eprintln!(
            "{} matches ({} shown), {:.1} ms",
            en.embeddings.len(),
            limit.min(en.embeddings.len()),
            en.outcome.elapsed_ms()
        );
        return;
    }
    if opts.devices > 1 {
        let out = engine.run_sharded(&g, &p).unwrap_or_else(|e| {
            eprintln!("launch failed: {e}");
            exit(1);
        });
        println!("{}", out.outcome.count);
        eprintln!(
            "{} devices, bottleneck {:.2} Mcycles",
            opts.devices,
            out.outcome.simulated_cycles() as f64 / 1e6
        );
        return;
    }
    let out = engine.run(&g, &p).unwrap_or_else(|e| {
        eprintln!("launch failed: {e}");
        exit(1);
    });
    println!("{}", out.count);
    eprintln!(
        "{:.1} ms wall, {:.2} Mcycles (sim), lane utilization {:.1}%{}",
        out.elapsed_ms(),
        out.simulated_cycles() as f64 / 1e6,
        out.metrics.lane_utilization() * 100.0,
        if out.timed_out {
            " [TIMED OUT: partial]"
        } else {
            ""
        }
    );
}

fn stats(opts: &Opts) {
    let g = load_graph(opts);
    println!("{}", GraphStats::of(&g));
}

fn generate(opts: &Opts) {
    let kind = opts.kind.as_deref().unwrap_or("rmat");
    let g = match kind {
        "rmat" => gen::rmat(opts.scale, opts.edges, opts.seed),
        "er" => gen::erdos_renyi(1 << opts.scale, (1 << opts.scale) * opts.edges, opts.seed),
        "pa" => gen::preferential_attachment(1 << opts.scale, opts.edges.max(1), opts.seed),
        other => {
            eprintln!("unknown generator `{other}` (rmat|er|pa)");
            exit(2);
        }
    };
    let out = opts.out.as_deref().unwrap_or_else(|| {
        eprintln!("--out is required");
        exit(2);
    });
    let file = std::fs::File::create(out).unwrap_or_else(|e| {
        eprintln!("cannot create `{out}`: {e}");
        exit(1);
    });
    io::write_lg(&g, std::io::BufWriter::new(file)).expect("write");
    eprintln!(
        "wrote {} ({} vertices, {} edges) to {out}",
        kind,
        g.num_vertices(),
        g.num_edges()
    );
}

fn usage() {
    println!(
        "stmatch — stack-based graph pattern matching (STMatch, SC'22 reproduction)\n\n\
         usage:\n\
         \u{20}  stmatch count --graph G --pattern P [--induced] [--no-symmetry]\n\
         \u{20}                [--labels N[,SEED]] [--unroll N] [--blocks N] [--warps N]\n\
         \u{20}                [--timeout SECS] [--devices N] [--enumerate LIMIT]\n\
         \u{20}  stmatch stats --graph G\n\
         \u{20}  stmatch gen   --kind rmat|er|pa --out FILE [--scale S] [--edges M] [--seed K]\n\n\
         G: .lg (labeled) or SNAP edge list; P: catalog name (triangle, k5, q1..q24) or .lg file"
    );
}
