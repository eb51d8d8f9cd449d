//! The `gnumap` command-line tool: simulate workloads, call SNPs to VCF,
//! evaluate against a truth set, and inspect index statistics.
//!
//! All logic lives in [`gnumap_snp::cli`]; this shell only handles process
//! boundaries (argv, stdout, exit codes).

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "-h" || argv[0] == "help" {
        print!("{}", gnumap_snp::cli::USAGE);
        std::process::exit(if argv.is_empty() { 2 } else { 0 });
    }
    let mut stdout = std::io::stdout().lock();
    if let Err(message) = gnumap_snp::cli::run(&argv, &mut stdout) {
        eprintln!("gnumap: {message}");
        std::process::exit(1);
    }
}
