#!/usr/bin/env bash
# Full local CI gate: formatting, lints-as-errors, then the tier-1
# build + test pass and the remaining workspace tests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy (pairhmm hot-loop lints)"
# The kernel crate additionally forbids indexed hot loops (they defeat
# autovectorization) and large stack arrays.
cargo clippy -p pairhmm --all-targets -- \
    -D clippy::needless_range_loop -D clippy::large_stack_arrays

echo "==> cargo clippy + fmt (engine contract crate)"
# The contract crate is the one surface every caller depends on; hold it
# to warnings-as-errors on its own (fast signal even when the workspace
# pass is skipped) and keep it formatted.
cargo fmt -p engine -- --check
cargo clippy -p engine --all-targets -- -D warnings

echo "==> tier-1: build + test"
cargo build --release
cargo test -q

echo "==> workspace tests"
cargo test -q --workspace

echo "==> benchmark harness: perfbench builds and tests against the crates"
# perfbench is a workspace of its own (path deps on the crates), so the
# workspace pass above never compiles it.
cargo test -q --manifest-path perfbench/Cargo.toml

echo "==> conformance gate: gnumap verify --fast"
target/release/gnumap verify --fast

echo "==> trace smoke: --trace-json through the registry drivers"
trace_dir="target/trace-smoke"
rm -rf "$trace_dir"
mkdir -p "$trace_dir"
target/release/gnumap simulate --out-dir "$trace_dir" \
    --genome-len 8000 --snps 6 --coverage 6 --seed 1109 >/dev/null
target/release/gnumap drivers | grep -q '`serial`' || {
    echo "gnumap drivers does not list the serial driver"; exit 1;
}
# Every registry driver; the ring allreduce accepts only the norm
# accumulator, so all of them run with it.
for driver in serial rayon read-split read-split-ring genome-split stream server; do
    target/release/gnumap call --reference "$trace_dir/reference.fa" \
        --reads "$trace_dir/reads.fq" --out "$trace_dir/$driver.vcf" \
        --driver "$driver" --accumulator norm \
        --trace-json "$trace_dir/$driver.trace.jsonl" >/dev/null
    target/release/gnumap trace-check --trace "$trace_dir/$driver.trace.jsonl" \
        >/dev/null || {
        echo "trace-check rejected the $driver trace:"
        cat "$trace_dir/$driver.trace.jsonl"
        exit 1
    }
done

echo "==> bit-identity smoke: serial vs stream vs checkpointed stream, fixed point"
# The FIXED-accumulator contract at the CLI: the streaming engine, with
# and without checkpoints, writes the serial driver's VCF byte for byte.
# The checkpointed run uses 4-read batches so that its ~190 batches
# cross the CLI's 64-batch checkpoint interval.
fixed_call() {
    local out="$1"; shift
    target/release/gnumap call --reference "$trace_dir/reference.fa" \
        --reads "$trace_dir/reads.fq" --out "$trace_dir/$out" \
        --accumulator fixed "$@"
}
rm -rf "$trace_dir/ckpt"
fixed_call fixed.serial.vcf --driver serial >/dev/null
fixed_call fixed.stream.vcf --driver stream --workers 2 --batch-size 16 >/dev/null
ckpt_summary="$(fixed_call fixed.stream-ckpt.vcf --driver stream --workers 2 \
    --batch-size 4 --checkpoint-dir "$trace_dir/ckpt")"
grep -q ' [1-9][0-9]* checkpoints' <<<"$ckpt_summary" || {
    echo "the checkpointed stream run wrote no checkpoint: $ckpt_summary"; exit 1;
}
cmp "$trace_dir/fixed.serial.vcf" "$trace_dir/fixed.stream.vcf"
cmp "$trace_dir/fixed.serial.vcf" "$trace_dir/fixed.stream-ckpt.vcf"

echo "==> fastq smoke: CRLF line endings and trailing spaces, serial vs stream"
# One FASTQ parser serves every driver: a copy of the reads with a
# trailing space and a CR on every line must map identically both ways.
sed 's/$/ \r/' "$trace_dir/reads.fq" > "$trace_dir/reads.crlf.fq"
crlf_summary() {
    target/release/gnumap call --reference "$trace_dir/reference.fa" \
        --reads "$trace_dir/reads.crlf.fq" --out "$trace_dir/crlf.$1.vcf" \
        --driver "$1" | grep -o 'mapped [0-9]*/[0-9]*'
}
serial_summary="$(crlf_summary serial)"
stream_summary="$(crlf_summary stream)"
[[ "$serial_summary" == "$stream_summary" ]] || {
    echo "serial ($serial_summary) and stream ($stream_summary) disagree" \
        "on the CRLF + trailing-space FASTQ"
    exit 1
}

echo "==> serve smoke: loopback server round trip + clean drain"
smoke_dir="target/serve-smoke"
rm -rf "$smoke_dir"
mkdir -p "$smoke_dir"
target/release/gnumap simulate --out-dir "$smoke_dir" \
    --genome-len 6000 --snps 5 --coverage 8 --seed 404 >/dev/null
serve_log="$smoke_dir/serve.log"
target/release/gnumap serve --reference "$smoke_dir/reference.fa" \
    --addr 127.0.0.1:0 --workers 2 --port-file "$smoke_dir/port" \
    > "$serve_log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
    [[ -s "$smoke_dir/port" ]] && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$serve_log"; exit 1; }
    sleep 0.1
done
addr="$(cat "$smoke_dir/port")"
target/release/gnumap client --addr "$addr" --ping >/dev/null
target/release/gnumap client --addr "$addr" --reads "$smoke_dir/reads.fq" \
    --out "$smoke_dir/served.vcf" >/dev/null
target/release/gnumap client --addr "$addr" --stats >/dev/null
target/release/gnumap client --addr "$addr" --shutdown >/dev/null
wait "$serve_pid"
grep -q "drained:" "$serve_log" || {
    echo "server did not report a clean drain:"; cat "$serve_log"; exit 1;
}
grep -qv "^#" "$smoke_dir/served.vcf" || {
    echo "served VCF has no call records"; exit 1;
}

echo "==> benchmark smoke: perfbench deep-small, FASTQ to VCF, traced"
# The real end-to-end benchmark on its smallest workload; the last line
# printed is the result object, which must report a correct run.
bench_result="$(python3 perfbench/run.py --workload deep-small --seed 1 \
    --seconds 2 --trace 1 | tail -n 1)"
grep -q '"correct": true' <<<"$bench_result" || {
    echo "perfbench smoke run was not correct:"; echo "$bench_result"; exit 1;
}

echo "CI gate passed."
