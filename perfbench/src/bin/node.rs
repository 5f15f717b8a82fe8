//! The `privapprox-node` child process used by the `socket_paced`
//! workload, built beside the `perfbench` executable.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(privapprox_core::remote::node_main(&args));
}
