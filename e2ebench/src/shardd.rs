//! `privacy-shardd`, rebuilt inside the benchmark package: one shard-owning
//! monitor worker driven by `DistributedMonitor` over stdin/stdout pipes.

fn main() {
    std::process::exit(privacy_mde::distrib::worker::shardd_main(std::env::args().skip(1)));
}
