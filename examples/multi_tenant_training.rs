//! Three tenants train different networks concurrently on one GPU under
//! Guardian address fencing — the paper's headline scenario.
//!
//! Run with: `cargo run --release -p bench --example multi_tenant_training`

use cuda_rt::lockstep::Lockstep;
use cuda_rt::share_device;
use frameworks::{train, Network, TrainConfig};
use gpu_sim::spec::rtx_a4000;
use gpu_sim::Device;
use guardian::backends::{deploy, Deployment};

fn main() {
    let device = share_device(Device::new(rtx_a4000()));
    let tenancy = deploy(&device, Deployment::GuardianFencing, 3, 64 << 20, &[]).expect("deploy");
    let nets = [Network::Lenet, Network::Cifar10, Network::Siamese];
    // Round-robin lockstep makes the printed makespan reproducible.
    let runtimes = Lockstep::wrap_all(tenancy.runtimes);
    let mut handles = Vec::new();
    for (mut rt, net) in runtimes.into_iter().zip(nets) {
        handles.push(std::thread::spawn(move || {
            let cfg = TrainConfig {
                epochs: 3,
                batch_size: 4,
                batches_per_epoch: 2,
                lr: 0.2,
                seed: 42,
            };
            let report = train(rt.as_mut(), net, &cfg).expect("training");
            (net, report)
        }));
    }
    for h in handles {
        let (net, r) = h.join().expect("tenant");
        println!(
            "{net:?}: loss {:.3} -> {:.3}, final batch accuracy {:.0}%",
            r.first_epoch_loss,
            r.last_epoch_loss,
            r.final_accuracy * 100.0
        );
    }
    let mut dev = device.lock();
    dev.synchronize();
    println!(
        "makespan: {:.3} ms simulated, {} kernels launched, {} faults",
        dev.elapsed_secs() * 1e3,
        dev.total_launches(),
        dev.faults_total()
    );
    drop(dev);
    // The manager's threads are joined when `tenancy` drops here.
}
