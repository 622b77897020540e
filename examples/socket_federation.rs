//! Run one federation over real TCP sockets — twice.
//!
//! 1. **Socket transport**: the ordinary in-process engine, but every
//!    party → server upload crosses a loopback TCP socket in the
//!    `fedhh-wire` frame format (`TransportKind::Tcp`).
//! 2. **Distributed session**: a coordinator and two "party nodes" (spawned
//!    here as threads; the `fedhh-node` binary runs the same code as real
//!    OS processes) execute the federation SPMD-style through the node
//!    control plane, each node driving only its own parties.
//!
//! Both produce output bit-identical to the plain in-memory run at the
//! same seed.
//!
//! ```text
//! cargo run --example socket_federation
//! ```

use fedhh::federated::{connect_party, NodeServer, NodeWelcome, ScenarioPlan};
use fedhh::prelude::*;

fn main() {
    let dataset = DatasetConfig::test_scale().build(DatasetKind::Rdb);
    let config = ProtocolConfig::test_default().with_epsilon(4.0).with_k(10);

    // The reference: the plain in-memory engine.
    let reference = Run::mechanism(MechanismKind::Taps)
        .dataset(&dataset)
        .config(config)
        .execute()
        .expect("in-memory run");
    println!("in-memory   top-3: {:?}", &reference.heavy_hitters[..3]);

    // Leg 1: same engine, but uploads travel over a loopback TCP socket.
    let tcp = Run::mechanism(MechanismKind::Taps)
        .dataset(&dataset)
        .config(config)
        .engine(EngineConfig::sequential().transport(TransportKind::Tcp))
        .execute()
        .expect("socket-transport run");
    println!("tcp         top-3: {:?}", &tcp.heavy_hitters[..3]);
    assert_eq!(tcp.heavy_hitters, reference.heavy_hitters);
    assert_eq!(
        tcp.comm.total_uplink_bits(),
        reference.comm.total_uplink_bits()
    );

    // Leg 2: a distributed session — coordinator plus one node per party.
    // The welcome ships the protocol config and the party partition; each
    // node rebuilds the dataset deterministically (here they share it).
    let server = NodeServer::bind("127.0.0.1:0").expect("bind coordinator");
    let addr = server.local_addr().expect("bound address");
    let welcome = NodeWelcome {
        config,
        scenario: ScenarioPlan::benign(),
        parallelism: 1,
        assignments: vec![(0, 1), (1, 2)], // one party per node
        app: Vec::new(),
    };

    let nodes: Vec<_> = (0..welcome.assignments.len())
        .map(|_| {
            let dataset = dataset.clone();
            std::thread::spawn(move || {
                let (link, welcome) = connect_party(addr).expect("join coordinator");
                // Each node runs the plan its welcome ships.
                Run::mechanism(MechanismKind::Taps)
                    .dataset(&dataset)
                    .config(welcome.config)
                    .engine(EngineConfig::sequential().with_scenario(welcome.scenario))
                    .link(SessionLink::Party(link))
                    .execute()
                    .expect("party node run")
            })
        })
        .collect();

    let link = server.accept_parties(&welcome).expect("handshake");
    let distributed = Run::mechanism(MechanismKind::Taps)
        .dataset(&dataset)
        .config(config)
        .link(SessionLink::Coordinator(link))
        .execute()
        .expect("coordinator run");
    println!("distributed top-3: {:?}", &distributed.heavy_hitters[..3]);

    assert_eq!(distributed.heavy_hitters, reference.heavy_hitters);
    assert_eq!(
        distributed.comm.total_uplink_bits(),
        reference.comm.total_uplink_bits()
    );
    // Every node computed the same answer (SPMD: identical collections).
    for node in nodes {
        let output = node.join().expect("node thread");
        assert_eq!(output.heavy_hitters, reference.heavy_hitters);
    }
    println!("all three runs are bit-identical ✔");
}
