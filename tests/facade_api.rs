//! The facade crate's public API: re-exports, trait objects, and
//! thread-safety guarantees downstream users rely on.

use secure_tlbs::tlb::{Tlb, TlbConfig, TlbCore};

#[test]
fn all_designs_are_usable_through_the_trait_object() {
    let config = TlbConfig::sa(32, 4).unwrap();
    let tlbs: Vec<Box<dyn TlbCore>> = vec![
        Box::new(Tlb::sa(config)),
        Box::new(Tlb::sp(config, 2).unwrap()),
        Box::new(Tlb::rf(config, Default::default(), Default::default())),
    ];
    let names: Vec<&str> = tlbs.iter().map(|t| t.design_name()).collect();
    assert_eq!(names, ["SA", "SP", "RF"]);
    for t in &tlbs {
        assert_eq!(t.config().entries(), 32);
        assert_eq!(t.stats().accesses, 0);
    }
}

#[test]
fn core_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Tlb>();
    assert_send_sync::<secure_tlbs::model::Vulnerability>();
    assert_send_sync::<secure_tlbs::tlb::TlbStats>();
    assert_send_sync::<secure_tlbs::sim::ExecStats>();
    assert_send_sync::<secure_tlbs::workloads::RsaKey>();
}

#[test]
fn machines_can_run_on_worker_threads() {
    let handles: Vec<_> = (0..4)
        .map(|seed| {
            std::thread::spawn(move || {
                let mut m = secure_tlbs::sim::MachineBuilder::new()
                    .design(secure_tlbs::sim::machine::TlbDesign::Rf)
                    .seed(seed)
                    .build();
                let p = m.os_mut().create_process();
                m.os_mut()
                    .map_region(p, secure_tlbs::tlb::types::Vpn(0x10), 4)
                    .unwrap();
                m.run(&[
                    secure_tlbs::sim::Instr::SetAsid(p),
                    secure_tlbs::sim::Instr::Load(0x10_000),
                ]);
                m.tlb_stats().accesses
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().expect("no panic"), 1);
    }
}

#[test]
fn facade_reexports_cover_the_workflow() {
    // Model -> benchmark -> capacity, all through the facade paths.
    let vulns = secure_tlbs::model::enumerate_vulnerabilities();
    let c = secure_tlbs::secbench::binary_channel_capacity(1.0, 0.0);
    assert_eq!(vulns.len(), 24);
    assert_eq!(c, 1.0);
    let estimate = secure_tlbs::area::estimate(
        secure_tlbs::sim::machine::TlbDesign::Rf,
        TlbConfig::sa(32, 4).unwrap(),
    );
    assert!(estimate.luts > 0);
}
