//! API-contract assertions (Rust API guidelines): the crate's central
//! public types are `Send + Sync` (usable across threads), `Clone` where
//! promised, and `Debug` everywhere.

fn assert_send_sync<T: Send + Sync>() {}
fn assert_clone_debug<T: Clone + std::fmt::Debug>() {}

#[test]
fn coding_types_are_send_sync() {
    assert_send_sync::<gf256::Gf256>();
    assert_send_sync::<gf256::Matrix>();
    assert_send_sync::<erasure::LinearCode>();
    assert_send_sync::<erasure::SparseEncoder>();
    assert_send_sync::<erasure::ColumnUpdater>();
    assert_send_sync::<erasure::DecodePlan>();
    assert_send_sync::<erasure::ReadPlan>();
    assert_send_sync::<erasure::DegradedPlan>();
    assert_send_sync::<erasure::RepairPlan>();
    assert_send_sync::<erasure::DataLayout>();
    assert_send_sync::<erasure::CodeError>();
    assert_send_sync::<rs_code::ReedSolomon>();
    assert_send_sync::<msr::ProductMatrixMsr>();
    assert_send_sync::<msr::ProductMatrixMbr>();
    assert_send_sync::<carousel::Carousel>();
}

#[test]
fn simulation_types_are_send_sync() {
    assert_send_sync::<simcore::Engine<u32>>();
    assert_send_sync::<simcore::FlowNet>();
    assert_send_sync::<dfs::ClusterSpec>();
    assert_send_sync::<dfs::Namenode>();
    assert_send_sync::<dfs::StoredFile>();
    assert_send_sync::<dfs::Policy>();
    assert_send_sync::<mapreduce::WorkloadProfile>();
    assert_send_sync::<mapreduce::JobStats>();
    assert_send_sync::<filestore::FileError>();
    assert_send_sync::<filestore::FileMeta>();
}

#[test]
fn data_types_are_clone_debug() {
    assert_clone_debug::<gf256::Matrix>();
    assert_clone_debug::<erasure::LinearCode>();
    assert_clone_debug::<erasure::DataLayout>();
    assert_clone_debug::<carousel::Carousel>();
    assert_clone_debug::<carousel::CarouselParams>();
    assert_clone_debug::<dfs::ClusterSpec>();
    assert_clone_debug::<dfs::StoredFile>();
    assert_clone_debug::<mapreduce::WorkloadProfile>();
    assert_clone_debug::<filestore::FileMeta>();
    assert_clone_debug::<access::CodeSpec>();
}

#[test]
fn parallel_encode_across_threads() {
    // A code can be shared immutably across threads and used concurrently —
    // the access pattern of a real storage server.
    use std::sync::Arc;
    let code = Arc::new(carousel::Carousel::new(6, 3, 3, 6).unwrap());
    // Raw threads on purpose: the property is `Send + Sync`, not the pool.
    #[allow(clippy::disallowed_methods)]
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let code = Arc::clone(&code);
            std::thread::spawn(move || {
                use erasure::ErasureCode;
                let data: Vec<u8> = (0..600).map(|i| (i * (t + 2)) as u8).collect();
                let stripe = code.linear().encode(&data).unwrap();
                let out = code
                    .linear()
                    .decode_nodes(
                        &[1, 3, 5],
                        &[&stripe.blocks[1], &stripe.blocks[3], &stripe.blocks[5]],
                    )
                    .unwrap();
                assert_eq!(&out[..data.len()], &data[..]);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}
