//! A failed solve is confined to its own request.
//!
//! Three dynamic-system requests share one pump-mode batch; the middle
//! input holds a NaN. The NODE path refuses a non-finite state with a
//! typed error in every build, and the batched solve returns one result
//! per sample, so only the middle ticket fails. Its batchmates are
//! delivered bit-equal to their solo solves.

use enode_node::inference::{forward_model, NodeError, NodeSolveOptions};
use enode_node::model::NodeModel;
use enode_serve::{Clock, Priority, Rejected, Request, ServeConfig, Server, ToleranceClass};
use enode_tensor::{init, Tensor};

fn model() -> NodeModel {
    NodeModel::dynamic_system(2, 16, 2, 7)
}

fn request(input: Tensor) -> Request {
    Request {
        input,
        deadline_us: 60_000_000,
        tolerance_class: ToleranceClass::Standard,
        priority: Priority::Normal,
    }
}

#[test]
fn a_nan_input_fails_alone_and_its_batchmates_are_delivered() {
    let mut cfg = ServeConfig::edge_default();
    cfg.workers = 0;
    let base = NodeSolveOptions::new(1e-4);
    // Standard class at tier 0: the options every served solve runs.
    let opts = cfg.tiers[0]
        .solve_override(ToleranceClass::Standard)
        .apply(&base);
    let server = Server::new(model(), base, cfg, Clock::virtual_at(0));
    let inputs = [
        init::uniform(&[1, 2], -1.0, 1.0, 700),
        Tensor::from_vec(vec![0.25, f32::NAN], &[1, 2]),
        init::uniform(&[1, 2], -1.0, 1.0, 702),
    ];
    let tickets: Vec<_> = inputs
        .iter()
        .map(|x| server.submit(request(x.clone())).expect("admitted"))
        .collect();

    let batch = server.form_batch(true).expect("a batch forms");
    assert_eq!(batch.len(), 3, "all three requests share one batch");
    let solved = server.solve_batch(batch);
    assert_eq!(solved.per_sample_nfe().len(), 2, "two samples solved");
    server.deliver_batch(solved);
    assert!(server.form_batch(true).is_none());

    for (i, ticket) in tickets.iter().enumerate() {
        let outcome = ticket.try_take().expect("resolved");
        if i == 1 {
            assert_eq!(
                outcome.unwrap_err(),
                Rejected::SolveFailed(NodeError::NonFiniteState { layer: 0 })
            );
        } else {
            let response = outcome.expect("served");
            let (solo, _) = forward_model(&model(), &inputs[i], &opts).expect("solo solve");
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&response.output), bits(&solo), "request {i}");
            assert_eq!(response.output.shape(), solo.shape());
            assert_eq!(response.batch_size, 3);
        }
    }

    let s = server.snapshot();
    assert_eq!((s.completed, s.failed), (2, 1));
    assert!(s.reconciles(), "outcomes must reconcile exactly");
}
