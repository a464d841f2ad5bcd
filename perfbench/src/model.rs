//! The speech BLSTM every workload runs.

use bpar_core::model::{Brnn, BrnnConfig, ModelKind};
use bpar_data::tidigits::DIGIT_CLASSES;
use bpar_router::{build_models, default_tenants};

/// LSTM, input 20, hidden 32, 2 layers, 11 digit classes, many-to-one.
pub const SPEECH: BrnnConfig = BrnnConfig {
    cell: bpar_core::CellKind::Lstm,
    input_size: 20,
    hidden_size: 32,
    layers: 2,
    seq_len: 14,
    output_size: DIGIT_CLASSES,
    merge: bpar_core::MergeMode::Sum,
    kind: ModelKind::ManyToOne,
};

/// One model per tenant, with the router's default tenant seeds.
pub fn speech_models(tenants: u32) -> Vec<Brnn<f32>> {
    build_models(SPEECH, &default_tenants(tenants as usize))
}
