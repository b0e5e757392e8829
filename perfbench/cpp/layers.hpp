// Layer replays for the traced run.
//
// A traced run times every public call the workload itself makes. Layers the
// workload does not call (the cluster under `live`, the serve path under
// `offline`, ...) and the model kernels in isolation are measured by
// replaying them here on the workload's own inputs and model, so every
// per-layer metric is a measurement on every workload.
#pragma once

#include "workloads.hpp"

namespace pb {

/// Pipeline layer on the stream pool: GestureSegmenter::push per frame,
/// Preprocessor::process_segment, featurize_into per TTA variant, and
/// segment recall against the truth spans.
void replay_pipeline(const Context& ctx, LayerLog& out);

/// GesIDNet forwards (predict_logits_into) on the workload's fused snapshot
/// models (quant `quant`), and extract_features on the unfused model.
void replay_gesidnet(const Context& ctx, gp::nn::QuantMode quant, LayerLog& out);

/// Unfused GesturePrintSystem::classify on the pool's segments.
void replay_classify(const Context& ctx, LayerLog& out);

/// cluster/wire.hpp codecs: encode_wire_frame over the pool's frames and
/// decode_wire_results over `answers` in batches.
void replay_wire(const Context& ctx, const std::vector<gp::serve::ServeResult>& answers,
                 LayerLog& out);

/// ModelRegistry::publish_file, `times` times, into a fresh registry.
void replay_publish(const Context& ctx, gp::nn::QuantMode quant, int times, LayerLog& out);

/// One closed-loop pass through a fresh single-process Server.
RunResult replay_serve(const Context& ctx, gp::nn::QuantMode quant);

/// Spawns a kClusterWorkers cluster and runs one closed-loop pass through it;
/// `spawn_ms` receives the construction time.
RunResult replay_cluster(const Context& ctx, double& spawn_ms);

}  // namespace pb
