// Per-layer measurements taken from outside the library: each one times
// calls into a public function (EmbeddingTable::lookup_sum_batch,
// Dlrm::predict_batch, DenseLayer::infer_batch, enw::matmul_nt, ...) on the
// workload's own model and inputs.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "data/click_log.h"
#include "recsys/dlrm.h"

namespace perfbench {

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Median over rounds of the mean time per call of fn(i), in ns, where i
/// counts calls from 0. Rounds are sized to last at least ~50 us and run
/// until `budget_s` is spent (at least 5 rounds). Each call is wrapped in
/// the trace span `span` so a traced pass shows the benchmark's own calls.
double per_call_ns(const char* span, const std::function<void(std::size_t)>& fn,
                   double budget_s);

/// A GEMM shape: output m x n, inner dimension k.
struct GemmShape {
  std::size_t m, n, k;
  std::string label() const;
};

/// The matmul_nt shapes of every dense layer of the three DLRM workloads at
/// batch 1 and batch 32. One fixed list, so every workload reports the same
/// metric names.
std::vector<GemmShape> serving_gemm_shapes();

/// tensor.* GFLOP/s metrics: matmul_nt at the serving shapes on
/// `serve_threads` kernel threads, and the forward (matmul_nt), backward
/// (matmul) and update (matmul_tn_acc) GEMMs of Mlp{784,256,10} training at
/// batch 64 on `train_threads`.
std::vector<Metric> measure_tensor(double budget_s, std::size_t serve_threads,
                                   std::size_t train_threads);

/// recsys.*, dlrm.* and nn.{bottom,top}_mlp metrics of `model` on `pool`.
std::vector<Metric> measure_dlrm_layers(const enw::recsys::Dlrm& model,
                                        std::span<const enw::data::ClickSample> pool,
                                        double budget_s);

/// Embedding rows a request gathers (mean over the pool), and the megabytes
/// of distinct embedding rows the pool touches.
double rows_per_request(std::span<const enw::data::ClickSample> pool);
double touched_mb(const enw::recsys::DlrmConfig& cfg,
                  std::span<const enw::data::ClickSample> pool);

}  // namespace perfbench
