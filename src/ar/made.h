#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ar/model_schema.h"
#include "autodiff/tensor.h"
#include "common/random.h"
#include "common/result.h"

namespace sam {

/// \brief MADE (Masked Autoencoder for Distribution Estimation) over the
/// model schema's one-hot column layout.
///
/// The network maps a (partially filled) one-hot tuple encoding to per-column
/// logits; binary masks on every weight matrix enforce the autoregressive
/// property, so column i's logits depend only on columns < i (Germain et al.,
/// cited by the paper as a SAM instantiation).
///
/// Three forward paths are provided:
///  * a tape-recorded incremental path (`MaskedWeights` + `InitTape`/
///    `TapeLogits`/`TapeObserve`) used by the DPS trainer: each sampled
///    column adds its own first-layer and direct-connection contributions,
///    so the tape never holds a full one-hot input. The trainer runs one
///    such tape per batch shard, each over its own leaves
///    (`WrapMaskedWeights`), and `ReduceGradients` sums them into the
///    parameters;
///  * a tape-recorded dense reference path (`Hidden` + `ColumnLogits`) over a
///    full B x total_domain input, which tests compare the incremental path
///    against (equal forward values bit for bit), and
///  * an allocation-light sampler path (`InitState`/`CondProbs`/`Observe`)
///    that exploits one-hot inputs (first layer and direct connections become
///    row gathers) for progressive sampling, estimation and generation.
/// The two tape paths share one hidden stack and output layer.
class MadeModel {
 public:
  struct Options {
    std::vector<size_t> hidden_sizes = {64, 64};
    /// ResMADE-style residual connections between equal-width hidden layers
    /// (used by NeuroCard, which the paper builds on). Helps deeper stacks
    /// converge under DPS.
    bool residual = false;
    bool direct_connections = true;
    double init_scale = 1.0;  ///< Multiplier on 1/sqrt(fan_in) init.
    uint64_t seed = 12345;
  };

  MadeModel(const ModelSchema* schema, Options options);

  const ModelSchema& schema() const { return *schema_; }
  const Options& options() const { return options_; }

  /// Trainable parameters (for the optimiser).
  std::vector<ad::Tensor> params() const;

  /// Number of scalar parameters (reported by the harnesses).
  size_t num_parameters() const;

  // --- Tape (training) paths -------------------------------------------------

  /// Parameter values as the network uses them: every weight matrix times
  /// its autoregressive mask, and the biases. The trainer builds them once
  /// per step and its shards only read them; the sampler path keeps the
  /// values of the last `SyncSamplerWeights`.
  struct MaskedValues {
    std::vector<Matrix> w;  ///< Per layer (first is input layer).
    std::vector<Matrix> b;  ///< Per hidden layer.
    Matrix w_out;
    Matrix b_out;
    Matrix w_direct;        ///< Empty when direct connections off.
  };
  MaskedValues BuildMaskedValues() const;

  /// Trainable leaves over one copy of the masked values. A tape built on
  /// them accumulates gradients with respect to the masked weights into
  /// these leaves only, never into the model's parameters, so shards with
  /// leaves of their own can run Backward concurrently.
  struct MaskedWeights {
    std::vector<ad::Tensor> w;   ///< Per layer (first is input layer).
    std::vector<ad::Tensor> b;   ///< Per hidden layer.
    ad::Tensor w_out;
    ad::Tensor b_out;
    ad::Tensor w_direct;         ///< Undefined when direct connections off.
  };
  static MaskedWeights WrapMaskedWeights(MaskedValues values);

  /// `WrapMaskedWeights(BuildMaskedValues())`: leaves over the current
  /// parameters for a single tape.
  MaskedWeights BuildMaskedWeights() const;

  /// Sets every parameter's gradient to the sum of the matching leaf
  /// gradients of `tapes`, added in the order of `tapes`; each weight's mask
  /// is applied once to its sum. Leaves no tape reached count as zero.
  void ReduceGradients(const std::vector<MaskedWeights>& tapes);

  /// Per-batch incremental state of the trainer's forward, the tape-recorded
  /// twin of `SamplerState`. Both accumulators start from zeros and each
  /// observed column adds one product, so every value sums the same weights
  /// in the same column order as the zero-skip matmul of the dense path.
  struct TapeState {
    ad::Tensor pre1;  ///< B x H1 first-layer pre-activation (bias excluded).
    /// Per column: B x domain(col) direct-connection logits of the columns
    /// observed so far (empty when direct connections are off).
    std::vector<ad::Tensor> direct;
  };

  TapeState InitTape(size_t batch) const;

  /// Logits of model column `col` (B x domain(col)) given the columns
  /// observed so far in `state`.
  ad::Tensor TapeLogits(const MaskedWeights& mw, const TapeState& state,
                        size_t col) const;

  /// Feeds column `col`'s one-hot `sample` (B x domain(col)) into the state:
  /// one product with the column's rows of the first layer, one with its rows
  /// of the direct connections into every later column. The last column
  /// feeds nothing.
  void TapeObserve(const MaskedWeights& mw, TapeState* state, size_t col,
                   const ad::Tensor& sample) const;

  /// Dense reference: last hidden activations for `input` (B x total_domain).
  ad::Tensor Hidden(const MaskedWeights& mw, const ad::Tensor& input) const;

  /// Dense reference: logits of model column `col` (B x domain(col)) given
  /// the last hidden layer and the (same) input used for direct connections.
  ad::Tensor ColumnLogits(const MaskedWeights& mw, const ad::Tensor& hidden,
                          const ad::Tensor& input, size_t col) const;

  // --- Sampler (no-grad) path ------------------------------------------------

  /// Refreshes the sampler path's copy of the masked weights and biases.
  /// Call after training (the trainer does this automatically).
  void SyncSamplerWeights();

  /// Per-batch incremental state: first-layer pre-activations and direct
  /// logits accumulate as columns are observed.
  struct SamplerState {
    Matrix pre1;           ///< B x H1 (bias included).
    Matrix direct;         ///< B x total_domain (empty if disabled).
    size_t batch = 0;
    /// Forward-pass scratch owned by the state so CondProbs allocates nothing
    /// per call (at generation batch sizes a fresh Matrix is an mmap + page
    /// faults + munmap every forward). `mutable` because the scratch is not
    /// part of the state's logical value; states are per-batch, so the
    /// sampler's batch-parallelism never shares one across threads.
    mutable Matrix h;       ///< Hidden activations in flight.
    mutable Matrix h_next;  ///< Next hidden layer (swapped with `h`).
    mutable Matrix probs;   ///< CondProbs result (B x domain(col)).
  };

  SamplerState InitState(size_t batch) const;

  /// Re-initialises `state` for a fresh batch of `batch` rows, reusing its
  /// allocations: pre1 returns to the first-layer bias, the direct
  /// accumulator to zero. The batched estimator re-enters with the same
  /// per-block state every call — fresh InitState matrices would be an
  /// mmap + page faults + munmap per round at serving batch sizes.
  void ResetState(SamplerState* state, size_t batch) const;

  /// Conditional distribution P(col | observed prefix) for every batch row:
  /// B x domain(col), rows sum to 1. The returned reference points into
  /// `state` scratch — it is valid until the next CondProbs call on the same
  /// state (copy it to keep it longer).
  const Matrix& CondProbs(const SamplerState& state, size_t col) const;

  /// Feeds the sampled codes of `col` into the state accumulators.
  void Observe(SamplerState* state, size_t col,
               const std::vector<int32_t>& codes) const;

  // --- Persistence -----------------------------------------------------------

  /// Saves/loads raw parameters (binary, versioned header).
  Status Save(const std::string& path) const;
  Status Load(const std::string& path);

 private:
  void BuildMasks();
  void InitParams();

  /// Hidden stack above the first layer's pre-activation `pre1` (B x H1,
  /// bias excluded); shared by both tape paths.
  ad::Tensor HiddenStack(const MaskedWeights& mw, const ad::Tensor& pre1) const;

  /// Output-layer logits of column `col` without direct connections.
  ad::Tensor OutputLogits(const MaskedWeights& mw, const ad::Tensor& hidden,
                          size_t col) const;

  const ModelSchema* schema_;
  Options options_;

  /// Per-unit autoregressive degree of each hidden layer.
  std::vector<std::vector<size_t>> hidden_degrees_;

  // Parameters. weights_[0] is input->hidden1; weights_[k] hidden_k->k+1.
  std::vector<ad::Tensor> weights_;
  std::vector<ad::Tensor> biases_;
  ad::Tensor w_out_;
  ad::Tensor b_out_;
  ad::Tensor w_direct_;

  // Constant binary masks matching weights_ / w_out_ / w_direct_.
  std::vector<Matrix> masks_;
  Matrix mask_out_;
  Matrix mask_direct_;

  // Sampler cache: the masked values as of the last SyncSamplerWeights.
  MaskedValues sampler_;
  bool sampler_synced_ = false;
};

}  // namespace sam
