// The portion of the model owned by one (pp stage, tp rank, sp rank): embedding on the
// first stage, a contiguous run of transformer blocks, and final-norm + vocab-parallel LM
// head + loss on the last stage. The trainer moves activations between stages over the
// simulated point-to-point channels.

#ifndef UCP_SRC_MODEL_STAGE_MODEL_H_
#define UCP_SRC_MODEL_STAGE_MODEL_H_

#include <memory>
#include <vector>

#include "src/model/block.h"
#include "src/model/inventory.h"

namespace ucp {

class StageModel {
 public:
  // Materializes this rank's parameter shards (deterministic init, or zeros for a model a
  // checkpoint load fills next; see InitMode) and builds the layers.
  StageModel(const ModelConfig& config, const ParallelConfig& strategy, const RankCoord& coord,
             InitMode init = InitMode::kDraw);

  ParamStore& store() { return store_; }
  const ParamStore& store() const { return store_; }
  const ModelConfig& config() const { return config_; }
  bool is_first_stage() const { return coord_.pp == 0; }
  bool is_last_stage() const { return coord_.pp == strategy_.pp - 1; }
  int first_layer() const { return first_layer_; }
  int num_local_layers() const { return static_cast<int>(blocks_.size()); }

  // First stage: tokens [batch, seq_local] -> activations [batch*seq_local, hidden].
  Tensor Embed(const Tensor& tokens, const LayerContext& ctx);
  // Gradient of Embed's output; accumulates embedding gradients.
  void EmbedBackward(const Tensor& dx, const LayerContext& ctx);

  Tensor ForwardBlocks(const Tensor& x, const LayerContext& ctx);
  Tensor BackwardBlocks(const Tensor& dy, const LayerContext& ctx);

  // Last stage: final norm + LM head + softmax cross-entropy. labels: [batch, seq_local].
  // Returns this rank's contribution to the mean loss (sum of local token losses *
  // inv_total_tokens). Caches what LossBackward needs.
  double LossForward(const Tensor& x, const Tensor& labels, const LayerContext& ctx,
                     double inv_total_tokens);
  // Returns the gradient flowing back into the last block's output.
  Tensor LossBackward(const LayerContext& ctx);

 private:
  ModelConfig config_;
  ParallelConfig strategy_;
  RankCoord coord_;
  int first_layer_ = 0;

  ParamStore store_;
  std::unique_ptr<VocabParallelEmbedding> embedding_;
  ParamPtr position_embeddings_;  // null unless first stage with learned positions
  std::vector<std::unique_ptr<TransformerBlock>> blocks_;

  // Last-stage head.
  ParamPtr final_norm_w_;
  ParamPtr final_norm_b_;
  ParamPtr head_weight_;  // output_layer or (tied) word-embedding copy
  LayerNormCache final_ln_cache_;
  RmsNormCache final_rms_cache_;
  Tensor head_input_;          // normed activations [tokens, hidden]
  Tensor head_dlogits_local_;  // scaled CE gradient, this rank's vocab shard
};

}  // namespace ucp

#endif  // UCP_SRC_MODEL_STAGE_MODEL_H_
