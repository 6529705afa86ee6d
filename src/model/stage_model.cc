#include "src/model/stage_model.h"

#include "src/model/nn_ops.h"
#include "src/tensor/matmul.h"

namespace ucp {

namespace {
constexpr char kWordEmbeddings[] = "language_model.embedding.word_embeddings.weight";
constexpr char kPositionEmbeddings[] = "language_model.embedding.position_embeddings.weight";
constexpr char kFinalNormWeight[] = "language_model.encoder.final_layernorm.weight";
constexpr char kFinalNormBias[] = "language_model.encoder.final_layernorm.bias";
constexpr char kOutputLayer[] = "language_model.output_layer.weight";
}  // namespace

StageModel::StageModel(const ModelConfig& config, const ParallelConfig& strategy,
                       const RankCoord& coord, InitMode init)
    : config_(config), strategy_(strategy), coord_(coord) {
  config.Validate();
  std::vector<InventoryEntry> inventory = BuildInventory(config);
  std::vector<InventoryEntry> mine = StageEntries(inventory, config, coord.pp, strategy.pp);

  for (const InventoryEntry& entry : mine) {
    ParamPtr p =
        MaterializeParam(entry.param, config.init_seed, strategy.tp, coord.tp, init);
    // The last-stage copy of a tied embedding trains but is excluded from checkpoints and
    // the gradient norm: the first-stage copy is canonical.
    p->tied_secondary = IsTiedSecondary(entry, config, strategy, coord);
    p->norm_counts = NormCounts(entry, config, strategy, coord);
    p->sp_independent = entry.sp_independent;
    store_.Add(std::move(p));
  }

  auto split = SplitLayersAcrossStages(config.num_layers, strategy.pp);
  auto [first, count] = split[static_cast<size_t>(coord.pp)];
  first_layer_ = first;
  for (int l = first; l < first + count; ++l) {
    blocks_.push_back(
        std::make_unique<TransformerBlock>(config, l, store_, strategy.tp, coord.tp));
  }

  if (is_first_stage()) {
    embedding_ = std::make_unique<VocabParallelEmbedding>(store_.Get(kWordEmbeddings),
                                                          coord.tp);
    if (config.has_position_embeddings()) {
      position_embeddings_ = store_.Get(kPositionEmbeddings);
    }
  }
  if (is_last_stage()) {
    final_norm_w_ = store_.Get(kFinalNormWeight);
    if (config.has_biases()) {
      final_norm_b_ = store_.Get(kFinalNormBias);
    }
    head_weight_ = config.tied_embeddings ? store_.Get(kWordEmbeddings)
                                          : store_.Get(kOutputLayer);
  }
}

Tensor StageModel::Embed(const Tensor& tokens, const LayerContext& ctx) {
  UCP_CHECK(is_first_stage());
  Tensor x = embedding_->Forward(tokens, ctx);
  if (position_embeddings_ != nullptr) {
    const float* pe = position_embeddings_->value.data();
    float* px = x.data();
    int64_t h = x.dim(1);
    for (int b = 0; b < ctx.batch; ++b) {
      for (int s = 0; s < ctx.seq_local; ++s) {
        int64_t row = static_cast<int64_t>(b) * ctx.seq_local + s;
        const float* pos_row = pe + static_cast<int64_t>(ctx.seq_offset + s) * h;
        for (int64_t c = 0; c < h; ++c) {
          px[row * h + c] += pos_row[c];
        }
      }
    }
  }
  return x;
}

void StageModel::EmbedBackward(const Tensor& dx, const LayerContext& ctx) {
  UCP_CHECK(is_first_stage());
  if (position_embeddings_ != nullptr) {
    float* pdg = position_embeddings_->grad.data();
    const float* pdx = dx.data();
    int64_t h = dx.dim(1);
    for (int b = 0; b < ctx.batch; ++b) {
      for (int s = 0; s < ctx.seq_local; ++s) {
        int64_t row = static_cast<int64_t>(b) * ctx.seq_local + s;
        float* grad_row = pdg + static_cast<int64_t>(ctx.seq_offset + s) * h;
        for (int64_t c = 0; c < h; ++c) {
          grad_row[c] += pdx[row * h + c];
        }
      }
    }
  }
  embedding_->Backward(dx);
}

Tensor StageModel::ForwardBlocks(const Tensor& x, const LayerContext& ctx) {
  Tensor h = x;
  for (auto& block : blocks_) {
    h = block->Forward(h, ctx);
  }
  return h;
}

Tensor StageModel::BackwardBlocks(const Tensor& dy, const LayerContext& ctx) {
  Tensor d = dy;
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    d = (*it)->Backward(d, ctx);
  }
  return d;
}

double StageModel::LossForward(const Tensor& x, const Tensor& labels, const LayerContext& ctx,
                               double inv_total_tokens) {
  UCP_CHECK(is_last_stage());
  // Final norm.
  if (config_.uses_rmsnorm()) {
    head_input_ = RmsNormForward(x, final_norm_w_->value, final_rms_cache_);
  } else {
    const Tensor* beta = final_norm_b_ != nullptr ? &final_norm_b_->value : nullptr;
    head_input_ = LayerNormForward(x, final_norm_w_->value, beta, final_ln_cache_);
  }

  // Vocab-parallel LM head.
  Tensor logits_local = MatmulNT(head_input_, head_weight_->value);  // [tokens, vocab_local]
  Tensor logits = ctx.tp.size() > 1 ? ctx.tp.AllGatherConcat(logits_local, 1)
                                    : std::move(logits_local);

  Tensor flat_labels = labels.Reshape({labels.numel()});
  Tensor dlogits = Tensor::Zeros(logits.shape());
  double loss_sum = CrossEntropySum(logits, flat_labels, dlogits);
  dlogits.Scale_(static_cast<float>(inv_total_tokens));

  int64_t vocab_local = head_weight_->value.dim(0);
  head_dlogits_local_ = ctx.tp.size() > 1
                            ? dlogits.Narrow(1, coord_.tp * vocab_local, vocab_local)
                            : std::move(dlogits);
  return loss_sum * inv_total_tokens;
}

Tensor StageModel::LossBackward(const LayerContext& ctx) {
  UCP_CHECK(is_last_stage());
  // logits_local = x_n W^T  =>  dW += dlogits^T x_n ; dx_n = dlogits W
  MatmulTN(head_dlogits_local_, head_input_, head_weight_->grad, /*accumulate=*/true);
  Tensor dxn = MatmulNN(head_dlogits_local_, head_weight_->value);
  if (ctx.tp.size() > 1) {
    ctx.tp.AllReduceSum(dxn);
  }
  if (config_.uses_rmsnorm()) {
    return RmsNormBackward(dxn, final_norm_w_->value, final_rms_cache_, final_norm_w_->grad);
  }
  Tensor* dbeta = final_norm_b_ != nullptr ? &final_norm_b_->grad : nullptr;
  return LayerNormBackward(dxn, final_norm_w_->value, final_ln_cache_, final_norm_w_->grad,
                           dbeta);
}

}  // namespace ucp
