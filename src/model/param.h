// Parameter metadata and the per-rank parameter registry.
//
// A LogicalParam describes a parameter of the *full* model: name, full shape, how TP shards
// it, and where PP places it. The inventory of LogicalParams (inventory.h) is the single
// source of truth shared by the runtime (which materializes local shards), the distributed
// checkpointer (which records shard metadata), and the tests that cross-check the UCP
// pattern library against the model.

#ifndef UCP_SRC_MODEL_PARAM_H_
#define UCP_SRC_MODEL_PARAM_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/parallel/partition_spec.h"
#include "src/tensor/tensor.h"

namespace ucp {

enum class InitKind : uint8_t { kGaussian = 0, kOnes = 1, kZeros = 2 };

struct LogicalParam {
  std::string name;
  Shape full_shape;
  PartitionSpec tp_spec;
  bool decay = true;         // weight decay applies (false for norms and biases)
  int layer_index = -1;      // transformer layer owning it, or -1 for embedding/head params
  bool on_first_stage = false;  // pipeline placement for layer_index == -1 params
  bool on_last_stage = false;   // (tied embeddings set both)
  InitKind init = InitKind::kGaussian;
  float init_stddev = 0.02f;
  uint64_t init_stream = 0;  // CounterRng stream id; unique per logical param

  int64_t full_numel() const { return ShapeNumel(full_shape); }
};

// A live parameter on one rank: the LogicalParam plus this rank's TP shard of the value and
// gradient. Under ZeRO-3, `value` and `grad` are views into the stage's flat buffers.
struct Param {
  LogicalParam info;
  Tensor value;
  Tensor grad;
  // True if this rank's copy contributes to the global gradient norm (one representative per
  // replicated copy; every fragment counts). Set by the trainer from the topology.
  bool norm_counts = true;
  // True for the last-stage copy of a tied embedding; it is excluded from checkpoint saving
  // (the first-stage copy is canonical) but still trains.
  bool tied_secondary = false;
  // Mirror of InventoryEntry::sp_independent: gradients are NOT synchronized across the
  // sequence-parallel group, so replicas drift (params_to_average).
  bool sp_independent = false;

  void AllocateGrad() {
    if (!grad.defined()) {
      grad = Tensor::Zeros(value.shape());
    }
  }
};

using ParamPtr = std::shared_ptr<Param>;

// The ordered set of parameters materialized on one rank. Order is canonical (inventory
// order) — ZeRO's flattened groups and the checkpoint layout both depend on it.
class ParamStore {
 public:
  ParamPtr Add(ParamPtr param);
  // Aborts if absent.
  ParamPtr Get(const std::string& name) const;
  ParamPtr FindOrNull(const std::string& name) const;
  const std::vector<ParamPtr>& params() const { return params_; }
  size_t size() const { return params_.size(); }

  void ZeroGrads();
  // Total local elements (shard sizes, not full sizes).
  int64_t TotalNumel() const;

 private:
  std::vector<ParamPtr> params_;
  std::map<std::string, size_t> index_;
};

// How a rank fills its parameter storage when it is built. kDraw runs the deterministic
// initialization (a fresh run). kForLoad leaves shard-shaped zeros, for a world that a
// checkpoint load overwrites next: every master, moment, step count and published value.
enum class InitMode : uint8_t { kDraw, kForLoad };

// Materializes this rank's shard of a logical parameter. kDraw: deterministic full-tensor
// init followed by ShardOf, so every TP degree sees consistent slices of the same logical
// values. kForLoad: zeros of the shard's shape, with no draw.
ParamPtr MaterializeParam(const LogicalParam& info, uint64_t model_seed, int tp_degree,
                          int tp_rank, InitMode mode = InitMode::kDraw);

// The deterministic full-value initialization (used by MaterializeParam and by tests that
// compare consolidated checkpoints against logical values).
Tensor InitFullValue(const LogicalParam& info, uint64_t model_seed);

}  // namespace ucp

#endif  // UCP_SRC_MODEL_PARAM_H_
