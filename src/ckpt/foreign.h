// A deliberately different, "foreign framework" checkpoint layout (the paper's
// cross-framework scenario: checkpoints produced by HuggingFace-accelerate / PyTorch
// Lightning with a DeepSpeed backend). Shape of the substitute:
//
//   <dir>/foreign_step<N>/state_rank0.bundle
//
// One consolidated file in DDP style: per-parameter value tensors under "model.<name>" and
// per-parameter Adam moments under "optim.exp_avg.<name>" / "optim.exp_avg_sq.<name>" — no
// flat buffers, no partitions. Only plain data parallelism (tp = pp = sp = 1, ZeRO stage 0)
// can produce it; the UCP converter ingests it into the same atom-checkpoint format as
// native checkpoints, after which any target strategy can resume from it.

#ifndef UCP_SRC_CKPT_FOREIGN_H_
#define UCP_SRC_CKPT_FOREIGN_H_

#include <string>

#include "src/runtime/trainer.h"

namespace ucp {

std::string ForeignTagForIteration(int64_t iteration);

// Collective across the run's ranks; rank 0 writes the consolidated file. Requires
// tp = pp = sp = 1 and ZeRO stage 0 (full replicated state on rank 0), and a trainer that
// holds state (RankTrainer::CheckHasState).
Status SaveForeignCheckpoint(const std::string& dir, RankTrainer& trainer,
                             int64_t iteration);

struct ForeignMeta {
  ModelConfig model;
  int64_t iteration = 0;
  int global_batch = 0;
  uint64_t data_seed = 0;
};
Result<ForeignMeta> ReadForeignMeta(const std::string& dir, const std::string& tag);

}  // namespace ucp

#endif  // UCP_SRC_CKPT_FOREIGN_H_
