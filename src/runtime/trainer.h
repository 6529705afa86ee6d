// The SPMD training engine: one RankTrainer per simulated rank, driving the stage model
// through micro-batched forward/backward, the gradient-sync chain (SP -> embedding tie ->
// ZeRO/DP), and the Adam step. A TrainingRun helper owns the World/Topology and runs all
// ranks on threads.

#ifndef UCP_SRC_RUNTIME_TRAINER_H_
#define UCP_SRC_RUNTIME_TRAINER_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/comm/rank_fault.h"
#include "src/data/dataset.h"
#include "src/model/stage_model.h"
#include "src/optim/adam.h"
#include "src/parallel/topology.h"
#include "src/parallel/zero.h"

namespace ucp {

struct TrainerConfig {
  ModelConfig model;
  ParallelConfig strategy;
  int global_batch = 8;  // samples per iteration across all DP replicas
  LrSchedule lr;
  AdamConfig adam;
  DType compute_dtype = DType::kF32;  // != f32 simulates mixed-precision training
  uint64_t data_seed = 42;

  // Aborts on divisibility violations (batch vs dp*micro, seq vs sp, heads/vocab/ffn vs tp).
  void Validate() const;
};

class RankTrainer {
 public:
  // `init` kForLoad builds a trainer whose state a checkpoint load installs next: its
  // parameters are zeros, and it may not train or save until LoadState succeeded.
  RankTrainer(Topology* topology, int rank, const TrainerConfig& config,
              InitMode init = InitMode::kDraw);

  // Runs one training iteration (1-based). Every rank returns the same global mean LM loss.
  // Aborts on a trainer built for a load that has not loaded.
  double TrainIteration(int64_t iteration);

  // Installs restored optimizer state (ZeroOptimizer::LoadState, which republishes the
  // parameter values). The checkpoint loaders go through here; a success ends the wait of
  // a trainer built for a load.
  Status LoadState(const Tensor& master, const Tensor& exp_avg, const Tensor& exp_avg_sq,
                   int64_t steps_taken);
  // OkStatus when this trainer holds training state; kFailedPrecondition for a trainer
  // built for a load that has not loaded. Every save entry point checks it first.
  Status CheckHasState() const;

  StageModel& model() { return *model_; }
  const StageModel& model() const { return *model_; }
  ZeroOptimizer& optimizer() { return *optimizer_; }
  const ZeroOptimizer& optimizer() const { return *optimizer_; }
  int rank() const { return rank_; }
  const RankCoord& coord() const { return coord_; }
  const TrainerConfig& config() const { return config_; }
  Topology* topology() const { return topology_; }
  const Topology::RankGroups& groups() const { return groups_; }

 private:
  void SyncGradients();

  Topology* topology_;
  int rank_;
  RankCoord coord_;
  TrainerConfig config_;
  Topology::RankGroups groups_;
  SyntheticTextDataset dataset_;
  std::unique_ptr<StageModel> model_;
  std::unique_ptr<ZeroOptimizer> optimizer_;

  int micro_batch_size_ = 0;  // samples per micro-batch on this DP replica
  int64_t hidden_activation_numel_ = 0;
  bool awaiting_load_ = false;  // built InitMode::kForLoad and no LoadState succeeded yet
};

// What a fallible training call observed. When a rank fails (injected kill or hang),
// surviving ranks unwind — on the dead rank's mark, or via the watchdog's world abort —
// instead of deadlocking, and the caller gets the root cause plus how far training
// verifiably got.
struct TrainOutcome {
  bool failed = false;
  RankFailure failure;  // root cause; prefers the victim's own report over the survivors'
  // True when a watchdog expiry surfaced the failure (a hang); false when the survivors
  // unwound on the dead rank's mark.
  bool watchdog_detected = false;
  int64_t completed_iteration = 0;  // last iteration completed on EVERY rank; first-1 if none
  std::vector<double> losses;       // rank-0 losses for [first_iteration, completed_iteration]
};

// Convenience driver: builds a World/Topology for `config.strategy`, constructs one
// RankTrainer per rank, and runs `body(trainer)` on each rank's thread. Checkpoint save /
// resume logic composes through `body`.
class TrainingRun {
 public:
  // `init` applies to every rank: kForLoad builds a world that a checkpoint load fills
  // next (see RankTrainer).
  explicit TrainingRun(const TrainerConfig& config, WorldOptions world_options = {},
                       InitMode init = InitMode::kDraw);

  // Runs body on all ranks (blocking). May be called repeatedly; trainers persist across
  // calls so train -> save -> train-more sequences keep optimizer state.
  void Run(const std::function<void(RankTrainer&)>& body);

  // Trains iterations [first_iteration, last_iteration] inclusive and returns the loss per
  // iteration (identical across ranks; taken from rank 0).
  std::vector<double> Train(int64_t first_iteration, int64_t last_iteration);

  // Same, invoking `after_iteration(trainer, iteration)` on every rank's thread after each
  // completed step — the integration point for periodic checkpointing. An async engine's
  // SaveAsync here returns after the snapshot, so its flush overlaps the next iterations.
  std::vector<double> Train(
      int64_t first_iteration, int64_t last_iteration,
      const std::function<void(RankTrainer&, int64_t)>& after_iteration);

  // Fault-tolerant variant: rank failures (injected or watchdog-detected) are caught at each
  // rank thread's top level instead of aborting the process. A rank killed by an injected
  // fault is marked dead in the World as its thread exits, so peers unwind at their first
  // wait that needs it; a hung rank is left to the watchdog. On failure the World is left
  // poisoned — the caller is expected to tear this run down and rebuild, which is what the
  // recovery Supervisor does. An iteration counts as completed only once every rank
  // finished it; a kill inside `after_iteration` does not un-complete the step it follows.
  TrainOutcome TryTrain(
      int64_t first_iteration, int64_t last_iteration,
      const std::function<void(RankTrainer&, int64_t)>& after_iteration = nullptr);

  Topology& topology() { return *topology_; }
  World& world() { return *world_; }
  RankTrainer& trainer(int rank) { return *trainers_[static_cast<size_t>(rank)]; }
  int world_size() const { return world_->size(); }

 private:
  TrainerConfig config_;
  std::unique_ptr<World> world_;
  std::unique_ptr<Topology> topology_;
  std::vector<std::unique_ptr<RankTrainer>> trainers_;
};

}  // namespace ucp

#endif  // UCP_SRC_RUNTIME_TRAINER_H_
