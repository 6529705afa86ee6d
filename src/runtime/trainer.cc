#include "src/runtime/trainer.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/obs/trace.h"

namespace ucp {

void TrainerConfig::Validate() const {
  model.Validate();
  const ParallelConfig& s = strategy;
  UCP_CHECK_EQ(global_batch % s.dp, 0) << "global batch must divide across DP replicas";
  int per_dp = global_batch / s.dp;
  UCP_CHECK_EQ(per_dp % s.micro_batches, 0) << "DP batch must divide into micro batches";
  UCP_CHECK_EQ(model.max_seq_len % s.sp, 0) << "sequence must divide across SP ranks";
  UCP_CHECK_EQ(model.vocab_size % s.tp, 0) << "vocab must divide across TP ranks";
  UCP_CHECK_EQ(model.num_heads % s.tp, 0) << "heads must divide across TP ranks";
  UCP_CHECK_EQ(model.num_kv_heads % s.tp, 0) << "KV heads must divide across TP ranks";
  if (model.is_moe() && model.moe_expert_sharding) {
    UCP_CHECK_EQ(model.num_experts % s.tp, 0) << "experts must divide across TP ranks";
  } else {
    UCP_CHECK_EQ(model.ffn_hidden % s.tp, 0) << "FFN width must divide across TP ranks";
  }
  UCP_CHECK_GE(model.num_layers, s.pp) << "need at least one layer per pipeline stage";
  UCP_CHECK_EQ(model.hidden % s.tp, 0) << "hidden must divide across TP ranks";
}

RankTrainer::RankTrainer(Topology* topology, int rank, const TrainerConfig& config,
                         InitMode init)
    : topology_(topology),
      rank_(rank),
      coord_(topology->CoordOf(rank)),
      config_(config),
      groups_(topology->GroupsFor(rank)),
      dataset_(config.model.vocab_size, config.model.max_seq_len, config.data_seed),
      awaiting_load_(init == InitMode::kForLoad) {
  config_.Validate();
  model_ = std::make_unique<StageModel>(config.model, config.strategy, coord_, init);
  optimizer_ = std::make_unique<ZeroOptimizer>(&model_->store(), config.strategy.zero_stage,
                                               groups_.dp, groups_.world,
                                               config.compute_dtype);
  micro_batch_size_ = config.global_batch / config.strategy.dp / config.strategy.micro_batches;
  hidden_activation_numel_ = static_cast<int64_t>(micro_batch_size_) *
                             (config.model.max_seq_len / config.strategy.sp) *
                             config.model.hidden;
}

Status RankTrainer::LoadState(const Tensor& master, const Tensor& exp_avg,
                              const Tensor& exp_avg_sq, int64_t steps_taken) {
  UCP_RETURN_IF_ERROR(optimizer_->LoadState(master, exp_avg, exp_avg_sq, steps_taken));
  awaiting_load_ = false;
  return OkStatus();
}

Status RankTrainer::CheckHasState() const {
  if (awaiting_load_) {
    return FailedPreconditionError("rank " + std::to_string(rank_) +
                                   " was built for a checkpoint load and has not loaded one");
  }
  return OkStatus();
}

double RankTrainer::TrainIteration(int64_t iteration) {
  UCP_CHECK_GE(iteration, 1);
  UCP_CHECK(!awaiting_load_) << "rank " << rank_
                             << " was built for a checkpoint load and has not loaded one";
  // Keep the fault machinery's view of "where is this rank" current: watchdog reports and
  // injected kills are both attributed to this (rank, iteration).
  SetFaultContext(rank_, iteration);
  UCP_TRACE_SPAN_ARGS("train.iteration", ::ucp::obs::TraceArgs().I("iteration", iteration));
  CheckRankFault(FaultSite::kIterationStart);
  const ParallelConfig& s = config_.strategy;
  const int seq_total = config_.model.max_seq_len;
  const int seq_local = seq_total / s.sp;
  const double inv_total_tokens =
      1.0 / (static_cast<double>(config_.global_batch) * seq_total);

  LayerContext ctx;
  ctx.tp = groups_.tp;
  ctx.sp = groups_.sp;
  ctx.batch = micro_batch_size_;
  ctx.seq_total = seq_total;
  ctx.seq_local = seq_local;
  ctx.seq_offset = coord_.sp * seq_local;

  model_->store().ZeroGrads();
  double loss_contrib = 0.0;

  const int per_dp = config_.global_batch / s.dp;
  World* world = topology_->world();

  for (int m = 0; m < s.micro_batches; ++m) {
    // Samples of this (dp replica, micro-batch): deterministic function of the iteration.
    int first_sample = coord_.dp * per_dp + m * micro_batch_size_;
    Batch batch = MakeBatch(dataset_, static_cast<uint64_t>(iteration - 1),
                            config_.global_batch, first_sample, micro_batch_size_);
    // SP slice of the sequence.
    Tensor tokens = s.sp > 1 ? batch.tokens.Narrow(1, ctx.seq_offset, seq_local)
                             : batch.tokens;
    Tensor labels = s.sp > 1 ? batch.labels.Narrow(1, ctx.seq_offset, seq_local)
                             : batch.labels;

    // ---- Forward through this stage ----
    Tensor x;
    if (model_->is_first_stage()) {
      x = model_->Embed(tokens, ctx);
    } else {
      x = world->Recv(topology_->PrevStageRank(rank_), rank_)
              .Reshape({ctx.local_tokens(), config_.model.hidden});
    }
    Tensor h = model_->ForwardBlocks(x, ctx);
    if (model_->is_last_stage()) {
      loss_contrib += model_->LossForward(h, labels, ctx, inv_total_tokens);
    } else {
      world->Send(rank_, topology_->NextStageRank(rank_), h);
    }

    // ---- Backward through this stage ----
    Tensor dy;
    if (model_->is_last_stage()) {
      dy = model_->LossBackward(ctx);
    } else {
      dy = world->Recv(topology_->NextStageRank(rank_), rank_)
               .Reshape({ctx.local_tokens(), config_.model.hidden});
    }
    Tensor dx = model_->BackwardBlocks(dy, ctx);
    if (model_->is_first_stage()) {
      model_->EmbedBackward(dx, ctx);
    } else {
      world->Send(rank_, topology_->PrevStageRank(rank_), dx);
    }
  }

  SyncGradients();
  float lr = config_.lr.LrAt(iteration);
  optimizer_->Step(lr, config_.adam);

  // ---- Loss aggregation: exact global mean, identical on every rank ----
  double loss = loss_contrib;
  if (model_->is_last_stage()) {
    if (s.sp > 1) {
      loss = groups_.sp.AllReduceSumScalar(loss);
    }
    if (s.dp > 1) {
      loss = groups_.dp.AllReduceSumScalar(loss);
    }
  } else {
    // Participate with zero so the sums above are confined to last-stage ranks' groups —
    // non-last stages have their own sp/dp groups; run the same collectives for symmetry.
    if (s.sp > 1) {
      loss = groups_.sp.AllReduceSumScalar(loss);
    }
    if (s.dp > 1) {
      loss = groups_.dp.AllReduceSumScalar(loss);
    }
  }
  if (s.pp > 1) {
    // Propagate from the last stage to everyone (non-last ranks hold 0 here).
    loss = groups_.pp.AllReduceSumScalar(model_->is_last_stage() ? loss : 0.0);
  }
  return loss;
}

void RankTrainer::SyncGradients() {
  const ParallelConfig& s = config_.strategy;
  // 1. Sequence-parallel sum for every parameter except the deliberately independent norms
  //    (those become params_to_average at checkpoint-consolidation time).
  if (s.sp > 1) {
    for (const ParamPtr& p : model_->store().params()) {
      if (!p->sp_independent) {
        groups_.sp.AllReduceSum(p->grad);
      }
    }
  }
  // 2. Tied-embedding gradient exchange between the first and last pipeline stages.
  if (config_.model.tied_embeddings && s.pp > 1 && groups_.embedding_tie.valid()) {
    ParamPtr emb =
        model_->store().FindOrNull("language_model.embedding.word_embeddings.weight");
    if (emb != nullptr) {
      groups_.embedding_tie.AllReduceSum(emb->grad);
    }
  }
  // 3. DP/ZeRO sync happens inside ZeroOptimizer::Step.
}

TrainingRun::TrainingRun(const TrainerConfig& config, WorldOptions world_options,
                         InitMode init)
    : config_(config) {
  config_.Validate();
  world_ = std::make_unique<World>(config.strategy.world_size(), world_options);
  topology_ = std::make_unique<Topology>(world_.get(), config.strategy);
  trainers_.resize(static_cast<size_t>(world_->size()));
  // Construction materializes parameters; do it in parallel — rank construction performs no
  // collectives, so plain threads suffice.
  RunSpmd(world_->size(), [&](int rank) {
    trainers_[static_cast<size_t>(rank)] =
        std::make_unique<RankTrainer>(topology_.get(), rank, config_, init);
  });
}

void TrainingRun::Run(const std::function<void(RankTrainer&)>& body) {
  RunSpmd(world_->size(), [&](int rank) { body(*trainers_[static_cast<size_t>(rank)]); });
}

std::vector<double> TrainingRun::Train(int64_t first_iteration, int64_t last_iteration) {
  return Train(first_iteration, last_iteration, nullptr);
}

std::vector<double> TrainingRun::Train(
    int64_t first_iteration, int64_t last_iteration,
    const std::function<void(RankTrainer&, int64_t)>& after_iteration) {
  std::vector<double> losses(static_cast<size_t>(last_iteration - first_iteration + 1), 0.0);
  Run([&](RankTrainer& trainer) {
    for (int64_t it = first_iteration; it <= last_iteration; ++it) {
      double loss = trainer.TrainIteration(it);
      if (trainer.rank() == 0) {
        losses[static_cast<size_t>(it - first_iteration)] = loss;
      }
      if (after_iteration) {
        after_iteration(trainer, it);
      }
    }
  });
  return losses;
}

TrainOutcome TrainingRun::TryTrain(
    int64_t first_iteration, int64_t last_iteration,
    const std::function<void(RankTrainer&, int64_t)>& after_iteration) {
  const int n = world_->size();
  std::vector<double> rank0_losses(
      static_cast<size_t>(last_iteration - first_iteration + 1), 0.0);
  std::vector<int64_t> completed(static_cast<size_t>(n), first_iteration - 1);
  std::vector<std::optional<RankFailure>> failures =
      RunSpmdFallible(n, [&](int rank) {
        RankTrainer& trainer = *trainers_[static_cast<size_t>(rank)];
        try {
          for (int64_t it = first_iteration; it <= last_iteration; ++it) {
            double loss = trainer.TrainIteration(it);
            if (rank == 0) {
              rank0_losses[static_cast<size_t>(it - first_iteration)] = loss;
            }
            // The step itself is done: a kill inside the checkpoint hook below must not
            // discard the iteration it follows.
            completed[static_cast<size_t>(rank)] = it;
            if (after_iteration) {
              after_iteration(trainer, it);
            }
          }
        } catch (const RankFailureError& e) {
          // A killed rank's exit is visible, as a launcher sees a process exit: peers
          // blocked on it unwind at once. A hung rank stays silent for the watchdog.
          if (e.failure().kind == RankFailure::Kind::kInjected) {
            world_->MarkDead(rank, e.failure());
          }
          throw;
        }
      });

  TrainOutcome outcome;
  outcome.completed_iteration = last_iteration;
  for (int64_t c : completed) {
    outcome.completed_iteration = std::min(outcome.completed_iteration, c);
  }
  outcome.losses.assign(
      rank0_losses.begin(),
      rank0_losses.begin() + (outcome.completed_iteration - first_iteration + 1));
  for (const std::optional<RankFailure>& f : failures) {
    if (!f.has_value()) {
      continue;
    }
    // Survivors report the victim's failure (death mark) or the canonical watchdog
    // failure; the victim's own report (kill or hang) is the more precise root cause.
    if (!outcome.failed || (outcome.failure.kind == RankFailure::Kind::kWatchdog &&
                            f->kind != RankFailure::Kind::kWatchdog)) {
      outcome.failure = *f;
    }
    outcome.failed = true;
    outcome.watchdog_detected |= f->kind == RankFailure::Kind::kWatchdog;
  }
  // Detection is complete only once the last blocked survivor declared the failure: report
  // the longest wait even when the root cause is the victim's own instant report.
  for (const std::optional<RankFailure>& f : failures) {
    if (f.has_value()) {
      outcome.failure.blocked_seconds =
          std::max(outcome.failure.blocked_seconds, f->blocked_seconds);
    }
  }
  return outcome;
}

}  // namespace ucp
