#include "src/model/param.h"

namespace ucp {

ParamPtr ParamStore::Add(ParamPtr param) {
  UCP_CHECK(param != nullptr);
  UCP_CHECK(index_.find(param->info.name) == index_.end())
      << "duplicate parameter " << param->info.name;
  index_[param->info.name] = params_.size();
  params_.push_back(param);
  return params_.back();
}

ParamPtr ParamStore::Get(const std::string& name) const {
  ParamPtr p = FindOrNull(name);
  UCP_CHECK(p != nullptr) << "unknown parameter " << name;
  return p;
}

ParamPtr ParamStore::FindOrNull(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : params_[it->second];
}

void ParamStore::ZeroGrads() {
  for (const ParamPtr& p : params_) {
    if (p->grad.defined()) {
      p->grad.Zero_();
    }
  }
}

int64_t ParamStore::TotalNumel() const {
  int64_t total = 0;
  for (const ParamPtr& p : params_) {
    total += p->value.numel();
  }
  return total;
}

Tensor InitFullValue(const LogicalParam& info, uint64_t model_seed) {
  switch (info.init) {
    case InitKind::kOnes:
      return Tensor::Full(info.full_shape, 1.0f);
    case InitKind::kZeros:
      return Tensor::Zeros(info.full_shape);
    case InitKind::kGaussian: {
      CounterRng rng(model_seed, info.init_stream);
      return Tensor::Gaussian(info.full_shape, rng, 0, info.init_stddev);
    }
  }
  UCP_CHECK(false) << "unreachable";
  return Tensor();
}

ParamPtr MaterializeParam(const LogicalParam& info, uint64_t model_seed, int tp_degree,
                          int tp_rank, InitMode mode) {
  auto param = std::make_shared<Param>();
  param->info = info;
  if (mode == InitMode::kForLoad) {
    param->value = Tensor::Zeros(ShardShape(info.tp_spec, info.full_shape, tp_degree));
  } else {
    Tensor full = InitFullValue(info, model_seed);
    param->value = ShardOf(info.tp_spec, full, tp_degree, tp_rank);
  }
  param->AllocateGrad();
  return param;
}

}  // namespace ucp
