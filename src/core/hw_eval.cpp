#include "core/hw_eval.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

#include "compile/passes.hpp"
#include "compile/plan_executor.hpp"
#include "hw/executor.hpp"

namespace mfdfp::core {

nn::EvalResult evaluate_qnets_compiled(
    std::span<const hw::QNetDesc> members, const tensor::Tensor& images,
    std::span<const int> labels, std::size_t batch_size) {
  if (members.empty()) {
    throw std::invalid_argument("evaluate_qnets_compiled: no members");
  }
  if (images.shape().rank() != 4) {
    throw std::invalid_argument(
        "evaluate_qnets_compiled: images must be (N, C, H, W)");
  }
  const std::size_t in_c = images.shape().dim(1);
  const std::size_t in_h = images.shape().dim(2);
  const std::size_t in_w = images.shape().dim(3);

  std::vector<std::shared_ptr<const compile::CompiledPlan>> plans;
  plans.reserve(members.size());
  for (const hw::QNetDesc& member : members) {
    plans.push_back(compile::compile_qnet(member, in_c, in_h, in_w));
  }

  hw::ExecScratch scratch;
  return nn::evaluate_logits(
      [&](const tensor::Tensor& batch) {
        return compile::run_ensemble_batch(plans, batch, scratch);
      },
      images, labels, batch_size);
}

}  // namespace mfdfp::core
