#include "core/compute/sproc.h"

#include "core/compute/compute_engine.h"

namespace dpdpu::ce {

Result<WorkItemPtr> SprocContext::InvokeKernel(const std::string& kernel,
                                               Buffer input,
                                               KernelParams params,
                                               InvokeOptions options) {
  return engine_->Invoke(kernel, std::move(input), std::move(params),
                         options);
}

}  // namespace dpdpu::ce
