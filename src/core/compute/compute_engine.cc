#include "core/compute/compute_engine.h"

#include "core/compute/sproc.h"
#include "hw/calibration.h"

namespace dpdpu::ce {

namespace {

/// DRR quantum of every ASIC admission queue (used under kDrr).
constexpr uint64_t kDrrQuantumBytes = 64 * 1024;

}  // namespace

ComputeEngine::ComputeEngine(hw::Server* server, KernelRegistry registry,
                             ComputeEngineOptions options)
    : server_(server),
      registry_(std::move(registry)),
      options_(options),
      placement_(server) {
  sproc_context_ = std::make_unique<SprocContext>(this);
  for (const auto& aspec : server->spec().dpu.accelerators) {
    AsicState state;
    state.queue = std::make_unique<AdmissionQueue>(
        options_.asic_admission, kDrrQuantumBytes);
    asic_state_.emplace(aspec.kind, std::move(state));
  }
}

bool ComputeEngine::TargetAvailable(const std::string& kernel,
                                    ExecTarget target) const {
  const DpKernel* k = registry_.Find(kernel);
  return k != nullptr && placement_.Available(*k, target);
}

const TargetStats& ComputeEngine::target_stats(ExecTarget target) const {
  static const TargetStats kEmpty;
  auto it = stats_.find(target);
  return it == stats_.end() ? kEmpty : it->second;
}

Result<WorkItemPtr> ComputeEngine::Invoke(const std::string& kernel,
                                          Buffer input, KernelParams params,
                                          InvokeOptions options) {
  const DpKernel* k = registry_.Find(kernel);
  if (k == nullptr) return Status::NotFound("compute: kernel " + kernel);

  ExecTarget target = options.target;
  if (target == ExecTarget::kAuto) {
    target = placement_.Choose(*k, input.size(), options_.policy);
  } else if (!placement_.Available(*k, target)) {
    // Specified execution on missing hardware: the Fig 6 None return.
    return Status::Unavailable(
        "compute: " + kernel + " cannot run on " +
        std::string(ExecTargetName(target)) + " on this DPU");
  }
  std::vector<Step> chain;
  chain.push_back({k, std::move(params)});
  return Launch(*k, target, std::move(chain), std::move(input),
                options.tenant);
}

Result<WorkItemPtr> ComputeEngine::InvokeFused(
    const std::vector<FusedStep>& steps, Buffer input,
    InvokeOptions options) {
  if (steps.empty()) {
    return Status::InvalidArgument("compute: empty fused chain");
  }
  // Resolve the chain. A synthetic kernel carrying the chain's combined
  // cost drives placement and timing.
  std::vector<Step> chain;
  DpKernel fused;
  fused.name = "fused";
  fused.cpu_cycles_per_byte = 0;
  for (const FusedStep& step : steps) {
    const DpKernel* k = registry_.Find(step.kernel);
    if (k == nullptr) {
      return Status::NotFound("compute: kernel " + step.kernel);
    }
    chain.push_back({k, step.params});
    fused.cpu_cycles_per_byte += k->cpu_cycles_per_byte;
    fused.fixed_cycles += k->fixed_cycles;
  }

  ExecTarget target = options.target;
  if (target == ExecTarget::kAuto) {
    // Fused chains are always placed by the model, whatever the policy.
    target = placement_.Choose(fused, input.size(),
                               PlacementPolicy::kModelBased);
  } else if (target == ExecTarget::kDpuAsic) {
    return Status::NotSupported(
        "compute: fused chains cannot run on fixed-function ASICs");
  } else if (!placement_.Available(fused, target)) {
    return Status::Unavailable("compute: fused target unavailable");
  }
  return Launch(fused, target, std::move(chain), std::move(input),
                options.tenant);
}

WorkItemPtr ComputeEngine::Launch(const DpKernel& cost, ExecTarget target,
                                  std::vector<Step> steps, Buffer input,
                                  uint32_t tenant) {
  auto item = std::make_shared<WorkItem>();
  item->set_submitted_at(server_->simulator()->now());
  TargetStats& stats = stats_[target];
  ++stats.jobs;
  stats.bytes += input.size();
  sim::SimTime service = placement_.ServiceTime(cost, input.size(), target);
  placement_.OnDispatch(target, service);

  auto job = std::make_unique<Job>(
      Job{std::move(steps), cost.cpu_cycles_per_byte, cost.fixed_cycles,
          std::move(input), item, target, service});
  if (target == ExecTarget::kDpuAsic) {
    RunOnAsic(std::move(job), tenant);
  } else {
    RunOnCpu(std::move(job));
  }
  return item;
}

void ComputeEngine::RunOnAsic(JobPtr job, uint32_t tenant) {
  hw::AcceleratorKind kind = *job->steps.front().kernel->asic_kind;
  AsicState& state = asic_state_[kind];
  if (state.in_flight < server_->accelerator(kind)->spec().max_concurrency) {
    StartAsicJob(kind, std::move(job));
  } else {
    // Size read before the move-capture below consumes the job
    // (argument evaluation order is unspecified).
    uint64_t bytes = job->input.size();
    state.queue->Push(tenant, bytes,
                      [this, kind, job = std::move(job)]() mutable {
                        StartAsicJob(kind, std::move(job));
                      });
  }
}

void ComputeEngine::StartAsicJob(hw::AcceleratorKind kind, JobPtr job) {
  AsicState& state = asic_state_[kind];
  ++state.in_flight;
  uint64_t bytes = job->input.size();
  server_->accelerator(kind)->SubmitJob(
      bytes, [this, kind, job = std::move(job)]() mutable {
        AsicState& st = asic_state_[kind];
        --st.in_flight;
        Finish(*job, RunKernelChain(*job));
        PumpAsicQueue(kind);
      });
}

void ComputeEngine::PumpAsicQueue(hw::AcceleratorKind kind) {
  AsicState& state = asic_state_[kind];
  hw::Accelerator* asic = server_->accelerator(kind);
  while (state.in_flight < asic->spec().max_concurrency &&
         !state.queue->empty()) {
    UniqueFunction dispatch;
    if (!state.queue->Pop(&dispatch)) break;
    dispatch();
  }
}

void ComputeEngine::RunOnCpu(JobPtr job) {
  // Read before the move-captures below consume the job.
  uint64_t bytes = job->input.size();
  if (job->target == ExecTarget::kDpuCpu) {
    // DPU cores run the job in place.
    sim::SimTime t = server_->dpu_cpu().WorkTime(
        bytes, job->cpu_cycles_per_byte, job->fixed_cycles);
    server_->dpu_cpu().ExecuteFor(t, [this, job = std::move(job)]() mutable {
      Finish(*job, RunKernelChain(*job));
    });
    return;
  }
  // The host CPU and the PCIe accelerator DMA the input in, run the job,
  // and DMA the real output size back.
  server_->pcie().Dma(bytes, [this, bytes, job = std::move(job)]() mutable {
    ExecTarget target = job->target;
    double cpb = job->cpu_cycles_per_byte;
    uint64_t fixed = job->fixed_cycles;
    UniqueFunction run = [this, job = std::move(job)]() mutable {
      Result<Buffer> result = RunKernelChain(*job);
      uint64_t out_bytes = result.ok() ? result->size() : 0;
      server_->pcie().Dma(out_bytes, [this, job = std::move(job),
                                      result = std::move(result)]() mutable {
        Finish(*job, std::move(result));
      });
    };
    if (target == ExecTarget::kHostCpu) {
      hw::CpuCluster& host = server_->host_cpu();
      host.ExecuteFor(host.WorkTime(bytes, cpb, fixed), std::move(run));
    } else {
      server_->pcie_accelerator()->SubmitJob(bytes, cpb, std::move(run));
    }
  });
}

Result<Buffer> ComputeEngine::RunKernelChain(const Job& job) {
  // The one place kernel fns run: each step consumes the previous
  // step's output.
  Result<Buffer> out = Status::Internal("compute: empty kernel chain");
  ByteSpan in = job.input.span();
  for (const Step& step : job.steps) {
    out = step.kernel->fn(in, step.params);
    if (!out.ok()) break;
    in = out->span();
  }
  return out;
}

void ComputeEngine::Finish(Job& job, Result<Buffer> result) {
  placement_.OnComplete(job.target, job.service);
  job.item->Complete(std::move(result), job.target,
                     server_->simulator()->now());
}

// ---------------------------------------------------------------------------
// Sprocs.
// ---------------------------------------------------------------------------

Status ComputeEngine::RegisterSproc(const std::string& name, SprocFn fn) {
  if (sprocs_.count(name) > 0) {
    return Status::AlreadyExists("sproc: " + name);
  }
  sprocs_[name] = std::move(fn);
  return Status::Ok();
}

Status ComputeEngine::InvokeSproc(const std::string& name) {
  auto it = sprocs_.find(name);
  if (it == sprocs_.end()) return Status::NotFound("sproc: " + name);
  ++sprocs_invoked_;
  // The sproc body runs on a DPU CPU core; charge the dispatch. The
  // context is engine-owned so async continuations may reference it.
  server_->dpu_cpu().Execute(
      hw::cal::kKernelDispatchCycles,
      [this, fn = &it->second] { (*fn)(*sproc_context_); });
  return Status::Ok();
}

ComputeEngine::~ComputeEngine() = default;

void ComputeEngine::SetEngineContext(ne::NetworkEngine* network,
                                     se::StorageEngine* storage) {
  sproc_context_->network_ = network;
  sproc_context_->storage_ = storage;
}

std::vector<std::string> ComputeEngine::Sprocs() const {
  std::vector<std::string> names;
  for (const auto& [name, fn] : sprocs_) names.push_back(name);
  return names;
}

}  // namespace dpdpu::ce
