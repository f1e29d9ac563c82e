#include "baselines/sincos_baselines.hpp"

#include <utility>

#include "common/error.hpp"
#include "core/tidacc.hpp"
#include "kernels/sincos.hpp"

namespace tidacc::baselines {

namespace {

std::size_t cells_of(int n) {
  return static_cast<std::size_t>(n) * n * n;
}

sim::KernelProfile cuda_sincos_profile(int n, int iterations,
                                       sim::MathClass math) {
  const oacc::LoopCost c = kernels::sincos_cost(iterations, math);
  sim::KernelProfile prof;
  prof.elements = cells_of(n);
  prof.flops_per_element = c.flops_per_iter;
  prof.dev_bytes_per_element = c.dev_bytes_per_iter;
  prof.math_units_per_element = c.math_units_per_iter;
  prof.math = math;
  prof.tuned_geometry = true;
  return prof;
}

RunResult run_sincos_cuda(const SinCosParams& p, MemoryKind memory,
                          sim::MathClass math) {
  const std::size_t count = cells_of(p.n);
  const std::size_t bytes = count * sizeof(double);

  HostBuffer host(count, memory);
  if (cuem::functional()) {
    kernels::sincos_init_flat(host.data(), count);
  }
  void* dev = nullptr;
  check(cuemMalloc(&dev, bytes), "cuemMalloc");
  double* d = static_cast<double*>(dev);

  RunResult out;
  const Stopwatch sw;
  check(cuemMemcpy(dev, host.data(), bytes, cuemMemcpyHostToDevice), "H2D");
  for (int s = 0; s < p.steps; ++s) {
    check(cuem::launch(0, cuem::LaunchGeometry{.tuned = true},
                       cuda_sincos_profile(p.n, p.iterations, math),
                       "sincos-cuda",
                       [d, count, its = p.iterations] {
                         kernels::sincos_step_flat(d, count, its);
                       }),
          "launch");
  }
  check(cuemMemcpy(host.data(), dev, bytes, cuemMemcpyDeviceToHost), "D2H");
  check(cuemDeviceSynchronize(), "sync");
  out.elapsed = sw.elapsed();
  if (p.keep_result && cuem::functional()) {
    out.data.assign(host.data(), host.data() + count);
  }
  check(cuemFree(dev), "free");
  return out;
}

RunResult run_sincos_acc(const SinCosParams& p) {
  const std::size_t count = cells_of(p.n);
  oacc::set_mem_mode(oacc::MemMode::kPageable);

  HostBuffer host(count, MemoryKind::kPageable);
  if (cuem::functional()) {
    kernels::sincos_init_flat(host.data(), count);
  }
  double* h = host.data();

  RunResult out;
  const Stopwatch sw;
  {
    oacc::DataRegion region({oacc::DataClause{
        h, count * sizeof(double), oacc::ClauseKind::kCopy}});
    for (int s = 0; s < p.steps; ++s) {
      oacc::parallel_loop(
          oacc::Bounds::d1(0, static_cast<int>(count)),
          kernels::sincos_cost(p.iterations, sim::MathClass::kPgiDefault),
          oacc::LaunchOpts{.label = "sincos-acc"},
          std::make_tuple(oacc::present(h, count)),
          [its = p.iterations](double* data, int x, int, int) {
            data[x] = kernels::sincos_cell(data[x], its);
          });
    }
  }
  check(cuemDeviceSynchronize(), "sync");
  out.elapsed = sw.elapsed();
  if (p.keep_result && cuem::functional()) {
    out.data.assign(h, h + count);
  }
  return out;
}

}  // namespace

const char* to_string(SinCosVariant v) {
  switch (v) {
    case SinCosVariant::kCuda:
      return "CUDA";
    case SinCosVariant::kCudaPinned:
      return "CUDA pinned";
    case SinCosVariant::kCudaPinnedFastMath:
      return "CUDA pinned fastmath";
    case SinCosVariant::kAccPageable:
      return "OpenACC";
  }
  return "?";
}

RunResult run_sincos_baseline(SinCosVariant v, const SinCosParams& p) {
  TIDACC_CHECK_MSG(p.n >= 1 && p.steps >= 1 && p.iterations >= 1,
                   "invalid sincos parameters");
  switch (v) {
    case SinCosVariant::kCuda:
      return run_sincos_cuda(p, MemoryKind::kPageable,
                             sim::MathClass::kNvccPrecise);
    case SinCosVariant::kCudaPinned:
      return run_sincos_cuda(p, MemoryKind::kPinned,
                             sim::MathClass::kNvccPrecise);
    case SinCosVariant::kCudaPinnedFastMath:
      return run_sincos_cuda(p, MemoryKind::kPinned,
                             sim::MathClass::kNvccFastMath);
    case SinCosVariant::kAccPageable:
      return run_sincos_acc(p);
  }
  TIDACC_FAIL("unknown sincos variant");
}

RunResult run_sincos_tidacc(const SinCosTidaParams& p) {
  TIDACC_CHECK_MSG(p.n >= 1 && p.steps >= 1 && p.regions >= 1,
                   "invalid TiDA-acc sincos parameters");
  using core::AccOptions;
  using core::AccTileArray;
  using core::AccTileIterator;
  using core::compute;
  using core::DeviceView;
  using tida::Box;
  using tida::Index3;

  const int slab = (p.n + p.regions - 1) / p.regions;
  AccOptions opts;
  opts.max_slots = p.max_slots;
  opts.disable_caching = p.disable_caching;
  opts.slot_policy = p.policy;
  AccTileArray<double> arr(Box::cube(p.n), Index3{p.n, p.n, slab},
                           /*ghost=*/0, opts);
  if (cuem::functional()) {
    arr.fill([n = p.n](const Index3& q) {
      const std::uint64_t x =
          (static_cast<std::uint64_t>(q.k) * n + q.j) * n + q.i;
      return kernels::sincos_initial(x);
    });
  } else {
    arr.assume_host_initialized();
  }

  const oacc::LoopCost cost =
      kernels::sincos_cost(p.iterations, sim::MathClass::kPgiDefault);
  // The paper's figures traverse regions in id order.
  AccTileIterator<double> it(arr);
  it.request_region_major();

  // Whole-run tile→region access order (the traversal repeated per step):
  // the Belady oracle's script, and the prefetcher's lookahead target list
  // (it crosses step boundaries, so next-step uploads queue before a step
  // barrier). Only needed off the default demand-only path.
  std::vector<int> seq;
  if (p.prefetch > 0 ||
      p.policy == core::SlotPolicyKind::kBeladyOracle) {
    std::vector<int> order;
    for (it.reset(); it.isValid(); it.next()) {
      order.push_back(it.tile().tile.region.id);
    }
    seq.reserve(order.size() * static_cast<std::size_t>(p.steps));
    for (int s = 0; s < p.steps; ++s) {
      seq.insert(seq.end(), order.begin(), order.end());
    }
    if (p.policy == core::SlotPolicyKind::kBeladyOracle) {
      arr.set_future_accesses(seq);
    }
  }

  RunResult out;
  const Stopwatch sw;
  std::size_t pos = 0;  // index of the current tile in `seq`
  for (int s = 0; s < p.steps; ++s) {
    for (it.reset(/*gpu=*/true); it.isValid(); it.next()) {
      compute(it.tile(), cost,
              [its = p.iterations](DeviceView<double> v, int i, int j,
                                   int k) {
                v(i, j, k) = kernels::sincos_cell(v(i, j, k), its);
              });
      for (int a = 1; a <= p.prefetch; ++a) {
        const std::size_t target = pos + static_cast<std::size_t>(a);
        if (target < seq.size()) {
          arr.prefetch_to_device(seq[target]);
        }
      }
      ++pos;
    }
    if (p.step_sync) {
      check(cuemDeviceSynchronize(), "step sync");
    }
  }
  arr.release_all_to_host();
  check(cuemDeviceSynchronize(), "sync");
  out.elapsed = sw.elapsed();
  if (p.keep_result && cuem::functional()) {
    out.data.resize(cells_of(p.n));
    arr.copy_out(out.data.data());
  }
  return out;
}

}  // namespace tidacc::baselines
