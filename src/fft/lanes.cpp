#include "fft/lanes.hpp"

#include <atomic>
#include <vector>

#include "fft/kernels.hpp"

#if defined(LIGHTRIDGE_SIMD)
#define LR_SIMD_LOOP _Pragma("omp simd")
#else
#define LR_SIMD_LOOP
#endif

// The AVX2 build needs GCC/Clang function multiversioning on x86-64.
#if defined(LIGHTRIDGE_SIMD) && defined(__x86_64__) &&                      \
    (defined(__GNUC__) || defined(__clang__))
#define LR_LANE_HAVE_AVX2 1
#endif

namespace lightridge::lanes {

namespace {

/** A zero row for the padding rows of a hop's input. */
const Real *
zeroLanes()
{
    static const Real zeros[2 * kLaneBlock] = {};
    return zeros;
}

} // namespace

Real *
blockScratch(std::size_t n)
{
    static thread_local std::vector<Real> buffer;
    if (buffer.size() < 4 * n * kLaneBlock)
        buffer.resize(4 * n * kLaneBlock);
    return buffer.data();
}

namespace base {
#define LR_LANE_FN inline
#define LR_LANE_ENTRY
#include "fft/lane_engine.inc"
#undef LR_LANE_FN
#undef LR_LANE_ENTRY
} // namespace base

#if defined(LR_LANE_HAVE_AVX2)
namespace avx2 {
#define LR_LANE_FN inline __attribute__((target("avx2")))
#define LR_LANE_ENTRY __attribute__((target("avx2")))
#include "fft/lane_engine.inc"
#undef LR_LANE_FN
#undef LR_LANE_ENTRY
} // namespace avx2
#endif

namespace {

/** The widest build this CPU runs, probed once. */
LaneIsa
detectedIsa()
{
#if defined(LR_LANE_HAVE_AVX2)
    static const LaneIsa isa = __builtin_cpu_supports("avx2")
                                   ? LaneIsa::Avx2
                                   : LaneIsa::Baseline;
    return isa;
#else
    return LaneIsa::Baseline;
#endif
}

std::atomic<LaneIsa> &
isaFlag()
{
    static std::atomic<LaneIsa> isa{detectedIsa()};
    return isa;
}

} // namespace

const LaneKernels &
laneKernels()
{
#if defined(LR_LANE_HAVE_AVX2)
    if (isaFlag().load(std::memory_order_relaxed) == LaneIsa::Avx2)
        return avx2::kKernels;
#endif
    return base::kKernels;
}

} // namespace lightridge::lanes

namespace lightridge {

bool
laneIsaSupported(LaneIsa isa)
{
    return isa == LaneIsa::Baseline || lanes::detectedIsa() == isa;
}

LaneIsa
laneIsa()
{
    return lanes::isaFlag().load(std::memory_order_relaxed);
}

LaneIsa
setLaneIsa(LaneIsa isa)
{
    if (!laneIsaSupported(isa))
        isa = LaneIsa::Baseline;
    lanes::isaFlag().store(isa, std::memory_order_relaxed);
    return isa;
}

} // namespace lightridge
