#pragma once

#include <cstddef>
#include <functional>

namespace vpar::simrt {

/// Nested loop-level parallelism under the Executor pool — the simulated
/// analogue of the paper's hybrid MPI+OpenMP mode. A rank's kernel calls
/// parallel_for to split a loop into chunks; pool workers of the Executor
/// running the job that run none of its ranks (idle helpers: a pool of W
/// workers has W + 1 - P of them for a P-rank job, since the run() caller is
/// rank 0) are woken and steal chunks alongside the owning rank. With no
/// idle helpers — or with hybrid threading disabled — the call degrades to
/// serial chunk-by-chunk execution on the caller.
///
/// Chunk-boundary guarantee: the body is always invoked on the deterministic
/// chunks [begin + k*grain, min(begin + (k+1)*grain, end)), serial or hybrid;
/// only the *assignment* of chunks to threads varies between runs. A kernel
/// whose chunks write disjoint data (rows, planes, particle sub-ranges, or
/// per-chunk private accumulators reduced in fixed chunk order) therefore
/// produces bitwise-identical results with and without helpers.
///
/// Error and abort semantics: the first exception thrown by any chunk wins,
/// short-circuits the remaining chunks, and is rethrown on the owning rank
/// after every helper has left the body (the body and its captures live on
/// the owner's stack, so the completion latch is never abandoned early). The
/// latch is registered with the deadlock watchdog like any other blocking
/// wait ("parallel_for"). If the job was cooperatively aborted while the
/// loop ran, JobAborted is thrown after the drain.

/// Hybrid engagement policy:
///  - Auto (default): engage only when the host has more cores than the job
///    has ranks (std::thread::hardware_concurrency(), read once per process,
///    > job size) AND idle pool workers exist. On a host without spare
///    cores, helpers would only add contention, so Auto stays serial there.
///  - On: engage whenever idle pool workers exist (correctness tests, TSan
///    stress, and benches force this to exercise the concurrent path).
///  - Off: always serial.
/// The VPAR_HYBRID environment variable (auto|on|off|1|0) sets the process
/// default, read on first use; any other value makes that use throw
/// std::invalid_argument. set_hybrid_threading overrides it at runtime.
enum class HybridMode { Auto, On, Off };

void set_hybrid_threading(HybridMode mode);
[[nodiscard]] HybridMode hybrid_threading();

/// Split [begin, end) into grain-sized chunks and run `body(lo, hi)` on each,
/// serving chunks to idle pool workers when the hybrid policy engages (see
/// above). grain == 0 picks an automatic grain (~4 chunks per participant).
/// Callable from anywhere; outside an Executor worker it is plain serial
/// execution with the same chunk boundaries.
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// Number of threads a parallel_for issued here could currently use: 1 (the
/// caller) plus the pool workers idle for this job, or 1 when the hybrid
/// policy would not engage. Diagnostic — chunk assignment is dynamic.
[[nodiscard]] int parallel_width();

}  // namespace vpar::simrt
