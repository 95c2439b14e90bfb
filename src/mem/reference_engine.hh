/**
 * @file
 * The replay oracle: the original straight-line transcription of the
 * windowed-issue model (Section 2.1). It re-scans each cpu's issue
 * window every cycle and keeps completions in a binary heap, so it is
 * slow and obviously right. TraceEngine::run must match it bit for
 * bit; tests/test_mem_replay_determinism.cc and bench/mem_replay
 * check that.
 *
 * It lives in its own library, stack3d_mem_reference, which only the
 * tests and benches link: no study or request replays through it.
 */

#ifndef STACK3D_MEM_REFERENCE_ENGINE_HH
#define STACK3D_MEM_REFERENCE_ENGINE_HH

#include "mem/engine.hh"
#include "mem/hierarchy.hh"
#include "trace/buffer.hh"

namespace stack3d {
namespace mem {

/**
 * Simulate @p buf against @p hier with the reference issue loop,
 * under the same knobs TraceEngine takes. Use a fresh hierarchy per
 * run.
 */
EngineResult runReferenceReplay(const EngineParams &params,
                                const trace::TraceBuffer &buf,
                                MemoryHierarchy &hier);

} // namespace mem
} // namespace stack3d

#endif // STACK3D_MEM_REFERENCE_ENGINE_HH
