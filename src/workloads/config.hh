/**
 * @file
 * Configuration for workload trace generation.
 */

#ifndef STACK3D_WORKLOADS_CONFIG_HH
#define STACK3D_WORKLOADS_CONFIG_HH

#include <cstdint>

namespace stack3d {
namespace workloads {

/**
 * Parameters controlling RMS trace generation. The paper collects
 * 1 billion memory references per two-threaded benchmark; the default
 * here is smaller but preserves the number of working-set sweeps
 * (reuse structure), which is what determines the CPMA-vs-capacity
 * shape. Scale up records_per_thread for higher fidelity.
 */
struct WorkloadConfig
{
    /** Simulated SMP threads (the paper uses 2). */
    unsigned num_threads = 2;

    /** Approximate trace records generated per thread. */
    std::uint64_t records_per_thread = 2000000;

    /** PRNG seed for sparse structures / access ordering. */
    std::uint64_t seed = 1;

    /**
     * Working-set scale factor, 1.0 = paper-calibrated footprints
     * (see each kernel's nominalFootprintBytes()). Tests use small
     * values to run quickly.
     */
    double scale = 1.0;

    /** Memberwise, so a field added later is compared too. */
    bool operator==(const WorkloadConfig &) const = default;
};

} // namespace workloads
} // namespace stack3d

#endif // STACK3D_WORKLOADS_CONFIG_HH
